/**
 * @file
 * dynaspam-analyze: project-specific static checks for the DynaSpAM
 * tree. Shared types between the lexer, the checks, and the driver.
 *
 * The engine is token-based, portable C++20 with no dependencies. It
 * lexes real C++ tokens (comments and string literals
 * stripped, multi-character operators intact), which is what lets the
 * checks distinguish `a == b` from `a = b` inside DYNASPAM_CHECK and
 * ignore the word "rand" in a doc comment, which a sed/grep check over
 * comment-stripped lines cannot.
 */

#ifndef DYNASPAM_TOOLS_ANALYZE_ANALYSIS_HH
#define DYNASPAM_TOOLS_ANALYZE_ANALYSIS_HH

#include <string>
#include <vector>

namespace dynaspam::analyze
{

/** One lexed C++ token. */
struct Token
{
    enum class Kind
    {
        Identifier,    ///< [A-Za-z_][A-Za-z0-9_]*
        Number,        ///< numeric literal (integer or floating)
        String,        ///< string literal (text is the raw spelling)
        CharLit,       ///< character literal
        Punct,         ///< operator / punctuation, longest-match
    };

    Kind kind;
    std::string text;
    int line = 0;          ///< 1-based source line

    bool is(const char *t) const { return text == t; }
    bool isIdent() const { return kind == Kind::Identifier; }
};

/** One comment, kept for `analyze-allow` / `analyze-owns` escapes. */
struct Comment
{
    int line = 0;          ///< 1-based line the comment starts on
    std::string text;
};

/** One source file, loaded and lexed. */
struct SourceFile
{
    std::string path;      ///< path as opened (for diagnostics)
    std::string relPath;   ///< repo-relative, forward slashes
    std::string text;
    std::vector<std::string> lines;    ///< raw lines, 0-based storage
    std::vector<Token> tokens;
    std::vector<Comment> comments;

    /**
     * @return true when a comment on @p line or the line above it
     * contains @p tag — the escape-comment convention:
     *   `// analyze-allow(<check>): reason`  and
     *   `// analyze-owns: <who owns the fd and who closes it>`.
     */
    bool hasEscape(int line, const std::string &tag) const;
};

/** One reported violation. */
struct Finding
{
    std::string check;
    std::string file;      ///< repo-relative path
    int line = 0;
    std::string message;
};

/**
 * Read @p path into a SourceFile (with @p relPath recorded) and lex
 * it. @return false when the file cannot be read.
 */
bool loadSource(const std::string &path, const std::string &relPath,
                SourceFile &out);

/** Tokenize @p file.text into file.tokens / file.comments. */
void lex(SourceFile &file);

/** One registered check. */
struct Check
{
    const char *name;
    const char *description;
    /** Whether @p relPath belongs to this check's domain. */
    bool (*inDomain)(const std::string &relPath);
    void (*run)(const SourceFile &file, std::vector<Finding> &out);
    /**
     * Repo-relative path a selftest fixture is pretended to live at,
     * so the fixture lands inside the check's domain. `{}` in the
     * string is replaced by the fixture's file name.
     */
    const char *selftestRelPath;
};

/** Registry of every check, in reporting order. */
const std::vector<Check> &allChecks();

} // namespace dynaspam::analyze

#endif // DYNASPAM_TOOLS_ANALYZE_ANALYSIS_HH
