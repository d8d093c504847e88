/**
 * @file
 * The dynaspam-analyze checks (token engine).
 *
 * Each check owns a path domain and a rule the compiler cannot state:
 *
 *  - determinism:        no wall-clock / RNG / host-entropy calls in
 *                        the simulation core — a sweep's bytes must
 *                        depend only on the job spec;
 *  - epoll-blocking:     the coordinator's single event-loop thread
 *                        must never block without a timeout, or every
 *                        client and worker stalls with it;
 *  - fd-raii:            every descriptor a creation syscall returns
 *                        must immediately enter common::Fd ownership
 *                        (or carry an `analyze-owns:` comment naming
 *                        the owner that closes it);
 *  - check-side-effects: DYNASPAM_CHECK compiles to dead code in
 *                        normal builds, so side effects in its
 *                        arguments silently vanish;
 *  - header-hygiene:     `#ifndef DYNASPAM_<PATH>_HH` guards matching
 *                        the file path, no `using namespace` in
 *                        headers, and NO_THREAD_SAFETY_ANALYSIS
 *                        confined to common/mutex.hh;
 *  - snapshot-fields:    a class with a fields() list (common/fields.hh)
 *                        lists every data member exactly once, in
 *                        declaration order, under its own name — the
 *                        snapshot codec, the restore audit and the
 *                        layout digest all walk that one list.
 *
 * Escapes: a `// analyze-allow(<check>): reason` comment on the same
 * or preceding line suppresses that check there; fd-raii additionally
 * honors `// analyze-owns: <reason>` for descriptors intentionally
 * released into a non-Fd owner.
 */

#include "analysis.hh"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <map>
#include <sstream>

namespace dynaspam::analyze
{

namespace
{

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::string suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool
contains(std::initializer_list<const char *> set, const std::string &t)
{
    return std::any_of(set.begin(), set.end(),
                       [&](const char *s) { return t == s; });
}

/**
 * Call-vs-declaration heuristic for `name(`: in a declaration the
 * preceding token is the return type's last identifier (`void open(`,
 * `std::uint64_t time(`); in a call it is punctuation (`=`, `(`, `,`,
 * `::`, `;`) or the `return` keyword. Keywords lex as identifiers, so
 * `return` is special-cased.
 */
bool
looksLikeDeclaration(const std::vector<Token> &toks, std::size_t k)
{
    return k > 0 && toks[k - 1].isIdent() && !toks[k - 1].is("return");
}

/** @return index of the `)` matching the `(` at @p open, or npos. */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); i++) {
        if (toks[i].is("("))
            depth++;
        else if (toks[i].is(")") && --depth == 0)
            return i;
    }
    return std::string::npos;
}

void
report(std::vector<Finding> &out, const char *check,
       const SourceFile &file, int line, std::string message)
{
    if (file.hasEscape(line, std::string("analyze-allow(") + check +
                                 ")"))
        return;
    out.push_back({check, file.relPath, line, std::move(message)});
}

// --- determinism -----------------------------------------------------------

bool
determinismDomain(const std::string &rel)
{
    // src/runner and the snapshot auditor joined the domain with the
    // forked-sweep execution path: warmup partitioning and snapshot
    // restore must reproduce straight-through bytes, so host entropy is
    // as forbidden there as in the cycle engine itself. src/explore
    // joined with the design-space engine: its frontier reports promise
    // byte-identity across thread counts and transports, which no
    // wall-clock or random source can be allowed to break.
    return startsWith(rel, "src/core/") || startsWith(rel, "src/ooo/") ||
           startsWith(rel, "src/fabric/") ||
           startsWith(rel, "src/memory/") || startsWith(rel, "src/sim/") ||
           startsWith(rel, "src/runner/") ||
           startsWith(rel, "src/explore/") ||
           startsWith(rel, "src/check/snapshot_audit");
}

void
determinismRun(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); i++) {
        if (!t[i].isIdent())
            continue;
        // Nondeterministic in any position (type or call).
        if (contains({"srand", "drand48", "lrand48", "mrand48",
                      "random_device", "random_shuffle",
                      "system_clock", "high_resolution_clock",
                      "steady_clock", "gettimeofday", "clock_gettime",
                      "localtime", "gmtime", "asctime", "getenv"},
                     t[i].text)) {
            report(out, "determinism", f, t[i].line,
                   "'" + t[i].text +
                       "' in the simulation core: results must depend "
                       "only on the job spec (seed RNG explicitly; "
                       "measure time in the runner, not the model)");
            continue;
        }
        // Nondeterministic only as a function call: these are common
        // identifiers (members named `time`, locals named `clock`).
        const bool isCall =
            i + 1 < t.size() && t[i + 1].is("(") &&
            !(i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"))) &&
            !looksLikeDeclaration(t, i);
        if (isCall && contains({"rand", "random", "time", "clock"},
                               t[i].text))
            report(out, "determinism", f, t[i].line,
                   "'" + t[i].text +
                       "()' in the simulation core: wall-clock/legacy "
                       "RNG makes sweep bytes irreproducible");
    }
}

// --- epoll-blocking --------------------------------------------------------

bool
epollBlockingDomain(const std::string &rel)
{
    return rel == "src/cluster/coordinator.cc" ||
           rel == "src/cluster/coordinator.hh";
}

void
epollBlockingRun(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); i++) {
        if (!t[i].isIdent())
            continue;
        const bool member =
            i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
        if (!member &&
            contains({"sleep_for", "sleep_until", "usleep", "nanosleep",
                      "system", "popen", "getaddrinfo",
                      "gethostbyname"},
                     t[i].text)) {
            report(out, "epoll-blocking", f, t[i].line,
                   "'" + t[i].text +
                       "' on the coordinator event-loop thread blocks "
                       "every client and worker; timers belong on the "
                       "epoll tick");
            continue;
        }
        if (i + 1 >= t.size() || !t[i + 1].is("("))
            continue;
        if (!member && t[i].is("sleep")) {
            report(out, "epoll-blocking", f, t[i].line,
                   "'sleep()' on the coordinator event-loop thread");
            continue;
        }
        // epoll_wait/poll with a -1 timeout, select with no timeout:
        // unbounded block in the dispatch loop.
        if (contains({"epoll_wait", "epoll_pwait", "poll", "ppoll",
                      "select"},
                     t[i].text)) {
            const std::size_t close = matchParen(t, i + 1);
            if (close == std::string::npos)
                continue;
            // Last top-level argument.
            std::size_t argStart = i + 2;
            int depth = 0;
            for (std::size_t k = i + 2; k < close; k++) {
                if (t[k].is("(") || t[k].is("[") || t[k].is("{"))
                    depth++;
                else if (t[k].is(")") || t[k].is("]") || t[k].is("}"))
                    depth--;
                else if (depth == 0 && t[k].is(","))
                    argStart = k + 1;
            }
            const bool neverWakes =
                (close == argStart + 2 && t[argStart].is("-") &&
                 t[argStart + 1].text == "1") ||
                (close == argStart + 1 &&
                 (t[argStart].is("nullptr") || t[argStart].is("NULL")));
            if (neverWakes)
                report(out, "epoll-blocking", f, t[i].line,
                       "'" + t[i].text +
                           "' with no timeout: the event loop must "
                           "wake for its timer sweep (pings, "
                           "deadlines, retry backoffs)");
        }
    }
}

// --- fd-raii ---------------------------------------------------------------

bool
fdRaiiDomain(const std::string &rel)
{
    // common/fd.hh is the ownership layer itself.
    return startsWith(rel, "src/") && rel != "src/common/fd.hh";
}

void
fdRaiiRun(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); i++) {
        if (!t[i].isIdent() ||
            !contains({"socket", "accept", "accept4", "open", "openat",
                       "creat", "epoll_create", "epoll_create1", "dup",
                       "dup2", "dup3", "eventfd", "memfd_create",
                       "timerfd_create", "signalfd", "inotify_init",
                       "inotify_init1"},
                      t[i].text))
            continue;
        if (i + 1 >= t.size() || !t[i + 1].is("("))
            continue;

        // k: first token of the call expression (skip `::`).
        std::size_t k = i;
        if (k > 0 && t[k - 1].is("::"))
            k--;
        // Member calls (stream.open(...)) are not the syscall, and
        // neither are declarations of same-named functions.
        if (k > 0 && (t[k - 1].is(".") || t[k - 1].is("->")))
            continue;
        if (k == i && looksLikeDeclaration(t, k))
            continue;

        // Accepted ownership transfers:
        //   common::Fd name(::socket(...));   Fd, name, (, [::]call
        //   common::Fd(::accept(...))         Fd, (, [::]call
        //   fd.reset(::epoll_create1(...))    reset, (, [::]call
        const bool intoCtor =
            k >= 3 && t[k - 1].is("(") && t[k - 2].isIdent() &&
            t[k - 3].is("Fd");
        const bool intoTemp = k >= 2 && t[k - 1].is("(") &&
                              t[k - 2].is("Fd");
        const bool intoReset = k >= 2 && t[k - 1].is("(") &&
                               t[k - 2].is("reset");
        if (intoCtor || intoTemp || intoReset)
            continue;
        if (f.hasEscape(t[i].line, "analyze-owns:"))
            continue;
        report(out, "fd-raii", f, t[i].line,
               "'" + t[i].text +
                   "()' result is not owned: wrap it in common::Fd "
                   "(or document the owner with `// analyze-owns: "
                   "...`) so every error path closes it");
    }
}

// --- check-side-effects ----------------------------------------------------

bool
checkSideEffectsDomain(const std::string &rel)
{
    return startsWith(rel, "src/");
}

void
checkSideEffectsRun(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); i++) {
        if (!t[i].isIdent() || !(t[i].is("DYNASPAM_CHECK") ||
                                 t[i].is("DYNASPAM_DCHECK")))
            continue;
        if (!t[i + 1].is("("))
            continue;
        // Skip the macro's own definition (`#define DYNASPAM_CHECK(`).
        if (i > 0 && t[i - 1].is("define"))
            continue;
        const std::size_t close = matchParen(t, i + 1);
        if (close == std::string::npos)
            continue;
        for (std::size_t k = i + 2; k < close; k++) {
            if (contains({"++", "--", "=", "+=", "-=", "*=", "/=",
                          "%=", "&=", "|=", "^=", "<<=", ">>="},
                         t[k].text))
                report(out, "check-side-effects", f, t[k].line,
                       "'" + t[k].text + "' inside " + t[i].text +
                           ": check arguments compile to dead code in "
                           "normal builds, so the side effect "
                           "silently disappears");
        }
    }
}

// --- header-hygiene --------------------------------------------------------

bool
headerHygieneDomain(const std::string &rel)
{
    return startsWith(rel, "src/");
}

/** src/cluster/wire.hh -> DYNASPAM_CLUSTER_WIRE_HH */
std::string
expectedGuard(const std::string &rel)
{
    std::string g = "DYNASPAM_";
    for (char c : rel.substr(4, rel.size() - 4 - 3)) {
        g += std::isalnum(static_cast<unsigned char>(c))
                 ? char(std::toupper(static_cast<unsigned char>(c)))
                 : '_';
    }
    return g + "_HH";
}

void
headerHygieneRun(const SourceFile &f, std::vector<Finding> &out)
{
    // NO_THREAD_SAFETY_ANALYSIS is the annotation system's one big
    // hammer; it is reserved for the CondVar bridge in common/mutex.hh
    // so the rest of the tree cannot silently opt out.
    if (f.relPath != "src/common/mutex.hh" &&
        f.relPath != "src/common/annotations.hh") {
        for (const Token &tok : f.tokens)
            if (tok.is("NO_THREAD_SAFETY_ANALYSIS"))
                report(out, "header-hygiene", f, tok.line,
                       "NO_THREAD_SAFETY_ANALYSIS outside "
                       "common/mutex.hh: fix the locking (or annotate "
                       "it precisely) instead of opting out of the "
                       "analysis");
    }

    if (!endsWith(f.relPath, ".hh"))
        return;

    for (std::size_t i = 0; i + 1 < f.tokens.size(); i++)
        if (f.tokens[i].is("using") && f.tokens[i + 1].is("namespace"))
            report(out, "header-hygiene", f, f.tokens[i].line,
                   "'using namespace' in a header leaks into every "
                   "includer");

    // Include guard: first directive must be `#ifndef <expected>`,
    // immediately followed by the matching `#define`.
    const std::string want = expectedGuard(f.relPath);
    int guardLine = 0;
    std::string got;
    for (std::size_t i = 0; i < f.lines.size(); i++) {
        const std::string &line = f.lines[i];
        const std::size_t pos = line.find("#ifndef");
        if (pos == std::string::npos)
            continue;
        std::istringstream is(line.substr(pos + 7));
        is >> got;
        guardLine = int(i) + 1;
        // The very next line must define it.
        const std::string define =
            i + 1 < f.lines.size() ? f.lines[i + 1] : "";
        if (define.find("#define " + got) == std::string::npos)
            report(out, "header-hygiene", f, guardLine,
                   "include guard '" + got +
                       "' is not #define'd on the next line");
        break;
    }
    if (guardLine == 0)
        report(out, "header-hygiene", f, 1,
               "missing include guard (expected #ifndef " + want + ")");
    else if (got != want)
        report(out, "header-hygiene", f, guardLine,
               "include guard '" + got + "' does not match the path "
               "convention (expected " + want + ")");
}

// --- snapshot-fields -------------------------------------------------------

bool
snapshotFieldsDomain(const std::string &rel)
{
    return startsWith(rel, "src/");
}

/** @return index just past the bracket matching the one at @p open. */
std::size_t
skipBalanced(const std::vector<Token> &toks, std::size_t open)
{
    const std::string o = toks[open].text;
    const char *c = o == "{" ? "}" : o == "(" ? ")" : "]";
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); i++) {
        if (toks[i].text == o)
            depth++;
        else if (toks[i].is(c) && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

/** A data member or a fields() entry, at the line it appears on. */
struct Named
{
    std::string name;
    int line = 0;
};

/**
 * Entries of a spelled-out fields() body [begin, end): each
 * `&Class::member` pointer, whose preceding string literal must spell
 * the same name.
 */
std::vector<Named>
fieldEntries(const SourceFile &f, std::size_t begin, std::size_t end,
             std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    std::vector<Named> entries;
    for (std::size_t i = begin; i + 3 < end; i++) {
        if (!t[i].is("&") || !t[i + 1].isIdent() || !t[i + 2].is("::"))
            continue;
        std::size_t k = i + 1;
        while (k + 2 < end && t[k + 1].is("::") && t[k + 2].isIdent())
            k += 2;
        const Named entry{t[k].text, t[k].line};
        if (i >= 2 && t[i - 1].is(",") &&
            t[i - 2].kind == Token::Kind::String &&
            t[i - 2].text != "\"" + entry.name + "\"")
            report(out, "snapshot-fields", f, entry.line,
                   "fields() entry " + t[i - 2].text + " points at member '" +
                       entry.name + "': name each entry after its member");
        entries.push_back(entry);
        i = k;
    }
    return entries;
}

/**
 * The name a class-body declaration statement declares as a non-static
 * data member, or "" (functions, types, aliases, statics, friends).
 * Bracketed groups arrive collapsed to their opening token.
 */
std::string
declaredMember(const std::vector<Token> &t,
               const std::vector<std::size_t> &stmt)
{
    if (stmt.empty())
        return {};
    for (std::size_t k : stmt)
        if (contains({"static", "friend", "using", "typedef", "template",
                      "static_assert", "struct", "class", "union",
                      "operator"},
                     t[k].text))
            return {};
    if (t[stmt.front()].is("enum"))
        return {};
    int angle = 0;
    std::size_t last = stmt.front();
    for (std::size_t k : stmt) {
        const std::string &s = t[k].text;
        if (s == "<")
            angle++;
        else if (s == ">")
            angle--;
        else if (s == ">>")
            angle -= 2;
        else if (angle <= 0 && s == "(")
            return {};      // a function declaration
        else if (angle <= 0 && (s == "=" || s == "[" || s == "{" || s == ":"))
            break;
        last = k;
    }
    return t[last].isIdent() ? t[last].text : std::string();
}

/**
 * Parse the class body opening at @p open (named @p name), check its
 * fields() list if it has one, and recurse into nested classes.
 * @return index just past the closing brace
 */
std::size_t
checkClassBody(const SourceFile &f, std::size_t open, const Token &name,
               std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    std::vector<Named> members;
    std::vector<Named> entries;
    bool hasList = false;
    std::vector<std::size_t> stmt;

    std::size_t i = open + 1;
    while (i < t.size() && !t[i].is("}")) {
        const Token &tok = t[i];
        if (tok.is("DYNASPAM_FIELDS") && stmt.empty() && i + 1 < t.size() &&
            t[i + 1].is("(")) {
            // DYNASPAM_FIELDS(Class, member, ...): the names themselves.
            const std::size_t end = skipBalanced(t, i + 1);
            hasList = true;
            for (std::size_t k = i + 4; k + 1 < end; k += 2)
                entries.push_back({t[k].text, t[k].line});
            i = end;
        } else if (tok.is(";")) {
            const std::string member = declaredMember(t, stmt);
            if (!member.empty())
                members.push_back({member, t[stmt.front()].line});
            stmt.clear();
            i++;
        } else if (tok.is(":") && stmt.size() == 1 &&
                   contains({"public", "private", "protected"},
                            t[stmt.front()].text)) {
            stmt.clear();
            i++;
        } else if (tok.is("{")) {
            const bool isType =
                !stmt.empty() &&
                contains({"struct", "class", "union"}, t[stmt.front()].text);
            bool isFunction = false;
            for (std::size_t k : stmt)
                isFunction = isFunction || t[k].is("(");
            if (isType && stmt.size() >= 2 && t[stmt[1]].isIdent()) {
                i = checkClassBody(f, i, t[stmt[1]], out);
                stmt.clear();
            } else if (isFunction || isType || stmt.empty() ||
                       t[stmt.front()].is("enum")) {
                const std::size_t end = skipBalanced(t, i);
                for (std::size_t k = 0; k + 1 < stmt.size(); k++)
                    if (isFunction && t[stmt[k]].is("fields") &&
                        t[stmt[k + 1]].is("(")) {
                        hasList = true;
                        entries = fieldEntries(f, i, end, out);
                    }
                i = end;
                stmt.clear();
            } else {
                stmt.push_back(i);      // brace initializer
                i = skipBalanced(t, i);
            }
        } else if (tok.is("(") || tok.is("[")) {
            stmt.push_back(i);
            i = skipBalanced(t, i);
        } else {
            stmt.push_back(i);
            i++;
        }
    }
    if (!hasList)
        return i + 1;

    const std::string cls = "'" + name.text + "'";
    std::map<std::string, std::size_t> position;
    for (std::size_t k = 0; k < members.size(); k++)
        position[members[k].name] = k;
    std::map<std::string, int> seen;
    std::size_t lastPos = 0;
    bool ordered = true;
    for (const Named &e : entries) {
        auto it = position.find(e.name);
        if (it == position.end()) {
            report(out, "snapshot-fields", f, e.line,
                   "fields() of " + cls + " lists '" + e.name +
                       "', which is not a data member of " + cls);
        } else if (seen[e.name]++) {
            report(out, "snapshot-fields", f, e.line,
                   "fields() of " + cls + " lists '" + e.name + "' twice");
        } else if (ordered && it->second < lastPos) {
            report(out, "snapshot-fields", f, e.line,
                   "fields() of " + cls + " lists '" + e.name +
                       "' out of declaration order");
            ordered = false;
        } else {
            lastPos = it->second;
        }
    }
    for (const Named &m : members)
        if (!seen.count(m.name))
            report(out, "snapshot-fields", f, m.line,
                   "member '" + m.name + "' of " + cls +
                       " is missing from its fields() list: the snapshot "
                       "codec, the restore audit and the layout digest "
                       "walk that list, so the member would be silently "
                       "dropped from snapshots");
    return i + 1;
}

void
snapshotFieldsRun(const SourceFile &f, std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); i++) {
        if (!(t[i].is("struct") || t[i].is("class")) ||
            (i > 0 && (t[i - 1].is("enum") || t[i - 1].is("friend"))) ||
            !t[i + 1].isIdent())
            continue;
        // A definition: `struct Name [final] [: bases] {`.
        std::size_t k = i + 2;
        if (t[k].is("final"))
            k++;
        if (k < t.size() && t[k].is(":"))
            while (k < t.size() && !contains({"{", ";", "(", ")", ">", "="},
                                             t[k].text))
                k++;
        if (k < t.size() && t[k].is("{"))
            i = checkClassBody(f, k, t[i + 1], out) - 1;
    }
}

} // namespace

const std::vector<Check> &
allChecks()
{
    static const std::vector<Check> checks = {
        {"determinism",
         "no wall-clock/RNG/host-entropy calls in src/{core,ooo,"
         "fabric,memory,sim,runner} or the snapshot auditor",
         determinismDomain, determinismRun, "src/sim/{}"},
        {"epoll-blocking",
         "no unbounded blocking on the coordinator event-loop thread",
         epollBlockingDomain, epollBlockingRun,
         "src/cluster/coordinator.cc"},
        {"fd-raii",
         "every created descriptor enters common::Fd ownership",
         fdRaiiDomain, fdRaiiRun, "src/serve/{}"},
        {"check-side-effects",
         "no side effects inside DYNASPAM_CHECK/DYNASPAM_DCHECK "
         "arguments",
         checkSideEffectsDomain, checkSideEffectsRun, "src/ooo/{}"},
        {"header-hygiene",
         "path-derived include guards; no using-namespace in headers; "
         "NO_THREAD_SAFETY_ANALYSIS confined to common/mutex.hh",
         headerHygieneDomain, headerHygieneRun, "src/fixture/{}"},
        {"snapshot-fields",
         "every data member of a class with a fields() list is listed "
         "once, in declaration order, under its own name",
         snapshotFieldsDomain, snapshotFieldsRun, "src/sim/{}"},
    };
    return checks;
}

} // namespace dynaspam::analyze
