/**
 * @file
 * Minimal JSON value type, writer and parser.
 *
 * The runner's result cache and sweep reports need structured,
 * machine-readable output without adding an external dependency, so this
 * module implements the small subset of JSON the repository needs:
 *
 *  - Objects are backed by std::map, so serialization order is sorted by
 *    key and therefore deterministic: the same Value always produces the
 *    same bytes, which is what makes cached results and 1-vs-N-thread
 *    sweep reports byte-comparable.
 *  - Integers are kept as 64-bit values (signed or unsigned) end to end;
 *    cycle and instruction counters round-trip exactly even beyond 2^53.
 *  - Doubles are written with std::to_chars (shortest round-trip form),
 *    which is locale-independent and deterministic.
 *
 * Parsing errors throw FatalError with the offending line/column and
 * byte offset; callers that read untrusted files (e.g. a corrupted
 * result cache) catch it and fall back. The parser sits on a network
 * boundary (cluster::Coordinator request bodies), so it is strict about
 * adversarial input: nesting depth is capped at kMaxParseDepth,
 * duplicate object keys are rejected, and unescaped control characters
 * inside strings are syntax errors.
 */

#ifndef DYNASPAM_COMMON_JSON_HH
#define DYNASPAM_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace dynaspam::json
{

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/**
 * A pre-serialized JSON fragment the writer emits verbatim in place of
 * a value. The splice primitive behind zero-reserialization proxying:
 * the cluster coordinator embeds worker-produced report entries into a
 * merged document without parsing them. The producer is responsible for
 * serializing the fragment at the nesting depth it will be spliced into
 * (dumpAt with the same indent/depth), or output indentation will not
 * match a natively serialized document. Never produced by parse().
 */
struct Raw
{
    std::string text;
};

/**
 * Maximum container nesting depth parse() accepts. Documents emitted by
 * this repository nest a handful of levels; the cap only exists so a
 * hostile request body ("[[[[…") cannot blow the parser's stack.
 */
inline constexpr unsigned kMaxParseDepth = 96;

/** A JSON document node. */
class Value
{
  public:
    Value() : data(nullptr) {}
    Value(std::nullptr_t) : data(nullptr) {}
    Value(bool b) : data(b) {}
    Value(std::int64_t i) : data(i) {}
    Value(std::uint64_t u) : data(u) {}
    Value(int i) : data(std::int64_t(i)) {}
    Value(unsigned u) : data(std::uint64_t(u)) {}
    Value(double d) : data(d) {}
    Value(const char *s) : data(std::string(s)) {}
    Value(std::string s) : data(std::move(s)) {}
    Value(Array a) : data(std::move(a)) {}
    Value(Object o) : data(std::move(o)) {}
    Value(Raw r) : data(std::move(r)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(data); }
    bool isBool() const { return std::holds_alternative<bool>(data); }
    bool isString() const { return std::holds_alternative<std::string>(data); }
    bool isArray() const { return std::holds_alternative<Array>(data); }
    bool isObject() const { return std::holds_alternative<Object>(data); }
    bool isRaw() const { return std::holds_alternative<Raw>(data); }

    /** @return true for any numeric alternative (int, uint or double). */
    bool
    isNumber() const
    {
        return std::holds_alternative<std::int64_t>(data) ||
               std::holds_alternative<std::uint64_t>(data) ||
               std::holds_alternative<double>(data);
    }

    /** @return boolean payload. @throws FatalError on type mismatch */
    bool asBool() const;
    /** @return value as an unsigned 64-bit integer (negative values and
     *  non-integral doubles are errors). @throws FatalError */
    std::uint64_t asUint() const;
    /** @return value as a signed 64-bit integer. @throws FatalError */
    std::int64_t asInt() const;
    /** @return value as a double (exact for any numeric). @throws FatalError */
    double asDouble() const;
    /** @return string payload. @throws FatalError on type mismatch */
    const std::string &asString() const;
    /** @return array payload. @throws FatalError on type mismatch */
    const Array &asArray() const;
    Array &asArray();
    /** @return object payload. @throws FatalError on type mismatch */
    const Object &asObject() const;
    Object &asObject();
    /** @return raw-fragment payload. @throws FatalError on type mismatch */
    const Raw &asRaw() const;

    /** Object member lookup. @return nullptr when absent or not an object */
    const Value *find(const std::string &key) const;
    /** Object member access. @throws FatalError when missing */
    const Value &at(const std::string &key) const;

    /**
     * Serialize. With @p indent > 0, pretty-prints using that many spaces
     * per level; with 0, emits the compact single-line form. Output is
     * deterministic: object keys are sorted, doubles use shortest
     * round-trip formatting.
     */
    void write(std::ostream &os, unsigned indent = 0) const;

    /** @return write() output as a string. */
    std::string dump(unsigned indent = 0) const;

    /**
     * Serialize as if this value sat @p depth container levels deep in
     * an indent-formatted document: nested newlines are indented
     * relative to that depth, with no leading or trailing indentation.
     * dumpAt(indent, 0) == dump(indent). The output is exactly the
     * bytes write(indent) would emit for this value inside an enclosing
     * document, which is what makes Raw splicing byte-identical.
     */
    std::string dumpAt(unsigned indent, unsigned depth) const;

    /**
     * Parse a complete JSON document (trailing garbage is an error).
     * @throws FatalError on any syntax error
     */
    static Value parse(const std::string &text);

  private:
    void writeIndented(std::ostream &os, unsigned indent,
                       unsigned depth) const;

    std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
                 std::string, Array, Object, Raw>
        data;
};

/** Write @p s as a JSON string literal (quotes + escapes) to @p os. */
void writeEscaped(std::ostream &os, const std::string &s);

} // namespace dynaspam::json

#endif // DYNASPAM_COMMON_JSON_HH
