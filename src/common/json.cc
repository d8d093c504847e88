#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace dynaspam::json
{

bool
Value::asBool() const
{
    if (const bool *b = std::get_if<bool>(&data))
        return *b;
    fatal("json: expected boolean");
}

std::uint64_t
Value::asUint() const
{
    if (const auto *u = std::get_if<std::uint64_t>(&data))
        return *u;
    if (const auto *i = std::get_if<std::int64_t>(&data)) {
        if (*i < 0)
            fatal("json: negative value where unsigned expected");
        return std::uint64_t(*i);
    }
    if (const auto *d = std::get_if<double>(&data)) {
        if (*d < 0 || *d != std::floor(*d))
            fatal("json: non-integral value where unsigned expected");
        // 2^64 is the first double past the range; +inf is past it too.
        if (!(*d < 0x1p64))
            fatal("json: value ", *d, " out of range for unsigned integer");
        return std::uint64_t(*d);
    }
    fatal("json: expected unsigned integer");
}

std::int64_t
Value::asInt() const
{
    if (const auto *i = std::get_if<std::int64_t>(&data))
        return *i;
    if (const auto *u = std::get_if<std::uint64_t>(&data)) {
        if (*u > std::uint64_t(INT64_MAX))
            fatal("json: unsigned value overflows signed integer");
        return std::int64_t(*u);
    }
    if (const auto *d = std::get_if<double>(&data)) {
        if (*d != std::floor(*d))
            fatal("json: non-integral value where integer expected");
        if (!(*d >= -0x1p63 && *d < 0x1p63))
            fatal("json: value ", *d, " out of range for signed integer");
        return std::int64_t(*d);
    }
    fatal("json: expected integer");
}

double
Value::asDouble() const
{
    if (const auto *d = std::get_if<double>(&data))
        return *d;
    if (const auto *i = std::get_if<std::int64_t>(&data))
        return double(*i);
    if (const auto *u = std::get_if<std::uint64_t>(&data))
        return double(*u);
    // Non-finite doubles round-trip as the string literals the writer
    // emits (JSON itself has no NaN/Infinity tokens).
    if (const auto *s = std::get_if<std::string>(&data)) {
        if (*s == "NaN")
            return std::numeric_limits<double>::quiet_NaN();
        if (*s == "Infinity")
            return std::numeric_limits<double>::infinity();
        if (*s == "-Infinity")
            return -std::numeric_limits<double>::infinity();
    }
    fatal("json: expected number");
}

const std::string &
Value::asString() const
{
    if (const auto *s = std::get_if<std::string>(&data))
        return *s;
    fatal("json: expected string");
}

const Array &
Value::asArray() const
{
    if (const auto *a = std::get_if<Array>(&data))
        return *a;
    fatal("json: expected array");
}

Array &
Value::asArray()
{
    if (auto *a = std::get_if<Array>(&data))
        return *a;
    fatal("json: expected array");
}

const Object &
Value::asObject() const
{
    if (const auto *o = std::get_if<Object>(&data))
        return *o;
    fatal("json: expected object");
}

Object &
Value::asObject()
{
    if (auto *o = std::get_if<Object>(&data))
        return *o;
    fatal("json: expected object");
}

const Raw &
Value::asRaw() const
{
    if (const auto *r = std::get_if<Raw>(&data))
        return *r;
    fatal("json: expected raw fragment");
}

const Value *
Value::find(const std::string &key) const
{
    const auto *o = std::get_if<Object>(&data);
    if (!o)
        return nullptr;
    auto it = o->find(key);
    return it == o->end() ? nullptr : &it->second;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        fatal("json: missing key \"", key, "\"");
    return *v;
}

// --- Writing ------------------------------------------------------------

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

namespace
{

void
writeDouble(std::ostream &os, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no inf/nan tokens. Emitting null here used to lose
        // the value: numeric readers (asDouble) reject null, so a NaN
        // stat poisoned its whole cache entry / baseline file. Encode
        // as a string literal instead; asDouble maps it back.
        if (std::isnan(d))
            os << "\"NaN\"";
        else
            os << (d > 0 ? "\"Infinity\"" : "\"-Infinity\"");
        return;
    }
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    os.write(buf, ptr - buf);
    // Make integral doubles visibly floating so they parse back as double.
    bool integral = true;
    for (const char *p = buf; p != ptr; p++)
        if (*p == '.' || *p == 'e' || *p == 'E')
            integral = false;
    if (integral)
        os << ".0";
}

void
newlineIndent(std::ostream &os, unsigned indent, unsigned depth)
{
    os << '\n';
    for (unsigned i = 0; i < indent * depth; i++)
        os << ' ';
}

} // namespace

void
Value::writeIndented(std::ostream &os, unsigned indent, unsigned depth) const
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::nullptr_t>) {
                os << "null";
            } else if constexpr (std::is_same_v<T, bool>) {
                os << (v ? "true" : "false");
            } else if constexpr (std::is_same_v<T, std::int64_t> ||
                                 std::is_same_v<T, std::uint64_t>) {
                os << v;
            } else if constexpr (std::is_same_v<T, double>) {
                writeDouble(os, v);
            } else if constexpr (std::is_same_v<T, std::string>) {
                writeEscaped(os, v);
            } else if constexpr (std::is_same_v<T, Raw>) {
                // Verbatim: the producer serialized the fragment at
                // this nesting depth already (Value::dumpAt).
                os << v.text;
            } else if constexpr (std::is_same_v<T, Array>) {
                if (v.empty()) {
                    os << "[]";
                    return;
                }
                os << '[';
                bool first = true;
                for (const Value &elem : v) {
                    if (!first)
                        os << ',';
                    first = false;
                    if (indent)
                        newlineIndent(os, indent, depth + 1);
                    elem.writeIndented(os, indent, depth + 1);
                }
                if (indent)
                    newlineIndent(os, indent, depth);
                os << ']';
            } else if constexpr (std::is_same_v<T, Object>) {
                if (v.empty()) {
                    os << "{}";
                    return;
                }
                os << '{';
                bool first = true;
                for (const auto &kv : v) {
                    if (!first)
                        os << ',';
                    first = false;
                    if (indent)
                        newlineIndent(os, indent, depth + 1);
                    writeEscaped(os, kv.first);
                    os << (indent ? ": " : ":");
                    kv.second.writeIndented(os, indent, depth + 1);
                }
                if (indent)
                    newlineIndent(os, indent, depth);
                os << '}';
            }
        },
        data);
}

void
Value::write(std::ostream &os, unsigned indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Value::dump(unsigned indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

std::string
Value::dumpAt(unsigned indent, unsigned depth) const
{
    std::ostringstream os;
    writeIndented(os, indent, depth);
    return os.str();
}

// --- Parsing ------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &s) : text(s) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        // Report line/column alongside the byte offset: request bodies
        // arrive from humans and curl scripts, and "line 3, column 17"
        // is actionable where a raw offset is not.
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); i++) {
            if (text[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        fatal("json: parse error at line ", line, ", column ", col,
              " (offset ", pos, "): ", what);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                text[pos] == '\r'))
            pos++;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            fail(std::string("expected '") + c + "'");
        pos++;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::char_traits<char>::length(lit);
        if (text.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
            return descend([this] { return parseObject(); });
          case '[':
            return descend([this] { return parseArray(); });
          case '"':
            return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    /** Run @p parse one container level deeper, enforcing the cap. */
    template <typename Fn>
    Value
    descend(Fn parse)
    {
        if (depth >= kMaxParseDepth)
            fail("nesting deeper than " + std::to_string(kMaxParseDepth) +
                 " levels");
        depth++;
        Value v = parse();
        depth--;
        return v;
    }

    Value
    parseObject()
    {
        expect('{');
        Object obj;
        skipSpace();
        if (peek() == '}') {
            pos++;
            return Value(std::move(obj));
        }
        while (true) {
            skipSpace();
            std::string key = parseString();
            skipSpace();
            expect(':');
            Value element = parseValue();
            if (!obj.emplace(key, std::move(element)).second)
                fail("duplicate object key \"" + key + "\"");
            skipSpace();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect('}');
            return Value(std::move(obj));
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Array arr;
        skipSpace();
        if (peek() == ']') {
            pos++;
            return Value(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect(']');
            return Value(std::move(arr));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                pos--;
                fail("unescaped control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode the code point as UTF-8 (BMP only; surrogate
                // pairs are not needed for the stat names we emit).
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Value
    parseNumber()
    {
        std::size_t start = pos;
        bool negative = false;
        bool floating = false;
        if (peek() == '-') {
            negative = true;
            pos++;
        }
        while (pos < text.size()) {
            char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                if (c == '.' || c == 'e' || c == 'E')
                    floating = true;
                pos++;
            } else {
                break;
            }
        }
        if (pos == start + (negative ? 1u : 0u))
            fail("bad number");
        const char *first = text.data() + start;
        const char *last = text.data() + pos;
        if (!floating) {
            if (negative) {
                std::int64_t i = 0;
                auto [p, ec] = std::from_chars(first, last, i);
                if (ec == std::errc() && p == last)
                    return Value(i);
            } else {
                std::uint64_t u = 0;
                auto [p, ec] = std::from_chars(first, last, u);
                if (ec == std::errc() && p == last)
                    return Value(u);
            }
            // Out-of-range integers fall through to double.
        }
        double d = 0;
        auto [p, ec] = std::from_chars(first, last, d);
        if (ec != std::errc() || p != last)
            fail("bad number");
        return Value(d);
    }

    const std::string &text;
    std::size_t pos = 0;
    unsigned depth = 0;
};

} // namespace

Value
Value::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace dynaspam::json
