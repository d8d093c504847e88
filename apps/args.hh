/**
 * @file
 * The checked argv cursor shared by the `dynaspam` CLI and the gated
 * bench binaries.
 *
 * Every typed accessor consumes one value and rejects anything that
 * does not parse whole or does not fit, by throwing FatalError ("bad
 * value for <flag>: <value>"); a flag at the end of argv is "missing
 * value for <flag>". Callers catch FatalError at main and exit 2, so a
 * bad flag never aborts and never wraps into a huge valid number.
 */

#ifndef DYNASPAM_APPS_ARGS_HH
#define DYNASPAM_APPS_ARGS_HH

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace dynaspam::apps
{

/** Simple argv cursor with typed accessors. */
class Args
{
  public:
    Args(int count, char **vec) : argc(count), argv(vec) {}

    bool
    next(std::string &flag)
    {
        if (pos >= argc)
            return false;
        flag = argv[pos++];
        return true;
    }

    std::string
    value(const std::string &flag)
    {
        if (pos >= argc)
            fatal("missing value for ", flag);
        return argv[pos++];
    }

    /** A decimal integer in [0, 2^64): no sign, no space. */
    std::uint64_t
    u64value(const std::string &flag)
    {
        const std::string v = value(flag);
        char *end = nullptr;
        errno = 0;
        const unsigned long long n =
            v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))
                ? 0
                : std::strtoull(v.c_str(), &end, 10);
        if (!end || *end || errno == ERANGE)
            fatal("bad value for ", flag, ": ", v);
        return n;
    }

    /** A decimal integer in [0, UINT_MAX]. */
    unsigned
    uvalue(const std::string &flag)
    {
        const std::uint64_t n = u64value(flag);
        if (n > UINT_MAX)
            fatal("bad value for ", flag, ": ", n);
        return unsigned(n);
    }

    /** A finite, non-negative number. */
    double
    dvalue(const std::string &flag)
    {
        const std::string v = value(flag);
        char *end = nullptr;
        const double d = v.empty() ? -1.0 : std::strtod(v.c_str(), &end);
        if (!end || *end || !std::isfinite(d) || d < 0.0)
            fatal("bad value for ", flag, ": ", v);
        return d;
    }

  private:
    int argc;
    char **argv;
    int pos = 0;
};

/** The non-empty items of a comma-separated list. */
inline std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace dynaspam::apps

#endif // DYNASPAM_APPS_ARGS_HH
