#include "check/snapshot_audit.hh"

#include <algorithm>
#include <concepts>
#include <memory>
#include <string>
#include <type_traits>

#include "common/fields.hh"
#include "sim/snapshot.hh"

namespace dynaspam::check
{

namespace
{

template <typename T>
bool firstDiff(const T &a, const T &b, std::string &path);

/** firstDiff of one child, with @p label appended to the path while it
 *  is examined and kept when it differs. */
template <typename T>
bool
childDiff(const T &a, const T &b, std::string &path, const std::string &label)
{
    const std::size_t len = path.size();
    path += label;
    if (firstDiff(a, b, path))
        return true;
    path.resize(len);
    return false;
}

/**
 * @return true when @p a and @p b differ, with @p path extended to the
 * first differing leaf: `.name` per field, `[i]` per sequence index,
 * `[key]` per keyed entry. A container whose common prefix agrees but
 * whose sizes differ is itself the leaf.
 */
template <typename T>
bool
firstDiff(const T &a, const T &b, std::string &path)
{
    if constexpr (std::equality_comparable<T> && !std::is_array_v<T>) {
        if (a == b)
            return false;
    }
    if constexpr (fields::isSequence<T> || fields::isFixedArray<T>) {
        const std::size_t n = std::min(std::size(a), std::size(b));
        for (std::size_t i = 0; i < n; i++)
            if (childDiff(a[i], b[i], path, "[" + std::to_string(i) + "]"))
                return true;
        return std::size(a) != std::size(b);
    } else if constexpr (fields::isKeyed<T>) {
        const auto ea = fields::sortedEntries(a);
        const auto eb = fields::sortedEntries(b);
        for (std::size_t i = 0; i < std::min(ea.size(), eb.size()); i++) {
            const auto &ka = fields::entryKey(*ea[i]);
            const auto &kb = fields::entryKey(*eb[i]);
            if (ka != kb) {
                path += "[" + std::to_string(std::min(ka, kb)) + "]";
                return true;
            }
            if constexpr (fields::isPair<typename T::value_type>) {
                if (childDiff(ea[i]->second, eb[i]->second, path,
                              "[" + std::to_string(ka) + "]"))
                    return true;
            }
        }
        return ea.size() != eb.size();
    } else if constexpr (fields::isOptional<T>) {
        return a.has_value() != b.has_value() ||
               (a && firstDiff(*a, *b, path));
    } else if constexpr (fields::isPair<T>) {
        return childDiff(a.first, b.first, path, ".first") ||
               childDiff(a.second, b.second, path, ".second");
    } else if constexpr (std::is_scalar_v<T> ||
                         fields::isSpecialization<T, std::shared_ptr>) {
        // A leaf compared by value (pointers by identity: both sides of
        // a round trip share the immutable inputs and configs).
        return !(a == b);
    } else {
        // Derived members are compared too: both sides of a round trip
        // bind them to the same inputs.
        bool found = false;
        auto entry = [&](const char *name, auto member, auto...) {
            found = found || childDiff(a.*member, b.*member, path,
                                       (path.empty() ? "" : ".") +
                                           std::string(name));
        };
        T::fields(entry);
        if (found || !std::equality_comparable<T>)
            return found;
        // operator== saw a difference no listed member explains.
        path += ".<unlisted member>";
        return true;
    }
}

} // namespace

std::string
firstSnapshotDiff(const sim::Snapshot &expect, const sim::Snapshot &got)
{
    std::string path;
    return firstDiff(expect, got, path) ? path : std::string();
}

bool
auditSnapshotRoundTrip(const sim::Snapshot &expect, const sim::Snapshot &got,
                       ViolationSink &sink, Cycle now)
{
    const std::string path = firstSnapshotDiff(expect, got);
    if (path.empty())
        return true;
    sink.report("snapshot", now,
                "restored state diverges from its source snapshot at " +
                    path);
    return false;
}

} // namespace dynaspam::check
