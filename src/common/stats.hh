/**
 * @file
 * Lightweight statistics package: named scalar counters and their
 * registry, plus small numeric helpers (geomean) used by the benches.
 */

#ifndef DYNASPAM_COMMON_STATS_HH
#define DYNASPAM_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace dynaspam
{

/** A named monotonically increasing scalar statistic. */
class StatCounter
{
  public:
    void inc(std::uint64_t amount = 1) { _value += amount; }
    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A registry of the scalar counters simulator components export. Lookup
 * by name lets benches and tests read any statistic without friend
 * access.
 */
class StatRegistry
{
  public:
    /** Register (or fetch) a counter under @p name. */
    StatCounter &counter(const std::string &name) { return counters[name]; }

    /** @return counter value, or 0 if never registered. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second.value();
    }

    /**
     * @return the registry as a JSON object, sorted by name:
     * `{"counters": {name: value}, "accums": {}, "histograms": {}}`.
     * The two empty blocks keep the layout of reports and result-cache
     * files from when the registry also held accumulators and
     * histograms.
     */
    json::Value
    toJson() const
    {
        json::Object counters_obj;
        for (const auto &kv : counters)
            counters_obj.emplace(kv.first, kv.second.value());
        json::Object root;
        root.emplace("counters", std::move(counters_obj));
        root.emplace("accums", json::Object{});
        root.emplace("histograms", json::Object{});
        return json::Value(std::move(root));
    }

  private:
    std::map<std::string, StatCounter> counters;
};

/**
 * Geometric mean of a vector of positive values (0 on empty input).
 * Zero entries are skipped — they represent a degenerate measurement
 * (e.g. a workload that committed nothing), and log(0) would otherwise
 * silently turn the whole mean into 0-via--inf. Returns 0 when every
 * entry was skipped. @throws FatalError on a negative entry, for which
 * no geometric mean exists (std::log would return NaN and poison every
 * downstream comparison instead of failing here).
 */
inline double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t counted = 0;
    for (double v : values) {
        if (v < 0.0 || std::isnan(v))
            fatal("geomean: invalid value ", v);
        if (v == 0.0)
            continue;
        log_sum += std::log(v);
        counted++;
    }
    if (counted == 0)
        return 0.0;
    return std::exp(log_sum / double(counted));
}

} // namespace dynaspam

#endif // DYNASPAM_COMMON_STATS_HH
