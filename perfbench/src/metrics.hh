/**
 * @file
 * The metric vocabulary: every end-to-end and per-layer metric the
 * benchmark prints, with its unit and direction. BENCHMARK.json at the
 * repository root lists the same names (checked by the tests).
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <vector>

namespace perfbench
{

struct MetricSpec
{
    const char *name;
    const char *unit;
    bool higherIsBetter;
};

/** What a user of the system sees; printed by untraced runs. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Single layers, from the traced run; printed by traced runs. */
const std::vector<MetricSpec> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
