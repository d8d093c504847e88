/**
 * @file
 * Table 5 — Detected traces and average configuration lifetime.
 *
 * For each benchmark: the number of traces mapped successfully, the
 * number actually offloaded, and the average configuration lifetime (in
 * invocations between reconfigurations) with 1, 2, 4 and 8 on-chip
 * fabrics managed LRU. The paper's headline observations: lifetimes are
 * long (hundreds to tens of thousands of invocations) for most programs,
 * BFS's unbiased branches give it very short lifetimes with one fabric,
 * and adding fabrics multiplies BFS's lifetime (6.4 -> 63.9 at 4
 * fabrics, ~2045 at 8).
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace dynaspam;
using namespace dynaspam::bench;

int
main()
{
    std::printf("Table 5: mapped/offloaded traces and average "
                "configuration lifetime (invocations)\n");
    std::printf("%-6s %8s %10s %12s %12s %12s %12s\n", "bench", "mapped",
                "offloaded", "1 fabric", "2 fabrics", "4 fabrics",
                "8 fabrics");
    rule(8);

    // 11 workloads x 4 fabric counts (1, 2, 4, 8), executed in parallel.
    const auto results = runJobs(figureJobs("table5"));

    std::size_t row = 0;
    for (const auto &name : workloads::allWorkloadNames()) {
        std::uint64_t mapped = 0, offloaded = 0;
        double lifetime[4] = {};
        for (unsigned fi = 0; fi < 4; fi++) {
            const auto &r = results[row * 4 + fi];
            lifetime[fi] = r.dynaspam.avgConfigLifetime();
            if (fi == 0) {
                mapped = r.dynaspam.distinctMappedTraces;
                offloaded = r.dynaspam.distinctOffloadedTraces;
            }
        }
        row++;
        std::printf("%-6s %8llu %10llu %12.1f %12.1f %12.1f %12.1f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(mapped),
                    static_cast<unsigned long long>(offloaded),
                    lifetime[0], lifetime[1], lifetime[2], lifetime[3]);
    }
    std::printf("\npaper reference: most programs sustain hundreds to "
                "tens of thousands of invocations per\nconfiguration; BFS "
                "is the outlier (6.4 with 1 fabric) and recovers with "
                "more fabrics\n");
    return 0;
}
