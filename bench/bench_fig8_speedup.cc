/**
 * @file
 * Figure 8 — Performance comparison vs the host OOO pipeline.
 *
 * For each of the 11 Rodinia-mirroring benchmarks, reports the speedup of
 * three DynaSpAM configurations over the 8-issue OOO baseline:
 *   - mapping only (isolates mapping overhead; paper: < 3% slowdown)
 *   - mapping + acceleration w/o memory speculation
 *     (paper: 1.23x geomean, slowdowns on NW and SRAD)
 *   - mapping + acceleration w/ memory speculation
 *     (paper: 1.42x geomean, no slowdowns)
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace dynaspam;
using namespace dynaspam::bench;

int
main()
{
    std::printf("Figure 8: speedup vs host OOO pipeline "
                "(trace length 32, 1 fabric)\n");
    std::printf("%-6s %12s %12s %12s %12s\n", "bench", "base(cyc)",
                "mapping", "accel-nosp", "accel-spec");
    rule(5);

    // All 44 simulation points up front, executed in parallel by the
    // runner; results come back in enqueue order (baseline, mapping-only,
    // accel-nospec, accel-spec per workload).
    const auto results = runJobs(figureJobs("fig8"));

    std::vector<double> sp_map, sp_nospec, sp_spec;
    std::size_t row = 0;
    for (const auto &name : workloads::allWorkloadNames()) {
        const auto &base = results[row * 4 + 0];
        const auto &mapo = results[row * 4 + 1];
        const auto &nosp = results[row * 4 + 2];
        const auto &spec = results[row * 4 + 3];
        row++;

        double s_map = double(base.cycles) / double(mapo.cycles);
        double s_nosp = double(base.cycles) / double(nosp.cycles);
        double s_spec = double(base.cycles) / double(spec.cycles);
        sp_map.push_back(s_map);
        sp_nospec.push_back(s_nosp);
        sp_spec.push_back(s_spec);

        std::printf("%-6s %12llu %11.3fx %11.3fx %11.3fx\n", name.c_str(),
                    static_cast<unsigned long long>(base.cycles), s_map,
                    s_nosp, s_spec);
    }

    rule(5);
    std::printf("%-6s %12s %11.3fx %11.3fx %11.3fx\n", "geo", "",
                geomean(sp_map), geomean(sp_nospec), geomean(sp_spec));
    std::printf("\npaper reference: mapping ~1.0x (<3%% overhead), "
                "w/o spec 1.23x geomean (NW, SRAD slow down),\n"
                "w/ spec 1.42x geomean with no slowdowns\n");
    return 0;
}
