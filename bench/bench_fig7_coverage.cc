/**
 * @file
 * Figure 7 — Dynamic instruction coverage by execution engine, swept
 * over the preset trace length (16, 24, 32, 40 instructions).
 *
 * For each benchmark and trace length, reports the percentage of dynamic
 * instructions that execute on the host OOO pipeline, during the mapping
 * phase, and on the spatial fabric. The paper observes a small mapping
 * fraction everywhere, generally higher fabric coverage with longer
 * traces, and coverage *drops* when the longer trace window spills into
 * a new block (the NW/SRAD effect discussed in Section 5.2).
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace dynaspam;
using namespace dynaspam::bench;

int
main()
{
    // 11 workloads x 4 trace lengths, executed in parallel.
    const std::vector<runner::Job> jobs = figureJobs("fig7");
    const std::size_t lengths =
        jobs.size() / workloads::allWorkloadNames().size();

    std::printf("Figure 7: dynamic instruction distribution "
                "(host / mapping / fabric %%)\n");
    std::printf("%-6s", "bench");
    for (std::size_t i = 0; i < lengths; i++)
        std::printf("        len=%-2u        ", jobs[i].traceLength);
    std::printf("\n");
    rule(8);

    const auto results = runJobs(jobs);

    std::size_t idx = 0;
    for (const auto &name : workloads::allWorkloadNames()) {
        std::printf("%-6s", name.c_str());
        for (std::size_t i = 0; i < lengths; i++) {
            const auto &r = results[idx++];
            double total = double(r.instsTotal);
            std::printf("  %5.1f /%5.2f /%5.1f ",
                        100.0 * double(r.instsHost) / total,
                        100.0 * double(r.instsMapping) / total,
                        100.0 * double(r.instsFabric) / total);
        }
        std::printf("\n");
    }
    std::printf("\npaper reference: mapping fraction is small for all "
                "programs; longer traces generally raise\nfabric coverage, "
                "except where the window crosses into a new block "
                "(e.g. NW at 24, SRAD at 40)\n");
    return 0;
}
