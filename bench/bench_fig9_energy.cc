/**
 * @file
 * Figure 9 — Energy consumption breakdown, DynaSpAM vs baseline.
 *
 * For each benchmark, reports the per-component energy of the baseline
 * OOO pipeline and the accelerated (mapping + speculation) system,
 * normalized to the baseline total, plus the overall reduction. The
 * paper's observations: Fetch, Rename, InstSchedule and Datapath energy
 * all shrink; Memory grows slightly; the fabric's own energy is greater
 * than the baseline's Execution component alone but smaller than
 * Execution + Datapath + InstSchedule; total reduction 2.5%-36.9%,
 * geomean 23.9%.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace dynaspam;
using namespace dynaspam::bench;

namespace
{

const char *components[] = {
    "Fetch", "Rename", "InstSchedule", "Datapath", "ROB",
    "Execution", "Memory", "Fabric", "ConfigCache", "Leakage",
};

} // namespace

int
main()
{
    std::printf("Figure 9: per-component energy, accel-spec vs baseline "
                "(%% of baseline total)\n\n");

    // One baseline + one accelerated run per workload, in parallel.
    const auto results = runJobs(figureJobs("fig9"));

    std::vector<double> reductions;
    std::size_t row = 0;
    for (const auto &name : workloads::allWorkloadNames()) {
        const auto &base = results[row * 2 + 0];
        const auto &accel = results[row * 2 + 1];
        row++;
        const double base_total = base.energy.total();

        std::printf("%-5s %-13s %10s %10s\n", name.c_str(), "component",
                    "baseline", "dynaspam");
        for (const char *comp : components) {
            double b = 0.0, a = 0.0;
            auto itb = base.energy.component.find(comp);
            if (itb != base.energy.component.end())
                b = itb->second;
            auto ita = accel.energy.component.find(comp);
            if (ita != accel.energy.component.end())
                a = ita->second;
            std::printf("%-5s %-13s %9.2f%% %9.2f%%\n", "", comp,
                        100.0 * b / base_total, 100.0 * a / base_total);
        }
        double reduction =
            100.0 * (1.0 - accel.energy.total() / base_total);
        reductions.push_back(1.0 - accel.energy.total() / base_total);
        std::printf("%-5s %-13s %10s %8.2f%%  (energy reduction)\n\n", "",
                    "TOTAL", "100.00%", reduction);
    }

    std::vector<double> ratios;
    for (double r : reductions)
        ratios.push_back(1.0 - r);      // remaining-energy ratios
    double geo_reduction = 100.0 * (1.0 - geomean(ratios));
    std::printf("geomean energy reduction: %.1f%%\n", geo_reduction);
    std::printf("\npaper reference: reductions of 2.5%%-36.9%% with a "
                "23.9%% geomean; Fetch/Rename/InstSchedule/\nDatapath "
                "shrink, Memory grows slightly, Fabric < Execution + "
                "Datapath + InstSchedule\n");
    return 0;
}
