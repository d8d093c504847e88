/**
 * @file
 * Domain example: accelerating a physics stencil (the Hotspot workload).
 *
 * Runs the HS kernel — an iterative 5-point temperature stencil, the
 * kind of loop nest the paper's introduction motivates — through every
 * system configuration and prints a side-by-side comparison, including
 * the per-component energy story (where the savings come from) and the
 * effect of the trace-length knob.
 *
 *   ./build/examples/stencil_acceleration
 */

#include <cstdio>

#include "sim/simulation.hh"
#include "workloads/workload.hh"

using namespace dynaspam;
using sim::SystemConfig;
using sim::SystemMode;

int
main()
{
    workloads::Workload hs = workloads::makeHs();
    std::printf("workload: %s (%s, kernel %s), %zu static insts\n\n",
                hs.name.c_str(), hs.fullName.c_str(), hs.kernel.c_str(),
                hs.program.size());

    auto input = sim::SimInput::make(hs.program, hs.initialMemory);
    sim::RunResult base;
    std::printf("%-14s %10s %7s %10s %9s %9s\n", "config", "cycles",
                "IPC", "energy(nJ)", "speedup", "E-saving");
    for (auto mode :
         {SystemMode::BaselineOoo, SystemMode::MappingOnly,
          SystemMode::AccelNoSpec, SystemMode::AccelSpec}) {
        sim::Simulation simulation(SystemConfig::make(mode), input);
        simulation.runToCompletion();
        auto r = simulation.collectResult();
        if (mode == SystemMode::BaselineOoo)
            base = r;
        std::printf("%-14s %10llu %7.2f %10.1f %8.2fx %8.1f%%\n",
                    sim::modeName(mode),
                    static_cast<unsigned long long>(r.cycles), r.ipc(),
                    r.energyTotal() / 1e3,
                    double(base.cycles) / double(r.cycles),
                    100.0 * (1.0 - r.energyTotal() / base.energyTotal()));
    }

    // Energy breakdown of baseline vs accelerated.
    sim::Simulation accel_sim(SystemConfig::make(SystemMode::AccelSpec),
                              input);
    accel_sim.runToCompletion();
    auto accel = accel_sim.collectResult();
    std::printf("\nper-component energy (nJ):\n");
    std::printf("%-14s %10s %10s\n", "component", "baseline", "dynaspam");
    for (const auto &[comp, value] : base.energy.component) {
        double a = 0.0;
        auto it = accel.energy.component.find(comp);
        if (it != accel.energy.component.end())
            a = it->second;
        std::printf("%-14s %10.1f %10.1f\n", comp.c_str(), value / 1e3,
                    a / 1e3);
    }

    // Trace-length knob.
    std::printf("\ntrace-length sweep (accel-spec):\n");
    for (unsigned len : {16u, 24u, 32u, 40u}) {
        sim::Simulation simulation(
            SystemConfig::make(SystemMode::AccelSpec, len), input);
        simulation.runToCompletion();
        auto r = simulation.collectResult();
        std::printf("  len %2u: %8llu cycles, fabric coverage %.1f%%\n",
                    len, static_cast<unsigned long long>(r.cycles),
                    100.0 * double(r.instsFabric) / double(r.instsTotal));
    }
    return 0;
}
