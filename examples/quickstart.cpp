/**
 * @file
 * Quickstart: build a tiny hot-loop program with the ProgramBuilder, run
 * it on the baseline OOO pipeline and on the full DynaSpAM system, and
 * print what the framework did (detection, mapping, offloading) plus the
 * performance and energy deltas.
 *
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "isa/program.hh"
#include "memory/functional_mem.hh"
#include "sim/simulation.hh"

using namespace dynaspam;
using isa::intReg;

int
main()
{
    // --- 1. Write a program against the micro-ISA ------------------------
    // A dot-product-flavoured hot loop: two loads, a multiply-accumulate,
    // pointer updates, and a loop branch.
    isa::ProgramBuilder b("quickstart");
    b.movi(intReg(1), 0);           // i = 0
    b.movi(intReg(2), 5000);        // n
    b.movi(intReg(3), 0x10000);     // a[]
    b.movi(intReg(4), 0x80000);     // b[]
    b.movi(intReg(8), 0);           // acc
    b.movi(intReg(7), 0);           // constant 0 (guard)
    b.label("loop");
    b.beq(intReg(7), intReg(2), "skip");    // never taken
    b.ld(intReg(9), intReg(3), 0);
    b.ld(intReg(10), intReg(4), 0);
    b.mul(intReg(11), intReg(9), intReg(10));
    b.beq(intReg(7), intReg(2), "skip");    // never taken
    b.add(intReg(8), intReg(8), intReg(11));
    b.label("skip");
    b.addi(intReg(3), intReg(3), 8);
    b.addi(intReg(4), intReg(4), 8);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "loop");
    b.halt();
    isa::Program program = b.build();

    // The functional (oracle) pass runs once; every timing run shares it.
    auto input = sim::SimInput::make(program, mem::FunctionalMemory{});

    // --- 2. Run it on the baseline 8-issue OOO pipeline ------------------
    sim::Simulation baseline(
        sim::SystemConfig::make(sim::SystemMode::BaselineOoo), input);
    baseline.runToCompletion();
    auto base = baseline.collectResult();
    std::printf("baseline OOO : %8llu cycles  (IPC %.2f, %.1f nJ)\n",
                static_cast<unsigned long long>(base.cycles), base.ipc(),
                base.energyTotal() / 1e3);

    // --- 3. Run it with DynaSpAM attached ---------------------------------
    sim::Simulation dynaspam_sim(
        sim::SystemConfig::make(sim::SystemMode::AccelSpec), input);
    dynaspam_sim.runToCompletion();
    auto accel = dynaspam_sim.collectResult();
    std::printf("with DynaSpAM: %8llu cycles  (IPC %.2f, %.1f nJ)\n",
                static_cast<unsigned long long>(accel.cycles), accel.ipc(),
                accel.energyTotal() / 1e3);

    // --- 4. What happened inside ------------------------------------------
    const auto &d = accel.dynaspam;
    std::printf("\ntraces mapped     : %llu\n",
                static_cast<unsigned long long>(d.distinctMappedTraces));
    std::printf("invocations run   : %llu (%llu squashed)\n",
                static_cast<unsigned long long>(d.invocationsCommitted),
                static_cast<unsigned long long>(d.invocationsSquashed));
    std::printf("insts on fabric   : %llu of %llu (%.1f%%)\n",
                static_cast<unsigned long long>(accel.instsFabric),
                static_cast<unsigned long long>(accel.instsTotal),
                100.0 * double(accel.instsFabric) /
                    double(accel.instsTotal));
    std::printf("speedup           : %.2fx\n",
                double(base.cycles) / double(accel.cycles));
    std::printf("energy reduction  : %.1f%%\n",
                100.0 * (1.0 - accel.energyTotal() / base.energyTotal()));
    return 0;
}
