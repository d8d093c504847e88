/**
 * @file
 * Domain example: bringing your own kernel to DynaSpAM.
 *
 * Shows the full user workflow for a new workload: write a kernel with
 * the ProgramBuilder (here, a branchy saturating pixel transform),
 * initialize data memory, verify functional correctness against a C++
 * reference, then measure how the DynaSpAM framework handles it —
 * including what limits offloading for branchy code.
 *
 *   ./build/examples/custom_kernel
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/random.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/functional_mem.hh"
#include "sim/simulation.hh"

using namespace dynaspam;
using isa::intReg;

int
main()
{
    constexpr Addr src_base = 0x10000, dst_base = 0x80000;
    constexpr int n = 4000;
    constexpr std::int64_t bias = 37, cap = 200;

    // --- Data + C++ reference --------------------------------------------
    Rng rng(42);
    mem::FunctionalMemory init;
    std::vector<std::int64_t> expect(n);
    for (int i = 0; i < n; i++) {
        std::int64_t pixel = std::int64_t(rng.below(256));
        init.write64(src_base + 8 * Addr(i), std::uint64_t(pixel));
        expect[i] = std::min(pixel + bias, cap);    // saturating add
    }

    // --- The kernel ---------------------------------------------------------
    isa::ProgramBuilder b("saturate");
    b.movi(intReg(1), 0);            // i
    b.movi(intReg(2), n);
    b.movi(intReg(3), src_base);
    b.movi(intReg(4), dst_base);
    b.movi(intReg(5), bias);
    b.movi(intReg(6), cap);
    b.label("loop");
    b.ld(intReg(7), intReg(3), 0);
    b.add(intReg(7), intReg(7), intReg(5));
    b.blt(intReg(7), intReg(6), "no_clip");     // data-dependent!
    b.mov(intReg(7), intReg(6));
    b.label("no_clip");
    b.st(intReg(4), intReg(7), 0);
    b.addi(intReg(3), intReg(3), 8);
    b.addi(intReg(4), intReg(4), 8);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "loop");
    b.halt();
    isa::Program program = b.build();

    // --- Functional check -----------------------------------------------------
    mem::FunctionalMemory memory = init;
    auto fr = isa::Executor::run(program, memory);
    bool ok = fr.halted;
    for (int i = 0; ok && i < n; i++)
        ok = std::int64_t(memory.read64(dst_base + 8 * Addr(i))) ==
             expect[i];
    std::printf("functional check : %s (%llu insts)\n",
                ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(fr.instCount));
    if (!ok)
        return 1;

    // --- Timing: baseline vs DynaSpAM ------------------------------------------
    auto input = sim::SimInput::make(program, init);
    sim::Simulation base_sim(
        sim::SystemConfig::make(sim::SystemMode::BaselineOoo), input);
    sim::Simulation accel_sim(
        sim::SystemConfig::make(sim::SystemMode::AccelSpec), input);
    base_sim.runToCompletion();
    accel_sim.runToCompletion();
    auto base = base_sim.collectResult();
    auto accel = accel_sim.collectResult();

    std::printf("baseline         : %llu cycles\n",
                static_cast<unsigned long long>(base.cycles));
    std::printf("dynaspam         : %llu cycles (%.2fx)\n",
                static_cast<unsigned long long>(accel.cycles),
                double(base.cycles) / double(accel.cycles));
    std::printf("fabric coverage  : %.1f%%\n",
                100.0 * double(accel.instsFabric) /
                    double(accel.instsTotal));
    std::printf("squashed invokes : %llu  <- the clip branch is data "
                "dependent, so traces built for one\n",
                static_cast<unsigned long long>(
                    accel.dynaspam.invocationsSquashed));
    std::printf("                   outcome squash when the other occurs "
                "(clip rate here: %.0f%%)\n",
                100.0 * double(std::count_if(expect.begin(), expect.end(),
                                             [&](std::int64_t v) {
                                                 return v == cap;
                                             })) /
                    double(n));
    return 0;
}
