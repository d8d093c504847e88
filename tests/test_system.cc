/**
 * @file
 * End-to-end tests of the full DynaSpAM system: trace detection, mapping
 * and offloading on hot loops, across the named configurations.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "memory/functional_mem.hh"
#include "sim/simulation.hh"

using namespace dynaspam;
using namespace dynaspam::sim;
using isa::fpReg;
using isa::intReg;

namespace
{

/**
 * A hot, well-predicted loop with three conditional branches per
 * iteration (the shape DynaSpAM's 3-branch traces are built for) and a
 * dataflow body: a multiply-accumulate over memory.
 */
isa::Program
hotLoop(int trips = 2000)
{
    isa::ProgramBuilder b("hotloop");
    b.movi(intReg(1), 0);           // i
    b.movi(intReg(2), trips);       // n
    b.movi(intReg(3), 0x10000);     // src array
    b.movi(intReg(4), 0x40000);     // dst array
    b.movi(intReg(7), 0);           // never-equal guard
    b.movi(intReg(8), 0);           // acc
    b.label("head");
    b.beq(intReg(7), intReg(2), "skip1");    // branch 1, never taken
    b.ld(intReg(9), intReg(3), 0);           // load a[i]
    b.label("skip1");
    b.beq(intReg(7), intReg(2), "skip2");    // branch 2, never taken
    b.mul(intReg(10), intReg(9), intReg(9));
    b.add(intReg(8), intReg(8), intReg(10));
    b.st(intReg(4), intReg(8), 0);           // store acc
    b.label("skip2");
    b.addi(intReg(3), intReg(3), 8);
    b.addi(intReg(4), intReg(4), 8);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");     // branch 3, taken
    b.halt();
    return b.build();
}

/**
 * A wide-bodied hot loop: ~20 instructions per iteration with several
 * independent FP chains. The host pipeline is fetch/issue bound here
 * (taken branch each iteration, 8-wide front end), while the fabric
 * pipelines invocations at the short induction-variable II — the
 * scenario DynaSpAM accelerates.
 */
isa::Program
wideLoop(int trips = 2000)
{
    isa::ProgramBuilder b("wideloop");
    b.movi(intReg(1), 0);           // i
    b.movi(intReg(2), trips);
    b.movi(intReg(3), 0x10000);     // a[]
    b.movi(intReg(4), 0x80000);     // b[]
    b.movi(intReg(5), 0x100000);    // out[]
    b.movi(intReg(7), 0);
    b.label("head");
    b.beq(intReg(7), intReg(2), "s1");       // branch 1, never taken
    b.fld(fpReg(1), intReg(3), 0);
    b.fld(fpReg(2), intReg(4), 0);
    b.fmul(fpReg(3), fpReg(1), fpReg(2));
    b.label("s1");
    b.beq(intReg(7), intReg(2), "s2");       // branch 2, never taken
    b.fld(fpReg(4), intReg(3), 8);
    b.fld(fpReg(5), intReg(4), 8);
    b.fmul(fpReg(6), fpReg(4), fpReg(5));
    b.fadd(fpReg(7), fpReg(3), fpReg(6));
    b.fst(intReg(5), fpReg(7), 0);
    b.label("s2");
    b.addi(intReg(10), intReg(1), 7);
    b.shli(intReg(11), intReg(10), 1);
    b.xor_(intReg(12), intReg(11), intReg(10));
    b.addi(intReg(3), intReg(3), 16);
    b.addi(intReg(4), intReg(4), 16);
    b.addi(intReg(5), intReg(5), 8);
    b.addi(intReg(1), intReg(1), 1);
    b.blt(intReg(1), intReg(2), "head");     // branch 3, taken
    b.halt();
    return b.build();
}

/** Simulate @p program from empty memory to completion under @p cfg. */
RunResult
simulate(const isa::Program &program, const SystemConfig &cfg)
{
    Simulation simulation(cfg,
                          SimInput::make(program, mem::FunctionalMemory{}));
    simulation.runToCompletion();
    return simulation.collectResult();
}

} // namespace

TEST(SystemBaseline, RunsToCompletion)
{
    isa::Program p = hotLoop(500);
    auto r = simulate(p, SystemConfig::make(SystemMode::BaselineOoo));
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.instsFabric, 0u);
    EXPECT_EQ(r.instsMapping, 0u);
    EXPECT_EQ(r.instsHost, r.instsTotal);
}

TEST(SystemDetection, HotLoopGetsDetectedAndMapped)
{
    isa::Program p = hotLoop(2000);
    auto r = simulate(p, SystemConfig::make(SystemMode::MappingOnly));
    EXPECT_GE(r.dynaspam.mappingsStarted, 1u);
    EXPECT_GE(r.dynaspam.mappingsCompleted, 1u);
    EXPECT_GE(r.dynaspam.distinctMappedTraces, 1u);
    // Mapping-only never offloads.
    EXPECT_EQ(r.instsFabric, 0u);
    EXPECT_GT(r.instsMapping, 0u);
}

TEST(SystemDetection, MappingOverheadIsSmall)
{
    isa::Program p = hotLoop(2000);
    auto rb = simulate(p, SystemConfig::make(SystemMode::BaselineOoo));
    auto rm = simulate(p, SystemConfig::make(SystemMode::MappingOnly));
    // Paper: mapping overhead below 3%; allow a bit of slack here.
    EXPECT_LT(double(rm.cycles), double(rb.cycles) * 1.06)
        << "mapping-only should cost only a few percent over baseline";
}

TEST(SystemOffload, HotLoopExecutesOnFabric)
{
    isa::Program p = hotLoop(2000);
    auto r = simulate(p, SystemConfig::make(SystemMode::AccelSpec));
    EXPECT_GE(r.dynaspam.invocationsCommitted, 10u);
    EXPECT_GT(r.instsFabric, r.instsTotal / 4)
        << "the hot loop should mostly run on the fabric";
    EXPECT_TRUE(r.functionallyCorrect);
}

TEST(SystemOffload, WideBodyLoopAccelerates)
{
    isa::Program p = wideLoop(3000);
    auto rb = simulate(p, SystemConfig::make(SystemMode::BaselineOoo));
    auto ra = simulate(p, SystemConfig::make(SystemMode::AccelSpec));
    EXPECT_LT(ra.cycles, rb.cycles)
        << "fetch/issue-bound loop should beat the host pipeline";
}

TEST(SystemOffload, ChainBoundLoopAtLeastTiesBaseline)
{
    // The narrow accumulator loop is bound by a serial dependence chain
    // on both engines: the fabric should be within a few percent.
    isa::Program p = hotLoop(4000);
    auto rb = simulate(p, SystemConfig::make(SystemMode::BaselineOoo));
    auto ra = simulate(p, SystemConfig::make(SystemMode::AccelSpec));
    EXPECT_LT(double(ra.cycles), double(rb.cycles) * 1.05);
}

TEST(SystemOffload, EnergyDropsWithAcceleration)
{
    isa::Program p = hotLoop(4000);
    auto rb = simulate(p, SystemConfig::make(SystemMode::BaselineOoo));
    auto ra = simulate(p, SystemConfig::make(SystemMode::AccelSpec));
    EXPECT_LT(ra.energyTotal(), rb.energyTotal());
    // The savings come from the front end and scheduling.
    EXPECT_LT(ra.energy.component.at("Fetch"),
              rb.energy.component.at("Fetch"));
    EXPECT_LT(ra.energy.component.at("InstSchedule"),
              rb.energy.component.at("InstSchedule"));
    // The fabric consumes energy only in the accelerated system.
    EXPECT_GT(ra.energy.component.at("Fabric"), 0.0);
    EXPECT_EQ(rb.energy.component.at("Fabric"), 0.0);
}

TEST(SystemOffload, NoSpecModeStillWorks)
{
    isa::Program p = hotLoop(2000);
    auto r = simulate(p, SystemConfig::make(SystemMode::AccelNoSpec));
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_GE(r.dynaspam.invocationsCommitted, 1u);
}

TEST(SystemOffload, NaiveMapperStillProducesConfigs)
{
    isa::Program p = hotLoop(2000);
    auto r = simulate(p, SystemConfig::make(SystemMode::AccelNaive));
    EXPECT_TRUE(r.functionallyCorrect);
    // The naive mapper should usually manage this simple trace.
    EXPECT_GE(r.dynaspam.mappingsCompleted, 1u);
}

TEST(SystemOffload, TraceLengthSweepIsMonotoneInDetection)
{
    isa::Program p = hotLoop(2000);
    for (unsigned len : {16u, 24u, 32u, 40u}) {
        auto r =
            simulate(p, SystemConfig::make(SystemMode::AccelSpec, len));
        EXPECT_TRUE(r.functionallyCorrect) << "trace length " << len;
    }
}

TEST(SystemOffload, MultiFabricRunsAndTracksLifetime)
{
    isa::Program p = hotLoop(2000);
    for (unsigned fabrics : {1u, 2u, 4u}) {
        auto r = simulate(
            p, SystemConfig::make(SystemMode::AccelSpec, 32, fabrics));
        EXPECT_TRUE(r.functionallyCorrect) << fabrics << " fabrics";
        if (r.dynaspam.invocationsCommitted > 0) {
            EXPECT_GT(r.dynaspam.avgConfigLifetime(), 0.0);
        }
    }
}

TEST(SystemOffload, InstructionAccountingIsConsistent)
{
    isa::Program p = hotLoop(1500);
    auto r = simulate(p, SystemConfig::make(SystemMode::AccelSpec));
    EXPECT_EQ(r.instsHost + r.instsMapping + r.instsFabric, r.instsTotal);
}
