/**
 * @file
 * Property-based cross-product tests: every workload under every
 * DynaSpAM configuration must satisfy the simulator's global invariants —
 * functional correctness against the golden model, exact instruction
 * accounting, consistent framework statistics, and physically sensible
 * energy numbers.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "isa/executor.hh"
#include "sim/simulation.hh"
#include "workloads/workload.hh"

using namespace dynaspam;
using namespace dynaspam::sim;

namespace
{

using Param = std::tuple<std::string, SystemMode>;

std::vector<Param>
allCombinations()
{
    std::vector<Param> out;
    for (const auto &name : workloads::allWorkloadNames()) {
        for (SystemMode mode :
             {SystemMode::BaselineOoo, SystemMode::MappingOnly,
              SystemMode::AccelSpec, SystemMode::AccelNoSpec,
              SystemMode::AccelNaive}) {
            out.emplace_back(name, mode);
        }
    }
    return out;
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string s = std::get<0>(info.param);
    s += "_";
    s += modeName(std::get<1>(info.param));
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

} // namespace

class SystemInvariants : public ::testing::TestWithParam<Param>
{
  protected:
    RunResult
    runIt()
    {
        auto [name, mode] = GetParam();
        workloads::Workload wl = workloads::makeWorkload(name);
        Simulation simulation(
            SystemConfig::make(mode),
            SimInput::make(wl.program, wl.initialMemory));
        simulation.runToCompletion();
        RunResult r = simulation.collectResult();

        // Golden-model check on a fresh functional run (the timing model
        // consumes the same oracle, so this certifies the whole stack).
        mem::FunctionalMemory memory = wl.initialMemory;
        isa::Executor::run(wl.program, memory);
        EXPECT_TRUE(wl.validate(memory)) << name;
        return r;
    }
};

TEST_P(SystemInvariants, CompletesAndAccountingBalances)
{
    RunResult r = runIt();
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_GT(r.cycles, 0u);
    // Every dynamic instruction is attributed to exactly one engine.
    EXPECT_EQ(r.instsHost + r.instsMapping + r.instsFabric, r.instsTotal);
    // IPC stays within the physical bounds of the machine.
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.ipc(), 16.0);
}

TEST_P(SystemInvariants, FrameworkStatsAreConsistent)
{
    auto [name, mode] = GetParam();
    RunResult r = runIt();

    const auto &d = r.dynaspam;
    if (mode == SystemMode::BaselineOoo) {
        EXPECT_EQ(d.mappingsStarted, 0u);
        EXPECT_EQ(r.instsFabric, 0u);
        EXPECT_EQ(r.instsMapping, 0u);
        return;
    }
    EXPECT_LE(d.mappingsCompleted + d.mappingsAborted +
                  d.mappingsDiscarded,
              d.mappingsStarted + 1);
    EXPECT_GE(d.mappingsStarted,
              d.mappingsCompleted + d.mappingsDiscarded);
    if (mode == SystemMode::MappingOnly) {
        EXPECT_EQ(d.invocationsCommitted, 0u);
        EXPECT_EQ(r.instsFabric, 0u);
    }
    if (r.instsFabric > 0) {
        EXPECT_GT(d.invocationsCommitted, 0u);
        EXPECT_GT(d.distinctMappedTraces, 0u);
        EXPECT_GE(d.distinctMappedTraces, d.distinctOffloadedTraces);
    }
}

TEST_P(SystemInvariants, EnergyIsPhysical)
{
    auto [name, mode] = GetParam();
    RunResult r = runIt();
    EXPECT_GT(r.energyTotal(), 0.0);
    for (const auto &[comp, value] : r.energy.component)
        EXPECT_GE(value, 0.0) << comp;
    if (mode == SystemMode::BaselineOoo) {
        EXPECT_DOUBLE_EQ(r.energy.component.at("Fabric"), 0.0);
    } else if (r.instsFabric > 0) {
        EXPECT_GT(r.energy.component.at("Fabric"), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllModes, SystemInvariants,
                         ::testing::ValuesIn(allCombinations()),
                         paramName);
