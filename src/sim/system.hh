/**
 * @file
 * System configurations and run results.
 *
 * A SystemConfig wires the cache hierarchy, OOO CPU, DynaSpAM
 * controller and energy model together; a sim::Simulation
 * (sim/simulation.hh) runs one program under it and collects a
 * RunResult. The paper's named configurations:
 *
 *  - BaselineOoo: the 8-issue OOO pipeline of Table 4, no DynaSpAM
 *  - MappingOnly: traces are detected and mapped but never offloaded
 *    (isolates the mapping overhead, Figure 8 "mapping")
 *  - AccelNoSpec: mapping + acceleration, fabric memory ops conservative
 *    (Figure 8 "mapping + acceleration w/o speculation")
 *  - AccelSpec: mapping + acceleration with memory speculation
 *    (Figure 8 "mapping + acceleration w/ speculation")
 *  - AccelNaive: like AccelSpec but with the naive in-order mapper
 *    (ablation of the resource-aware scheduler)
 */

#ifndef DYNASPAM_SIM_SYSTEM_HH
#define DYNASPAM_SIM_SYSTEM_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "core/controller.hh"
#include "energy/energy.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/cpu.hh"

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::sim
{

/** Named system configurations from the evaluation. */
enum class SystemMode : std::uint8_t
{
    BaselineOoo,
    MappingOnly,
    AccelNoSpec,
    AccelSpec,
    AccelNaive,
};

/** @return a short display name for @p mode. */
const char *modeName(SystemMode mode);

/** Full system configuration. */
struct SystemConfig
{
    SystemMode mode = SystemMode::BaselineOoo;
    ooo::OooParams ooo;
    core::DynaSpamParams dynaspam;
    energy::EnergyParams energy;
    mem::MemoryHierarchy::Params memory;

    /** Optional event-trace sink (not owned; may be nullptr). Attached
     *  to the pipeline, controller and fabrics for the timing pass. */
    trace::TraceSink *traceSink = nullptr;

    /** Build the canonical configuration for @p mode with the given
     *  trace length and fabric count. */
    static SystemConfig make(SystemMode mode, unsigned trace_length = 32,
                             unsigned num_fabrics = 1);
};

/** Everything a run produces. */
struct RunResult
{
    Cycle cycles = 0;
    ooo::PipelineStats pipeline;
    core::DynaSpamStats dynaspam;
    energy::EnergyBreakdown energy;
    StatRegistry stats;

    std::uint64_t instsTotal = 0;
    std::uint64_t instsMapping = 0;   ///< executed during mapping phases
    std::uint64_t instsFabric = 0;    ///< committed via fabric invocations
    std::uint64_t instsHost = 0;      ///< remaining host-committed

    bool functionallyCorrect = false; ///< final regs match reference run

    /** Commits diffed against the golden model (0 when the
     *  verification layer was not enabled for the run). */
    std::uint64_t commitsChecked = 0;

    /** Sampled-fidelity marker: when set, `cycles` is extrapolated from
     *  a detailed warmup+window prefix and the pipeline/energy stats
     *  cover only that prefix. Full-fidelity results never set this, so
     *  their serialized form is unchanged. */
    bool sampled = false;
    std::uint64_t sampledInsts = 0;     ///< detailed commits simulated
    std::uint64_t sampledCycles = 0;    ///< detailed cycles simulated

    double ipc() const
    {
        return cycles ? double(instsTotal) / double(cycles) : 0.0;
    }
    double energyTotal() const { return energy.total(); }
};

} // namespace dynaspam::sim

#endif // DYNASPAM_SIM_SYSTEM_HH
