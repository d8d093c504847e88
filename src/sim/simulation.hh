/**
 * @file
 * Stateful cycle-level simulation over a shared immutable SimInput.
 *
 * A Simulation runs a program's timing pass in construct / tick /
 * collect phases, so a run can be paused, snapshotted, restored and
 * resumed. Constructing one and calling runToCompletion() then
 * collectResult() is the straight one-shot run; snapshot() and
 * restore() fork it without changing a report byte.
 */

#ifndef DYNASPAM_SIM_SIMULATION_HH
#define DYNASPAM_SIM_SIMULATION_HH

#include <memory>

#include "check/check.hh"
#include "check/verifier.hh"
#include "core/controller.hh"
#include "memory/cache.hh"
#include "ooo/cpu.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"

namespace dynaspam::sim
{

/**
 * One in-progress simulation of a SimInput under a SystemConfig.
 * Non-copyable; share the SimInput, not the Simulation.
 */
class Simulation
{
  public:
    Simulation(const SystemConfig &config,
               std::shared_ptr<const SimInput> input);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Advance one cycle. */
    void tick() { cpu.tick(); }

    /** @return true when every oracle record has committed. */
    bool done() const { return cpu.done(); }

    Cycle now() const { return cpu.now(); }

    /** Program instructions committed so far (fabric blocks included). */
    std::uint64_t
    committedInsts() const
    {
        return cpu.stats().committedInsts;
    }

    const SimInput &simInput() const { return *input; }
    const SystemConfig &config() const { return cfg; }

    /** Attach a forked-sweep warmup divergence guard (needs a DynaSpAM
     *  controller; no-op for baseline configurations). */
    void
    setWarmupGuard(core::WarmupGuard *g)
    {
        if (controller)
            controller->setWarmupGuard(g);
    }

    /** Capture the complete mutable state into @p out (reuses whatever
     *  capacity @p out already holds). */
    void snapshot(Snapshot &out) const;

    /**
     * Restore a snapshot taken by a Simulation over the very same
     * SimInput object with the same structural geometry. The DynaSpAM
     * knobs may differ (forked sweeps); fatal on input mismatch or on a
     * controller/verifier presence mismatch.
     */
    void restore(const Snapshot &in);

    /**
     * @return true when @p in can be restored here: same SimInput
     * object, same component presence, and every component's fits()
     * (table geometry, index scalars). restore() assumes it; a decoded
     * snapshot is checked with it before being trusted.
     */
    bool fits(const Snapshot &in) const;

    /** Drive the simulation until every record has committed. */
    void
    runToCompletion()
    {
        while (!cpu.done())
            cpu.tick();
    }

    /**
     * Assemble the RunResult from the current state. Call exactly once,
     * at the point the run stops: completion for full-fidelity runs, or
     * the sampling stop point for sampled ones (the golden-model
     * completeness check only runs when the trace fully committed).
     */
    RunResult collectResult();

  private:
    SystemConfig cfg;
    std::shared_ptr<const SimInput> input;

    mem::MemoryHierarchy hierarchy;
    ooo::OooCpu cpu;
    std::unique_ptr<core::DynaSpamController> controller;

    check::ViolationSink sink;      // aborts on any violation
    std::unique_ptr<check::Verifier> verifier;
};

} // namespace dynaspam::sim

#endif // DYNASPAM_SIM_SIMULATION_HH
