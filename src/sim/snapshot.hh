/**
 * @file
 * Simulator snapshots: the shared immutable input of a simulation and
 * the complete mutable state of a paused one.
 *
 * The timing model is oracle-directed, so everything a simulation reads
 * but never writes — the program, the initial data memory, the resolved
 * dynamic trace — lives in one immutable SimInput that can be shared
 * (and is shared, in forked sweeps) by any number of Simulation
 * instances. A Snapshot is then a structured deep copy of the mutable
 * half only: pipeline, caches, controller and (in checked runs)
 * verifier state. Restoring a Snapshot into a Simulation built over the
 * same SimInput and an equal configuration geometry is byte-identical
 * to never having paused: raw StaticInst/DynRecord pointers inside the
 * saved pipeline state stay valid because both sides reference the very
 * same SimInput object (asserted on restore).
 */

#ifndef DYNASPAM_SIM_SNAPSHOT_HH
#define DYNASPAM_SIM_SNAPSHOT_HH

#include <memory>
#include <optional>

#include "check/verifier.hh"
#include "common/fields.hh"
#include "core/controller.hh"
#include "isa/program.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "memory/functional_mem.hh"
#include "ooo/cpu.hh"

namespace dynaspam::sim
{

/**
 * The immutable input of a simulation: program, pristine initial data
 * memory, the oracle trace of the functional pass, and the functional
 * cross-check verdict. Built once per (program, memory) and shared —
 * the trace points into the program member, so the object is pinned on
 * the heap behind a shared_ptr and never copied or moved.
 */
class SimInput
{
    /** Passkey: locks the public constructor to make(). */
    struct Key
    {
        explicit Key() = default;
    };

  public:
    /** Constructor for make() only (the Key is private); use make(). */
    SimInput(Key, const isa::Program &program,
             const mem::FunctionalMemory &initial_memory)
        : prog(program), initMem(initial_memory), dynTrace(prog)
    {
    }

    /**
     * Run the functional (oracle) pass and package its products.
     * Fatal when the program does not halt. In checked builds the
     * functional cross-check re-executes the program; otherwise the
     * record count stands in (same rule System::run always applied).
     */
    static std::shared_ptr<const SimInput>
    make(const isa::Program &program,
         const mem::FunctionalMemory &initial_memory);

    SimInput(const SimInput &) = delete;
    SimInput &operator=(const SimInput &) = delete;

    const isa::Program &program() const { return prog; }
    const mem::FunctionalMemory &initialMemory() const { return initMem; }
    const isa::DynamicTrace &trace() const { return dynTrace; }
    bool functionallyCorrect() const { return funcCorrect; }

  private:
    isa::Program prog;
    mem::FunctionalMemory initMem;
    isa::DynamicTrace dynTrace;     ///< points at `prog`
    bool funcCorrect = false;
};

/**
 * Complete mutable state of a paused simulation. Restore requires a
 * Simulation over the same SimInput object with the same structural
 * geometry (cache shapes, pipeline parameters, trace length); the
 * DynaSpAM knobs themselves (offload enable, fabric memory
 * speculation, mapper kind, fabric count) may differ, which is what
 * forked sweeps exploit.
 */
struct Snapshot
{
    /** Identity of the input the state was captured over. */
    std::shared_ptr<const SimInput> input;

    ooo::OooCpu::SavedState cpu;
    mem::MemoryHierarchy::SavedState memory;
    /** Present when the saving simulation had a DynaSpAM controller. */
    std::optional<core::DynaSpamController::SavedState> controller;
    /** Present when the saving simulation ran under DYNASPAM_CHECKS. */
    std::optional<check::Verifier::SavedState> verifier;

    /** The input is bound by whoever restores or decodes a snapshot,
     *  never stored with it. */
    template <typename V>
    static constexpr void
    fields(V &v)
    {
        v("input", &Snapshot::input, fields::derived);
        v("cpu", &Snapshot::cpu);
        v("memory", &Snapshot::memory);
        v("controller", &Snapshot::controller);
        v("verifier", &Snapshot::verifier);
    }
};

} // namespace dynaspam::sim

#endif // DYNASPAM_SIM_SNAPSHOT_HH
