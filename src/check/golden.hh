/**
 * @file
 * Golden-model differential validation (the paper's core claim,
 * machine-checked): a tiny in-order functional interpreter for the
 * micro-ISA, run in lockstep against the committed-instruction stream
 * of the OOO pipeline + fabric.
 *
 * The timing model is oracle-directed — it consumes a pre-resolved
 * DynamicTrace — so two distinct things are validated here:
 *
 *  1. The oracle trace itself: every record's pc/nextPc/effAddr/taken
 *     must match an independent re-execution (GoldenModel is a second
 *     implementation of the ISA semantics, deliberately separate from
 *     isa::Executor).
 *  2. The commit stream: the pipeline (with trace invocations
 *     committing fat atomic blocks via ROB') must retire exactly the
 *     record sequence 0,1,2,... in order, exactly once — i.e. fabric
 *     offload is observationally equivalent to host OOO execution.
 *
 * On first divergence the checker dumps a window of recent commits
 * with disassembly and golden-vs-trace state so the failure is
 * debuggable, then reports through the ViolationSink.
 */

#ifndef DYNASPAM_CHECK_GOLDEN_HH
#define DYNASPAM_CHECK_GOLDEN_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>

#include "check/check.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "isa/trace.hh"
#include "memory/functional_mem.hh"

namespace dynaspam::check
{

/** Architectural effect of one golden-model step. */
struct GoldenEffect
{
    InstAddr pc = 0;
    InstAddr nextPc = 0;
    bool taken = false;         ///< control ops only
    bool isMem = false;
    Addr effAddr = 0;           ///< memory ops only
    RegIndex dest = REG_INVALID;
    std::uint64_t destValue = 0;
    bool halted = false;
};

/**
 * The in-order functional reference interpreter. Holds its own
 * register file and a private copy of memory; steps one instruction
 * at a time from its own PC.
 */
class GoldenModel
{
  public:
    GoldenModel(const isa::Program &program,
                const mem::FunctionalMemory &initial_memory);

    /** Execute the instruction at the current PC. */
    GoldenEffect step();

    InstAddr pc() const { return state.curPc; }
    bool halted() const { return state.isHalted; }
    std::uint64_t reg(RegIndex index) const { return state.regs.at(index); }
    const mem::FunctionalMemory &memory() const { return state.mem; }

    /** Complete interpreter state, held live as `state` (the memory
     *  copy is a deep copy). */
    struct SavedState
    {
        mem::FunctionalMemory mem;
        std::array<std::uint64_t, isa::NUM_ARCH_REGS> regs{};
        InstAddr curPc = 0;
        bool isHalted = false;

        DYNASPAM_FIELDS(SavedState, mem, regs, curPc, isHalted)

        bool operator==(const SavedState &) const = default;
    };

    void save(SavedState &out) const { out = state; }
    void restore(const SavedState &in) { state = in; }

  private:
    const isa::Program &prog;
    SavedState state;
};

/**
 * Lockstep commit-stream checker. Feed it every commit (host
 * instructions one record at a time, fabric invocations as atomic
 * blocks); it steps the golden model per record and diffs.
 */
class LockstepChecker
{
  public:
    /** Number of recent commits kept for the divergence dump. */
    static constexpr std::size_t windowSize = 32;

    LockstepChecker(const isa::DynamicTrace &trace,
                    const mem::FunctionalMemory &initial_memory,
                    ViolationSink &sink);

    /**
     * Records [first_idx, first_idx + count) committed atomically at
     * @p now. @p via_fabric marks fat trace-invocation commits.
     */
    void onCommit(SeqNum first_idx, std::uint32_t count, bool via_fabric,
                  Cycle now);

    /** End of run: every trace record must have committed. */
    void finish(Cycle now);

    /** Next record index the checker expects to commit. */
    SeqNum expected() const { return state.nextIdx; }

    std::uint64_t commitsChecked() const { return state.checked; }

    /** Dump the recent-commit window (also done on divergence). */
    void dumpWindow(std::ostream &os) const;

  private:
    struct CommitEvent
    {
        SeqNum idx = 0;
        InstAddr pc = 0;
        bool viaFabric = false;
        Cycle cycle = 0;

        DYNASPAM_FIELDS(CommitEvent, idx, pc, viaFabric, cycle)

        bool operator==(const CommitEvent &) const = default;
    };

  public:
    /** The checker's own mutable state, held live as `state`: the
     *  commit cursor and the divergence-dump window. */
    struct State
    {
        SeqNum nextIdx = 0;
        std::uint64_t checked = 0;
        bool dead = false;          ///< stop after first divergence
        std::deque<CommitEvent> window;

        DYNASPAM_FIELDS(State, nextIdx, checked, dead, window)

        bool operator==(const State &) const = default;
    };

    /** Complete checker state: the golden model's plus its own. */
    struct SavedState
    {
        GoldenModel::SavedState golden;
        State state;

        DYNASPAM_FIELDS(SavedState, golden, state)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when @p in's commit cursor lies within the trace
     *  and the golden model's PC within the program. */
    bool
    fits(const SavedState &in) const
    {
        return in.state.nextIdx <= trace.size() &&
               in.golden.curPc < trace.program().size();
    }

    void
    save(SavedState &out) const
    {
        golden.save(out.golden);
        out.state = state;
    }

    void
    restore(const SavedState &in)
    {
        golden.restore(in.golden);
        state = in.state;
    }

  private:

    void checkRecord(SeqNum idx, bool via_fabric, Cycle now);
    void diverged(SeqNum idx, Cycle now, const std::string &what);

    const isa::DynamicTrace &trace;
    GoldenModel golden;
    ViolationSink &sink;
    State state;
};

} // namespace dynaspam::check

#endif // DYNASPAM_CHECK_GOLDEN_HH
