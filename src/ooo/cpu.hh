/**
 * @file
 * Cycle-level out-of-order superscalar CPU timing model.
 *
 * Timing-directed, oracle-functional: the CPU consumes a pre-computed
 * DynamicTrace (resolved branch outcomes and effective addresses) and
 * simulates the pipeline cycle by cycle — fetch with branch prediction,
 * rename onto a unified physical register file, dispatch into ROB/IQ/LSQ,
 * wakeup-select issue with a pluggable priority policy, functional-unit
 * timing, store-set memory dependence speculation with violation squash
 * and replay, and in-order commit.
 *
 * Branch mispredictions are modelled as front-end stalls until the branch
 * resolves plus a redirect penalty (wrong-path instructions do not execute,
 * which is the standard approximation in trace-driven simulation). Memory
 * order violations squash and replay the oracle trace from the violating
 * load.
 */

#ifndef DYNASPAM_OOO_CPU_HH
#define DYNASPAM_OOO_CPU_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "ooo/bpred.hh"
#include "ooo/dyninst.hh"
#include "ooo/hooks.hh"
#include "ooo/params.hh"
#include "ooo/policy.hh"
#include "ooo/storesets.hh"

namespace dynaspam::check
{
class OooAuditor;
class FaultInjector;
} // namespace dynaspam::check

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::ooo
{

/**
 * Observer of architectural commits and cycle boundaries. Installed by
 * the verification layer (src/check) in checked runs; a null observer
 * costs one predictable branch per commit/cycle.
 */
class CommitObserver
{
  public:
    virtual ~CommitObserver() = default;

    /** Oracle records [first_idx, first_idx+count) committed atomically.
     *  @p via_fabric marks fat trace-invocation (ROB') commits. */
    virtual void onCommit(SeqNum first_idx, std::uint32_t count,
                          bool via_fabric, Cycle now) = 0;

    /** All pipeline stages of cycle @p now have run. */
    virtual void onCycleEnd(Cycle now) = 0;
};

/** Aggregate timing/energy-relevant event counts for one simulation. */
struct PipelineStats
{
    std::uint64_t cycles = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t renamedInsts = 0;
    std::uint64_t dispatchedInsts = 0;
    std::uint64_t issuedInsts = 0;
    std::uint64_t committedInsts = 0;   ///< program insts (incl. offloaded)
    std::uint64_t committedOnHost = 0;  ///< committed via the host back-end
    std::uint64_t squashedInsts = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t memOrderViolations = 0;
    std::uint64_t regReads = 0;
    std::uint64_t regWrites = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t iqWakeups = 0;
    std::uint64_t fuOps[unsigned(isa::FuType::NUM_FU_TYPES)] = {};
    std::uint64_t loadForwards = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t robWrites = 0;
    std::uint64_t robReads = 0;
    std::uint64_t invocationsCommitted = 0;
    std::uint64_t invocationsSquashed = 0;
    std::uint64_t mappingInstsExecuted = 0;

    DYNASPAM_FIELDS(PipelineStats, cycles, fetchedInsts, renamedInsts,
                    dispatchedInsts, issuedInsts, committedInsts,
                    committedOnHost, squashedInsts, branchMispredicts,
                    memOrderViolations, regReads, regWrites, bypasses,
                    iqWakeups, fuOps, loadForwards, icacheAccesses,
                    dcacheAccesses, robWrites, robReads, invocationsCommitted,
                    invocationsSquashed, mappingInstsExecuted)

    bool operator==(const PipelineStats &) const = default;
};

/**
 * The out-of-order CPU. One instance simulates one complete program run
 * over a given oracle trace.
 */
class OooCpu
{
  public:
    /**
     * @param params pipeline configuration (Table 4 defaults)
     * @param trace oracle dynamic trace to simulate
     * @param hierarchy cache hierarchy (timing only)
     */
    OooCpu(const OooParams &params, const isa::DynamicTrace &trace,
           mem::MemoryHierarchy &hierarchy);
    ~OooCpu();

    OooCpu(const OooCpu &) = delete;
    OooCpu &operator=(const OooCpu &) = delete;

    /** Attach the DynaSpAM controller (nullptr detaches). */
    void setHooks(TraceHooks *hooks) { traceHooks = hooks; }

    /** Attach a commit/cycle observer (nullptr detaches). Used by the
     *  verification layer for golden-model lockstep and auditing. */
    void setCommitObserver(CommitObserver *obs) { observer = obs; }

    /** Attach an event-trace sink (nullptr detaches). The sink records
     *  one event per committed or squashed ROB entry, from timestamps
     *  the pipeline tracks anyway — attaching it cannot perturb timing. */
    void setTraceSink(trace::TraceSink *sink) { tsink = sink; }

    /**
     * Replace the issue-select policy for the whole run (ablation and
     * test use; DynaSpAM installs its policy per mapping phase through
     * the hooks instead). Pass nullptr to restore oldest-first.
     */
    void
    setSelectPolicyForTesting(SelectPolicy *policy)
    {
        activePolicy = policy ? policy : &defaultPolicy;
    }

    /** Run until the whole trace commits. @return total cycles. */
    Cycle run();

    /** Advance one cycle (exposed for unit tests). */
    void tick();

    /** @return true when every oracle record has committed. */
    bool done() const { return commitIdx >= trace.size(); }

    Cycle now() const { return curCycle; }
    const PipelineStats &stats() const { return pstats; }
    BranchPredictor &branchPredictor() { return bpred; }
    StoreSetPredictor &storeSetPredictor() { return storeSets; }
    const OooParams &config() const { return params; }

    /** Export statistics into @p registry under the "ooo." prefix. */
    void exportStats(StatRegistry &registry) const;

    /** Dump pipeline occupancy and control state (debugging aid). */
    void dumpState(std::ostream &os) const;

  private:
    /** The invariant auditors inspect pipeline internals directly. */
    friend class dynaspam::check::OooAuditor;
    /** The fault-injection self-test seeds violations directly. */
    friend class dynaspam::check::FaultInjector;

    // --- Front-end entry awaiting rename ---
    struct FrontEndInst
    {
        SeqNum traceIdx = 0;
        Cycle readyAtRename = 0;    ///< models fetch/decode latency
        bool mispredicted = false;
        bool predictedTaken = false;
        RasCheckpoint rasCp;        ///< RAS state before this fetch
        bool mappingInst = false;   ///< part of a trace being mapped
        bool firstMappingInst = false;
        bool lastMappingInst = false;
        // Trace invocation pseudo-op (RobKind::TraceInvoke) fields.
        bool isInvocation = false;
        std::uint32_t numRecords = 0;
        std::vector<RegIndex> liveIns;
        std::vector<RegIndex> liveOuts;
        bool hasStores = false;

        DYNASPAM_FIELDS(FrontEndInst, traceIdx, readyAtRename, mispredicted,
                        predictedTaken, rasCp, mappingInst, firstMappingInst,
                        lastMappingInst, isInvocation, numRecords, liveIns,
                        liveOuts, hasStores)

        bool operator==(const FrontEndInst &) const = default;
    };

    /** Per-invocation rename/issue bookkeeping. */
    struct InvocationState
    {
        std::vector<RegIndex> liveInPhys;
        std::vector<RegIndex> liveOutArch;
        std::vector<RegIndex> liveOutPhys;
        std::vector<RegIndex> liveOutPrevPhys;
        bool hasStores = false;
        bool resolved = false;
        InvocationResult result;

        DYNASPAM_FIELDS(InvocationState, liveInPhys, liveOutArch, liveOutPhys,
                        liveOutPrevPhys, hasStores, resolved, result)

        bool operator==(const InvocationState &) const = default;
    };

    /**
     * Age-ordered slab of in-flight invocation states. Invocations
     * allocate at dispatch (strictly increasing seq), retire from the
     * front (in-order commit) and squash from the back, so a deque of
     * (seq, state) pairs replaces the former std::map: O(1) at both
     * ends, contiguous iteration, no per-node allocation.
     */
    class InvocationTable
    {
      public:
        using Entry = std::pair<SeqNum, InvocationState>;

        bool empty() const { return slots.empty(); }
        std::size_t size() const { return slots.size(); }
        auto begin() { return slots.begin(); }
        auto end() { return slots.end(); }
        auto begin() const { return slots.begin(); }
        auto end() const { return slots.end(); }

        InvocationState *
        find(SeqNum seq)
        {
            for (Entry &e : slots) {
                if (e.first == seq)
                    return &e.second;
                if (e.first > seq)
                    break;
            }
            return nullptr;
        }

        std::size_t
        count(SeqNum seq) const
        {
            for (const Entry &e : slots) {
                if (e.first == seq)
                    return 1;
                if (e.first > seq)
                    break;
            }
            return 0;
        }

        void
        emplace(SeqNum seq, InvocationState inv)
        {
            slots.emplace_back(seq, std::move(inv));
        }

        void
        erase(SeqNum seq)
        {
            if (!slots.empty() && slots.front().first == seq) {
                slots.pop_front();
            } else if (!slots.empty() && slots.back().first == seq) {
                slots.pop_back();
            } else {
                for (auto it = slots.begin(); it != slots.end(); ++it) {
                    if (it->first == seq) {
                        slots.erase(it);
                        return;
                    }
                }
            }
        }

        bool operator==(const InvocationTable &) const = default;

        DYNASPAM_FIELDS(InvocationTable, slots)

      private:
        std::deque<Entry> slots;
    };

    // Stage functions, called in reverse pipeline order each tick.
    void commitStage();
    void executeStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // Helpers.
    DynInst &robAt(SeqNum seq);
    const DynInst *robFind(SeqNum seq) const;
    bool isInstReady(const DynInst &inst) const;
    bool olderStoresAllComplete(const DynInst &load) const;
    void issueLoad(DynInst &load);
    void issueStore(DynInst &store);
    void checkViolations(const DynInst &store);
    void squashFrom(SeqNum seq, SeqNum resume_trace_idx, Cycle restart);
    void abortActiveMapping();
    void startReadyInvocations();
    Cycle physReady(RegIndex phys) const;

    // Wakeup-driven scheduler (see the comment at the member block).
    void scheduleAtDispatch(DynInst &d);
    void wakeConsumers(RegIndex phys);
    void drainPendingWakeups();
    void scrubSchedulerForSquash(SeqNum bound);
    bool loadMemoryReady(const DynInst &load);
    SeqNum incompleteStoreBound();

    /** Cacheline granularity of the LSQ address index. */
    static constexpr unsigned lsqLineShift = 6;
    static Addr lsqLine(Addr addr) { return addr >> lsqLineShift; }

    /** Address-keyed index over an LSQ queue: line -> age-ordered seqs. */
    using LsqIndex = std::unordered_map<Addr, std::vector<SeqNum>>;

    OooParams params;
    const isa::DynamicTrace &trace;
    mem::MemoryHierarchy &hierarchy;

    BranchPredictor bpred;
    StoreSetPredictor storeSets;
    OldestFirstPolicy defaultPolicy;
    SelectPolicy *activePolicy;     ///< never null
    TraceHooks *traceHooks = nullptr;
    CommitObserver *observer = nullptr;
    trace::TraceSink *tsink = nullptr;

    Cycle curCycle = 0;
    SeqNum nextSeq = 1;             ///< 0 reserved as "no instruction"
    SeqNum fetchIdx = 0;            ///< next oracle record to fetch
    SeqNum commitIdx = 0;           ///< next oracle record to commit
    Cycle fetchResumeCycle = 0;     ///< fetch blocked until this cycle
    bool fetchBlockedOnBranch = false;  ///< waiting for mispredict resolve
    Addr lastFetchBlock = ~Addr(0);

    std::deque<FrontEndInst> frontEnd;
    std::size_t frontEndCap;

    // Rename state.
    std::vector<RegIndex> rat;              ///< arch -> phys
    std::vector<RegIndex> freeList;
    std::vector<Cycle> physReadyCycle;      ///< CYCLE_INVALID = not ready

    // Back-end structures.
    std::deque<DynInst> rob;                ///< contiguous seq numbers
    std::vector<SeqNum> iq;                 ///< membership set, unordered
    std::deque<SeqNum> loadQueue;
    std::deque<SeqNum> storeQueue;
    InvocationTable invocations;

    /**
     * Wakeup-driven scheduler state. Dispatch either enqueues an
     * instruction on pendingByType (all source values known) or parks
     * it on its producers' consumer lists; the last producer to issue
     * moves it to pending, and issueStage drains matured pending
     * entries into readyByType before selecting. The select loop thus
     * touches only ready instructions instead of rescanning the whole
     * IQ once per FU slot — cost scales with activity, not capacity.
     * Selection order is made irrelevant by the explicit
     * (score, oldest-seq) tie-break, so reports stay byte-identical
     * to the scan-based engine.
     */
    struct PendingWakeup
    {
        Cycle readyCycle = 0;   ///< max source-ready cycle, may be future
        SeqNum seq = 0;

        DYNASPAM_FIELDS(PendingWakeup, readyCycle, seq)

        bool operator==(const PendingWakeup &) const = default;
    };
    std::vector<std::vector<SeqNum>> readyByType;       ///< per FU type
    std::vector<std::vector<PendingWakeup>> pendingByType;
    std::vector<std::vector<SeqNum>> regConsumers;      ///< per phys reg
    std::size_t readyCount = 0;
    std::size_t pendingCount = 0;
    unsigned fuTypeOffsets[unsigned(isa::FuType::NUM_FU_TYPES)] = {};

    // Cacheline-granular LSQ address index: disambiguation and
    // forwarding probe only same-line entries, in age order, instead of
    // walking the full queues per memory op.
    LsqIndex storesByLine;
    LsqIndex loadsByLine;

    /** Per-cycle cache of the oldest incomplete store's seq (used by
     *  the no-speculation load-readiness rule). CYCLE_INVALID = stale. */
    Cycle sqBoundCycle = CYCLE_INVALID;
    SeqNum sqBound = 0;

    /** Post-commit store buffer: recently committed stores remain
     *  visible for store-to-load forwarding while they drain. */
    struct RetiredStore
    {
        Addr addr = 0;
        Cycle dataReady = 0;
        SeqNum seq = 0;

        DYNASPAM_FIELDS(RetiredStore, addr, dataReady, seq)

        bool operator==(const RetiredStore &) const = default;
    };
    std::deque<RetiredStore> storeBuffer;
    std::unordered_map<Addr, std::vector<RetiredStore>> retiredByLine;
    static constexpr std::size_t storeBufferEntries = 16;

    /** Reused live-in arrival scratch for startReadyInvocations(). */
    std::vector<Cycle> arrivalScratch;

    // FU pool: busy-until cycle per unit, grouped by type.
    std::vector<std::vector<Cycle>> fuBusyUntil;

    // Mapping-phase state. Fetch marks trace records; the first trace
    // instruction stalls in rename until the back-end drains; the policy
    // is active from first dispatch until last trace-instruction issue.
    bool mappingActive = false;
    SeqNum mappingTraceIdx = 0;
    SelectPolicy *pendingMappingPolicy = nullptr;
    std::uint32_t mappingFetchRemaining = 0;  ///< records left to mark
    std::uint32_t mappingDispatchRemaining = 0; ///< marked, not dispatched
    std::uint32_t mappingIssueRemaining = 0;  ///< dispatched, not issued
    std::uint32_t mappingCommitRemaining = 0; ///< dispatched, not committed

    PipelineStats pstats;

  public:
    /**
     * Complete mutable pipeline state for simulator snapshots. Excludes
     * construction-time configuration (params, table geometries, FU
     * offsets) and the attached hooks/observer/sink, which the restore
     * target must already share; restore() requires a CPU built over the
     * same trace with the same OooParams. DynInst pointer members stay
     * valid because both sides reference the same immutable
     * Program/DynamicTrace. The two policy pointers are encoded as
     * "default or the (single) externally-owned mapping policy" and
     * rebound by restore().
     */
    struct SavedState
    {
        BranchPredictor::SavedState bpred;
        StoreSetPredictor::SavedState storeSets;
        bool activeIsDefault = true;    ///< activePolicy == &defaultPolicy
        bool pendingIsNull = true;      ///< pendingMappingPolicy == nullptr

        Cycle curCycle = 0;
        SeqNum nextSeq = 1;
        SeqNum fetchIdx = 0;
        SeqNum commitIdx = 0;
        Cycle fetchResumeCycle = 0;
        bool fetchBlockedOnBranch = false;
        Addr lastFetchBlock = ~Addr(0);
        std::deque<FrontEndInst> frontEnd;

        std::vector<RegIndex> rat;
        std::vector<RegIndex> freeList;
        std::vector<Cycle> physReadyCycle;

        std::deque<DynInst> rob;
        std::vector<SeqNum> iq;
        std::deque<SeqNum> loadQueue;
        std::deque<SeqNum> storeQueue;
        InvocationTable invocations;

        std::vector<std::vector<SeqNum>> readyByType;
        std::vector<std::vector<PendingWakeup>> pendingByType;
        std::vector<std::vector<SeqNum>> regConsumers;
        std::size_t readyCount = 0;
        std::size_t pendingCount = 0;

        LsqIndex storesByLine;
        LsqIndex loadsByLine;
        Cycle sqBoundCycle = CYCLE_INVALID;
        SeqNum sqBound = 0;
        std::deque<RetiredStore> storeBuffer;
        std::unordered_map<Addr, std::vector<RetiredStore>> retiredByLine;

        std::vector<std::vector<Cycle>> fuBusyUntil;

        bool mappingActive = false;
        SeqNum mappingTraceIdx = 0;
        std::uint32_t mappingFetchRemaining = 0;
        std::uint32_t mappingDispatchRemaining = 0;
        std::uint32_t mappingIssueRemaining = 0;
        std::uint32_t mappingCommitRemaining = 0;

        PipelineStats pstats;

        DYNASPAM_FIELDS(SavedState, bpred, storeSets, activeIsDefault,
                        pendingIsNull, curCycle, nextSeq, fetchIdx, commitIdx,
                        fetchResumeCycle, fetchBlockedOnBranch, lastFetchBlock,
                        frontEnd, rat, freeList, physReadyCycle, rob, iq,
                        loadQueue, storeQueue, invocations, readyByType,
                        pendingByType, regConsumers, readyCount, pendingCount,
                        storesByLine, loadsByLine, sqBoundCycle, sqBound,
                        storeBuffer, retiredByLine, fuBusyUntil, mappingActive,
                        mappingTraceIdx, mappingFetchRemaining,
                        mappingDispatchRemaining, mappingIssueRemaining,
                        mappingCommitRemaining, pstats)

        bool operator==(const SavedState &) const = default;
    };

    /** Capture the full pipeline state into @p out (reuses capacity). */
    void save(SavedState &out) const;

    /** @return true when @p in has this pipeline's table geometry and
     *  every scalar indexing those tables, the ROB or the trace is in
     *  range — the precondition restore() relies on. */
    bool fits(const SavedState &in) const;

    /**
     * Restore a previously saved state. @p mapping_policy is the
     * externally-owned policy both policy pointers rebind to when the
     * saved state had one armed (the DynaSpAM controller's resource-aware
     * policy); may be null when the state has activeIsDefault and
     * pendingIsNull.
     */
    void restore(const SavedState &in, SelectPolicy *mapping_policy);
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_CPU_HH
