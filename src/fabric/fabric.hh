/**
 * @file
 * Dataflow execution timing model of the spatial fabric.
 *
 * One Fabric instance models one on-chip fabric: it holds at most one
 * active configuration (reconfiguration costs cycles and is tracked for
 * the configuration-lifetime statistics), executes invocations in
 * dataflow order with stripe-boundary routing latencies, supports
 * pipelined back-to-back invocations through the global bus, and runs
 * its LDST units against the data cache with store-set memory dependence
 * speculation.
 */

#ifndef DYNASPAM_FABRIC_FABRIC_HH
#define DYNASPAM_FABRIC_FABRIC_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fabric/config.hh"
#include "fabric/params.hh"
#include "isa/trace.hh"
#include "memory/cache.hh"
#include "ooo/storesets.hh"

namespace dynaspam::trace
{
class TraceSink;
} // namespace dynaspam::trace

namespace dynaspam::fabric
{

/** Timing outcome of one invocation on the fabric. */
struct FabricExecResult
{
    bool squashed = false;

    /** Why the invocation squashed (valid when squashed). */
    enum class SquashCause : std::uint8_t
    {
        None,
        BranchMismatch,     ///< a branch left the mapped trace path
        MemoryViolation,    ///< speculative load bypassed an aliasing store
    };
    SquashCause cause = SquashCause::None;

    /** When all live-outs/branch results/stores were delivered, or when
     *  the squash condition was detected. */
    Cycle completeCycle = 0;

    /** Ready-at-host cycles, parallel to FabricConfig::liveOuts. */
    std::vector<Cycle> liveOutReady;

    /** One record per store the invocation performed. */
    struct StoreEvent
    {
        Addr addr = 0;
        Cycle completeCycle = 0;
        InstAddr pc = 0;
    };
    /** Store events (empty when squashed) — lets the host pipeline
     *  detect younger loads that speculatively bypassed them. */
    std::vector<StoreEvent> storeEvents;
};

/** Event counts for energy accounting and the evaluation figures. */
struct FabricStats
{
    std::uint64_t invocations = 0;
    std::uint64_t squashedInvocations = 0;
    std::uint64_t peOps = 0;
    std::uint64_t datapathHops = 0;
    std::uint64_t fifoPushes = 0;
    std::uint64_t busTransfers = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t memViolations = 0;
    /** Sum over invocations of stripesUsed (for gated leakage). */
    std::uint64_t activeStripeInvocations = 0;

    DYNASPAM_FIELDS(FabricStats, invocations, squashedInvocations, peOps,
                    datapathHops, fifoPushes, busTransfers, dcacheAccesses,
                    reconfigurations, memViolations, activeStripeInvocations)

    bool operator==(const FabricStats &) const = default;
};

/**
 * One physical fabric instance.
 */
class Fabric
{
  public:
    /**
     * @param params geometry/timing
     * @param hierarchy data cache for LDST units
     * @param store_sets memory dependence predictor shared with the host
     */
    Fabric(const FabricParams &params, mem::MemoryHierarchy &hierarchy,
           ooo::StoreSetPredictor &store_sets);

    /**
     * Load @p config into the fabric, replacing the current one.
     * @param now cycle the reconfiguration starts
     * @return cycle at which the fabric is ready to execute
     */
    Cycle configure(std::shared_ptr<const FabricConfig> config, Cycle now);

    /** @return true if @p key is the currently loaded configuration. */
    bool hasConfig(std::uint64_t key) const
    {
        return state.live.config && state.live.config->key == key;
    }

    /** @return true when any configuration is loaded. */
    bool configured() const { return state.live.config != nullptr; }

    /** @return the loaded configuration (must be configured()). */
    const FabricConfig &config() const { return *state.live.config; }

    /**
     * Execute one invocation of the loaded configuration.
     *
     * @param trace oracle trace (for addresses and branch outcomes)
     * @param trace_idx first oracle record of this invocation
     * @param live_in_arrival host-side ready cycle per live-in, parallel
     *                        to config().liveIns
     * @param mem_safe earliest cycle fabric memory ops may access memory
     * @param now cycle the invocation is requested
     */
    FabricExecResult execute(const isa::DynamicTrace &trace,
                             SeqNum trace_idx,
                             const std::vector<Cycle> &live_in_arrival,
                             Cycle mem_safe, Cycle now);

    /**
     * The invocation dispatched from @p trace_idx committed: its effects
     * on the fabric's pipelining state are final (drops its snapshot and
     * all older ones).
     */
    void noteCommitted(SeqNum trace_idx);

    /**
     * The invocation dispatched from @p trace_idx was squashed in the
     * ROB: rewind the fabric's pipelining state to just before its
     * execute() call, discarding it and everything younger. No-op if the
     * invocation never executed here.
     */
    void rollback(SeqNum trace_idx);

    const FabricStats &stats() const { return state.stats; }
    const FabricParams &parameters() const { return params; }

    /** Invocations executed since the last reconfiguration. */
    std::uint64_t invocationsSinceConfigure() const
    {
        return state.live.invocationsOnConfig;
    }

    /** Last cycle this fabric was used (for LRU across fabrics). */
    Cycle lastUseCycle() const { return state.live.lastUse; }

    /** Attach an event-trace sink (nullptr detaches): samples the
     *  in-flight FIFO occupancy as a counter track. */
    void setTraceSink(trace::TraceSink *sink) { tsink = sink; }

    /** Export statistics under "<prefix>." into @p registry. */
    void exportStats(StatRegistry &registry,
                     const std::string &prefix = "fabric") const;

    /** Recently completed stores, for cross-invocation memory-order
     *  violation detection. */
    struct RecentStore
    {
        Addr addr = 0;
        Cycle completeCycle = 0;
        InstAddr pc = 0;
        SeqNum seq = 0;

        DYNASPAM_FIELDS(RecentStore, addr, completeCycle, pc, seq)

        bool operator==(const RecentStore &) const = default;
    };

    /**
     * The fabric's pipelining state. The live state is one Snapshot;
     * execute() copies it whole for ROB-squash rollback. FabricConfig
     * objects are immutable, so the pointer is shared, not copied.
     */
    struct Snapshot
    {
        std::shared_ptr<const FabricConfig> config;    ///< loaded config
        Cycle configReadyCycle = 0;
        Cycle lastUse = 0;
        /** Per-instruction completion cycles of the previous invocation
         *  of the current config (for PE structural pipelining). */
        std::vector<Cycle> prevInstComplete;
        /** Previous invocation's internal live-out completion times, for
         *  direct global-bus forwarding on back-to-back invocations. */
        std::vector<Cycle> prevLiveOutInternal;
        /** Record index just after the previous invocation (back-to-back
         *  check). */
        SeqNum prevTraceEndIdx = 0;
        /** Completion cycles of recent invocations: models live-in/
         *  live-out FIFO depth back-pressure on pipelined execution. */
        std::deque<Cycle> inflightWindow;
        std::deque<RecentStore> recentStores;
        /** Completion of the newest memory op, persisted across
         *  invocations for the strict ordering of the no-speculation
         *  configuration. */
        Cycle lastMemCompletePersist = 0;
        std::uint64_t invocationsOnConfig = 0;

        DYNASPAM_FIELDS(Snapshot, config, configReadyCycle, lastUse,
                        prevInstComplete, prevLiveOutInternal, prevTraceEndIdx,
                        inflightWindow, recentStores, lastMemCompletePersist,
                        invocationsOnConfig)

        bool operator==(const Snapshot &) const = default;

        /** @return true when the per-instruction and per-live-out
         *  tables match the loaded config. */
        bool
        fits() const
        {
            return !config ||
                   (prevInstComplete.size() == config->insts.size() &&
                    prevLiveOutInternal.size() == config->liveOuts.size());
        }
    };

    /**
     * Complete mutable fabric state, held live as `state`: the live
     * pipelining state, the outstanding per-invocation rollback
     * snapshots and the statistics.
     */
    struct SavedState
    {
        Snapshot live;
        /** Keyed by the invocation's first trace record. */
        std::map<SeqNum, Snapshot> snapshots;
        FabricStats stats;

        DYNASPAM_FIELDS(SavedState, live, snapshots, stats)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when the live state and every rollback snapshot in
     *  @p in fit their configs (checked before restore()). */
    static bool
    fits(const SavedState &in)
    {
        for (const auto &entry : in.snapshots)
            if (!entry.second.fits())
                return false;
        return in.live.fits();
    }

    void save(SavedState &out) const { out = state; }
    void restore(const SavedState &in) { state = in; }

  private:
    FabricParams params;
    mem::MemoryHierarchy &hierarchy;
    ooo::StoreSetPredictor &storeSets;

    SavedState state;

    trace::TraceSink *tsink = nullptr;
};

} // namespace dynaspam::fabric

#endif // DYNASPAM_FABRIC_FABRIC_HH
