/**
 * @file
 * Spatial fabric dataflow execution model implementation.
 */

#include "fabric/fabric.hh"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace dynaspam::fabric
{

std::string
FabricConfig::toString() const
{
    std::ostringstream os;
    os << "config key=0x" << std::hex << key << std::dec << " records="
       << numRecords << " stripes=" << int(stripesUsed) << "\n";
    for (std::size_t i = 0; i < insts.size(); i++) {
        const MappedInst &mi = insts[i];
        os << "  [" << i << "] pc=" << mi.pc << " "
           << isa::opcodeName(mi.op) << " @s" << int(mi.pe.stripe) << ":p"
           << int(mi.pe.index) << "\n";
    }
    return os.str();
}

Fabric::Fabric(const FabricParams &p, mem::MemoryHierarchy &h,
               ooo::StoreSetPredictor &ss)
    : params(p), hierarchy(h), storeSets(ss)
{
    if (params.numStripes == 0 || params.pesPerStripe() == 0)
        fatal("fabric must have at least one stripe and one PE");
}

Cycle
Fabric::configure(std::shared_ptr<const FabricConfig> config, Cycle now)
{
    if (!config || !config->valid())
        fatal("attempt to configure fabric with an invalid config");
    if (config->stripesUsed > params.numStripes)
        fatal("config uses ", int(config->stripesUsed),
              " stripes but fabric has ", params.numStripes);

    Snapshot &live = state.live;
    if (live.config)
        state.stats.reconfigurations++;
    live.config = std::move(config);
    live.invocationsOnConfig = 0;
    live.prevInstComplete.assign(live.config->insts.size(), 0);
    live.prevLiveOutInternal.assign(live.config->liveOuts.size(), 0);
    live.prevTraceEndIdx = 0;
    live.configReadyCycle = now + Cycle(live.config->stripesUsed) *
                                      params.configureCyclesPerStripe;
    live.lastUse = now;
    return live.configReadyCycle;
}

void
Fabric::noteCommitted(SeqNum trace_idx)
{
    // Commits arrive in program order: everything at or before this
    // invocation is final.
    state.snapshots.erase(state.snapshots.begin(),
                          state.snapshots.upper_bound(trace_idx));
}

void
Fabric::rollback(SeqNum trace_idx)
{
    auto it = state.snapshots.find(trace_idx);
    if (it == state.snapshots.end())
        return;     // never executed here (or already rolled back)
    state.live = it->second;
    state.snapshots.erase(it, state.snapshots.end());
}

FabricExecResult
Fabric::execute(const isa::DynamicTrace &trace, SeqNum trace_idx,
                const std::vector<Cycle> &live_in_arrival, Cycle mem_safe,
                Cycle now)
{
    Snapshot &live = state.live;
    if (!live.config)
        panic("Fabric::execute without a configuration");
    if (live_in_arrival.size() != live.config->liveIns.size())
        panic("live-in arrival count mismatch");

    // Capture the pipelining state so a ROB squash of this invocation
    // can rewind its ghost effects.
    state.snapshots[trace_idx] = live;

    FabricExecResult result;
    const FabricConfig &cfg = *live.config;
    const std::size_t n = cfg.insts.size();

    // Base start: request time, configuration done, and FIFO-depth
    // back-pressure (at most fifoDepth invocations overlap in flight).
    Cycle start = std::max(now, live.configReadyCycle);
    if (live.inflightWindow.size() >= params.fifoDepth)
        start = std::max(start,
                         live.inflightWindow[live.inflightWindow.size() -
                                        params.fifoDepth]);

    // Live-in arrival at the fabric input ports. Back-to-back invocations
    // of the same trace forward dependent live-outs directly over the
    // global bus, skipping the trip through the host register file.
    const bool back_to_back =
        live.invocationsOnConfig > 0 && trace_idx == live.prevTraceEndIdx;
    std::vector<Cycle> arrival(live_in_arrival.size());
    for (std::size_t i = 0; i < arrival.size(); i++) {
        arrival[i] = live_in_arrival[i] + params.globalBusLatency;
        if (back_to_back) {
            for (std::size_t o = 0; o < cfg.liveOuts.size(); o++) {
                if (cfg.liveOuts[o].arch == cfg.liveIns[i]) {
                    arrival[i] = std::min(
                        arrival[i],
                        live.prevLiveOutInternal[o] + params.globalBusLatency);
                    break;
                }
            }
        }
        state.stats.busTransfers++;
        state.stats.fifoPushes++;
    }

    std::vector<Cycle> complete(n, 0);
    // PE occupancy per instruction: loads occupy their LDST unit only
    // for issue/address generation — the reservation buffer (Figure 4)
    // holds in-flight misses so responses can return out of order and
    // later invocations' loads can issue meanwhile (memory-level
    // parallelism, as in the host pipeline).
    std::vector<Cycle> occupy(n, 0);
    // Without memory speculation, memory operations execute in strict
    // program order — including across invocations.
    Cycle last_mem_complete =
        params.memorySpeculation ? 0 : live.lastMemCompletePersist;
    Cycle last_event = start;
    bool squashed = false;
    std::size_t executed = n;

    // Stores of this invocation, for intra-trace violation detection.
    struct PendingStore
    {
        Addr addr;
        Cycle completeCycle;
        InstAddr pc;
        SeqNum seq;
    };
    std::vector<PendingStore> invStores;

    for (std::size_t i = 0; i < n; i++) {
        const MappedInst &mi = cfg.insts[i];
        const isa::DynRecord &rec = trace[trace_idx + i];
        const SeqNum pseudo_seq = ooo::FABRIC_SEQ_FLAG | (trace_idx + i + 1);

        Cycle ready = start;
        for (const OperandRoute *route : {&mi.src1, &mi.src2}) {
            switch (route->kind) {
              case OperandRoute::Kind::None:
                break;
              case OperandRoute::Kind::LiveIn:
                ready = std::max(ready, arrival.at(route->liveInIdx));
                break;
              case OperandRoute::Kind::PassReg:
                ready = std::max(ready, complete.at(route->producerIdx));
                break;
              case OperandRoute::Kind::Routed:
                ready = std::max(ready,
                                 complete.at(route->producerIdx) +
                                     Cycle(route->hops) * params.hopLatency);
                state.stats.datapathHops += route->hops;
                break;
            }
        }

        // Structural pipelining: the PE must have finished this slot's
        // operation from the previous invocation.
        ready = std::max(ready, live.prevInstComplete[i]);

        const unsigned lat = isa::opLatency(mi.opClass());
        Cycle done;

        if (mi.isLoad || mi.isStore) {
            ready = std::max(ready, mem_safe);
            if (!params.memorySpeculation) {
                // Strict program order among memory operations.
                ready = std::max(ready, last_mem_complete);
            }

            if (mi.isLoad) {
                if (params.memorySpeculation) {
                    // Store-set gate: wait for the predicted producer.
                    SeqNum dep = storeSets.lookupDependence(mi.pc);
                    if (dep != 0) {
                        for (const PendingStore &ps : invStores) {
                            if (ps.seq == dep) {
                                ready = std::max(ready, ps.completeCycle);
                                break;
                            }
                        }
                        // Dependences on stores outside this invocation
                        // are covered by mem_safe / recentStores below.
                        for (const RecentStore &rs : live.recentStores) {
                            if (rs.seq == dep)
                                ready = std::max(ready, rs.completeCycle);
                        }
                    }
                }
                state.stats.dcacheAccesses++;
                auto access = hierarchy.dataAccess(rec.effAddr, false);
                done = ready + lat + access.latency;

                if (params.memorySpeculation) {
                    // Violation: an older store (this or the previous
                    // invocation) to the same address completes after
                    // this load started executing.
                    auto violates = [&](Addr a, Cycle c) {
                        return a == rec.effAddr && c > ready;
                    };
                    const PendingStore *bad = nullptr;
                    for (const PendingStore &ps : invStores) {
                        if (violates(ps.addr, ps.completeCycle)) {
                            bad = &ps;
                            break;
                        }
                    }
                    if (!bad) {
                        for (const RecentStore &rs : live.recentStores) {
                            if (violates(rs.addr, rs.completeCycle)) {
                                storeSets.recordViolation(mi.pc, rs.pc);
                                squashed = true;
                                result.cause = FabricExecResult::
                                    SquashCause::MemoryViolation;
                                last_event =
                                    std::max(last_event, rs.completeCycle);
                                break;
                            }
                        }
                    } else {
                        storeSets.recordViolation(mi.pc, bad->pc);
                        squashed = true;
                        result.cause =
                            FabricExecResult::SquashCause::MemoryViolation;
                        last_event =
                            std::max(last_event, bad->completeCycle);
                    }
                    if (squashed) {
                        state.stats.memViolations++;
                        executed = i + 1;
                        complete[i] = done;
                        break;
                    }
                }
            } else {
                done = ready + lat;
                invStores.push_back({rec.effAddr, done, mi.pc, pseudo_seq});
                if (params.memorySpeculation)
                    storeSets.dispatchStore(mi.pc, pseudo_seq);
                // Stores drain to the cache when the invocation commits.
                state.stats.dcacheAccesses++;
                hierarchy.dataAccess(rec.effAddr, true);
            }
            last_mem_complete = std::max(last_mem_complete, done);
        } else {
            done = ready + lat;
        }

        complete[i] = done;
        // Functional units are pipelined (one new operation per cycle)
        // except the iterative dividers; loads hand off to the
        // reservation buffer after address generation.
        {
            const isa::OpClass cls = mi.opClass();
            const bool unpipelined = cls == isa::OpClass::IntDiv ||
                                     cls == isa::OpClass::FloatDiv;
            occupy[i] = unpipelined ? done : ready + 1;
        }
        state.stats.peOps++;
        last_event = std::max(last_event, done);

        if (mi.isBranch) {
            if (rec.taken != mi.expectedTaken) {
                // The oracle path leaves the mapped trace: squash when
                // this branch result reaches the ROB'.
                squashed = true;
                result.cause = FabricExecResult::SquashCause::BranchMismatch;
                executed = i + 1;
                break;
            }
            // Branch results are shipped to the ROB' over the bus.
            state.stats.busTransfers++;
        }
    }

    // Update structural state for pipelining (loads free their PE at
    // issue; the reservation buffer carries the outstanding access).
    for (std::size_t i = 0; i < n; i++) {
        live.prevInstComplete[i] =
            i < executed ? occupy[i] : std::max(last_event, start);
    }
    live.lastMemCompletePersist = std::max(live.lastMemCompletePersist,
                                      last_mem_complete);

    if (squashed) {
        result.squashed = true;
        result.completeCycle = last_event + params.globalBusLatency;
        state.stats.invocations++;
        state.stats.squashedInvocations++;
        state.stats.activeStripeInvocations += cfg.stripesUsed;
        live.invocationsOnConfig++;
        live.prevTraceEndIdx = 0;    // no back-to-back chaining after a squash
        live.lastUse = result.completeCycle;
        live.inflightWindow.push_back(result.completeCycle);
        if (live.inflightWindow.size() > 2 * params.fifoDepth)
            live.inflightWindow.pop_front();
        if (tsink) {
            tsink->counter(trace::Mark::FifoLevel, now,
                           live.inflightWindow.size());
        }
        // Squashed stores never drained; retire their LFST registrations.
        for (const PendingStore &ps : invStores)
            storeSets.retireStore(ps.pc, ps.seq);
        return result;
    }

    // Deliver live-outs to the host over the global bus.
    result.liveOutReady.resize(cfg.liveOuts.size());
    Cycle complete_all = last_event;
    for (std::size_t o = 0; o < cfg.liveOuts.size(); o++) {
        Cycle internal = complete.at(cfg.liveOuts[o].producerIdx);
        live.prevLiveOutInternal[o] = internal;
        result.liveOutReady[o] = internal + params.globalBusLatency;
        complete_all = std::max(complete_all, result.liveOutReady[o]);
        state.stats.busTransfers++;
        state.stats.fifoPushes++;
    }
    result.completeCycle = complete_all;

    // Remember this invocation's stores for cross-invocation violation
    // detection, and report them to the host for its own load-bypass
    // checks. LFST registrations deliberately persist so a load in the
    // *next* invocation still sees its predicted producer (each new
    // dispatch of the same store PC re-registers, keeping them fresh).
    for (const PendingStore &ps : invStores) {
        live.recentStores.push_back(
            {ps.addr, ps.completeCycle, ps.pc, ps.seq});
        result.storeEvents.push_back({ps.addr, ps.completeCycle, ps.pc});
    }
    while (live.recentStores.size() > 64)
        live.recentStores.pop_front();

    state.stats.invocations++;
    state.stats.activeStripeInvocations += cfg.stripesUsed;
    live.invocationsOnConfig++;
    live.prevTraceEndIdx = trace_idx + cfg.numRecords;
    live.lastUse = result.completeCycle;
    live.inflightWindow.push_back(result.completeCycle);
    if (live.inflightWindow.size() > 2 * params.fifoDepth)
        live.inflightWindow.pop_front();
    if (tsink)
        tsink->counter(trace::Mark::FifoLevel, now,
                       live.inflightWindow.size());

    return result;
}

void
Fabric::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    auto entry = [&](const char *name, auto member) {
        reg.counter(prefix + "." + name).inc(state.stats.*member);
    };
    FabricStats::fields(entry);
}

} // namespace dynaspam::fabric
