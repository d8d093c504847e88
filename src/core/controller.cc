/**
 * @file
 * DynaSpAM controller implementation.
 */

#include "core/controller.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace dynaspam::core
{

DynaSpamController::DynaSpamController(const DynaSpamParams &p,
                                       const isa::DynamicTrace &t,
                                       ooo::BranchPredictor &bp,
                                       ooo::StoreSetPredictor &ss,
                                       mem::MemoryHierarchy &h)
    : params(p), trace(t), bpred(bp), storeSets(ss), hierarchy(h),
      tCache(p.tcache), cfgCache(p.configCache)
{
    if (params.numFabrics == 0)
        fatal("DynaSpAM needs at least one fabric");
    for (unsigned i = 0; i < params.numFabrics; i++) {
        fabricPool.push_back(std::make_unique<fabric::Fabric>(
            params.fabricParams, hierarchy, storeSets));
    }
    const unsigned pes = params.fabricParams.pesPerStripe();
    if (params.mapper == MapperKind::ResourceAware)
        policy = std::make_unique<ResourceAwarePolicy>(pes);
    else
        policy = std::make_unique<NaiveOrderPolicy>(pes);
}

bool
DynaSpamController::walkMatchesOracle(const TraceWalk &walk,
                                      SeqNum trace_idx) const
{
    if (trace_idx + walk.pcs.size() > trace.size())
        return false;
    for (std::size_t i = 0; i < walk.pcs.size(); i++) {
        const isa::DynRecord &rec = trace[trace_idx + i];
        if (rec.pc != walk.pcs[i])
            return false;
        const isa::StaticInst &inst = trace.program().inst(rec.pc);
        if (inst.isControl() && rec.taken != walk.predictedTaken[i])
            return false;
    }
    return true;
}

std::size_t
DynaSpamController::selectFabric(
    const std::shared_ptr<const fabric::FabricConfig> &config, Cycle now)
{
    // Prefer a fabric already holding the configuration.
    for (std::size_t i = 0; i < fabricPool.size(); i++) {
        if (fabricPool[i]->hasConfig(config->key))
            return i;
    }

    // Configuration miss: from here on, which fabric is picked (a free
    // one vs. the LRU victim) depends on the pool size once any fabric
    // holds a configuration. The very first configure lands on pool[0]
    // for every pool size, so it is still prefix-invariant.
    if (guard && guard->numFabricsDiverges && !guard->fired) {
        for (auto &fab : fabricPool) {
            if (fab->configured()) {
                guard->fired = true;
                break;
            }
        }
    }

    // Otherwise an unconfigured fabric, else the LRU one.
    std::size_t index = 0;
    while (index < fabricPool.size() && fabricPool[index]->configured())
        index++;
    if (index == fabricPool.size()) {
        index = 0;
        for (std::size_t i = 1; i < fabricPool.size(); i++) {
            if (fabricPool[i]->lastUseCycle() <
                fabricPool[index]->lastUseCycle())
                index = i;
        }
    }
    fabric::Fabric *victim = fabricPool[index].get();

    // Reconfigure the victim; its outgoing configuration's lifetime is a
    // Table 5 sample.
    if (victim->invocationsSinceConfigure() > 0) {
        state.dstats.lifetimeSum += victim->invocationsSinceConfigure();
        state.dstats.lifetimeCount++;
    }
    const Cycle ready = victim->configure(config, now);
    state.dstats.reconfigurations++;
    if (tsink)
        tsink->span(trace::Mark::Reconfigure, now, ready, config->key);
    return index;
}

ooo::FetchDirective
DynaSpamController::beforeFetch(SeqNum trace_idx, Cycle now)
{
    ooo::FetchDirective directive;

    // Only conditional branches anchor traces, so only they can carry a
    // suppression or an offload — bail before any hash probe otherwise.
    const isa::DynRecord &rec = trace[trace_idx];
    const isa::StaticInst &inst = trace.program().inst(rec.pc);
    if (!inst.isCondBranch())
        return directive;

    if (!state.suppressed.empty() && state.suppressed.count(trace_idx)) {
        state.dstats.offloadSuppressed++;
        // This record's invocation just squashed: run it on the host.
        // (The entry is consumed at commit, not here, because fetch can
        // be re-run after an unrelated squash.)
        return directive;
    }

    if (state.mappingInProgress)
        return directive;

    // Build the T-Cache index from the predictions for this and the next
    // two branches. The key-only probe avoids materialising the extent
    // vectors for the (overwhelmingly common) cold case; isHot is pure,
    // and probe.key equals the full walk's key, so behaviour is identical.
    TraceKeyProbe probe = probeTraceKey(trace.program(), bpred, rec.pc,
                                        params.traceLength);
    if (!probe.valid || !tCache.isHot(probe.key))
        return directive;

    TraceWalk walk = walkPredictedPath(trace.program(), bpred, rec.pc,
                                       params.traceLength);
    if (!walk.valid)
        return directive;

    state.dstats.tracesConsidered++;
    if (tsink)
        tsink->mark(trace::Mark::TCacheHit, now, walk.key, trace_idx);

    auto config = cfgCache.find(walk.key);
    if (config) {
        const bool ready = cfgCache.recordPrediction(walk.key);
        // Offload decision point: with the counter saturated, the
        // outcome consults enableOffload, and an issued offload's fabric
        // timing consults memorySpeculation.
        if (guard && ready &&
            (guard->offloadDiverges ||
             (params.enableOffload && guard->memSpecDiverges))) {
            guard->fired = true;
        }
        if (!ready || !params.enableOffload) {
            state.dstats.offloadBelowThreshold++;
            return directive;
        }

        // Offload. The fabric is chosen when the invocation starts; a
        // stale config whose extent no longer matches the oracle path is
        // still dispatched — the path mismatch squashes in the fabric,
        // mirroring the hardware.
        directive.kind = ooo::FetchDirective::Kind::Offload;
        directive.numRecords = config->numRecords;
        directive.liveIns = config->liveIns;
        directive.liveOuts.reserve(config->liveOuts.size());
        for (const auto &lo : config->liveOuts)
            directive.liveOuts.push_back(lo.arch);
        directive.hasStores = config->hasStores;

        state.pending[trace_idx] =
            PendingInvocation{config, walk.key, config->numRecords};
        state.dstats.offloadsIssued++;
        return directive;
    }

    // Not mapped yet: start a mapping phase if the predicted path holds
    // against the oracle (a mispredicted path would abort the mapping
    // anyway — Section 3.1). Traces that already failed to map are not
    // retried.
    state.dstats.hotNotMapped++;
    if (state.failedKeys.count(walk.key))
        return directive;
    if (now < state.lastMappingStart + params.mappingCooldown &&
        state.dstats.mappingsStarted > 0) {
        return directive;   // rate-limit reconfiguration pressure
    }
    if (!walkMatchesOracle(walk, trace_idx))
        return directive;
    if (walk.pcs.size() < 4)
        return directive;   // too short to be worth a configuration

    // Mapping begins: the session's schedule is driven by the installed
    // policy, so the mapper kind is consulted from here on.
    if (guard && guard->mapperDiverges)
        guard->fired = true;

    state.session.emplace(params.fabricParams, trace_idx,
                          std::uint32_t(walk.pcs.size()), walk.key);
    policy->arm(&*state.session, trace_idx);
    state.mappingInProgress = true;
    state.mappingKey = walk.key;
    state.lastMappingStart = now;

    directive.kind = ooo::FetchDirective::Kind::BeginMapping;
    directive.numRecords = std::uint32_t(walk.pcs.size());
    directive.policy = policy.get();
    // Counted at directive issue so aborts that fire before the first
    // trace instruction dispatches still balance the books.
    state.dstats.mappingsStarted++;
    return directive;
}

void
DynaSpamController::mappingStarted(SeqNum, Cycle)
{
}

void
DynaSpamController::mappingFinished(SeqNum trace_idx, Cycle now)
{
    if (!state.session)
        return;
    if (tsink) {
        tsink->span(trace::Mark::Mapping, state.lastMappingStart, now,
                    state.mappingKey, trace_idx);
    }
    auto config = state.session->buildConfig(trace);
    if (config) {
        const auto outcome = cfgCache.insert(state.mappingKey,
                                             std::move(*config));
        if (tsink) {
            if (outcome.evicted) {
                tsink->mark(trace::Mark::ConfigEvict, now,
                            outcome.evictedKey);
            }
            tsink->mark(trace::Mark::ConfigFill, now, state.mappingKey,
                        trace_idx);
        }
        if (state.mappedKeys.insert(state.mappingKey).second)
            state.dstats.distinctMappedTraces++;
        state.dstats.mappingsCompleted++;
    } else {
        state.dstats.mappingsDiscarded++;
        state.failedKeys.insert(state.mappingKey);
    }
    policy->disarm();
    state.session.reset();
    state.mappingInProgress = false;
}

void
DynaSpamController::mappingAborted(SeqNum trace_idx, Cycle now)
{
    if (!state.session)
        return;
    if (tsink) {
        tsink->span(trace::Mark::MappingAbort, state.lastMappingStart,
                    now, state.mappingKey, trace_idx);
    }
    state.dstats.mappingsAborted++;
    policy->disarm();
    state.session.reset();
    state.mappingInProgress = false;
}

ooo::InvocationResult
DynaSpamController::offloadStart(SeqNum trace_idx, std::uint32_t num_records,
                                 Cycle now,
                                 const std::vector<Cycle> &live_in_ready,
                                 Cycle mem_safe)
{
    auto it = state.pending.find(trace_idx);
    if (it == state.pending.end())
        panic("offloadStart for unknown invocation at ", trace_idx);
    const PendingInvocation &inv = it->second;

    ooo::InvocationResult result;
    const std::size_t fab = selectFabric(inv.config, now);
    it->second.startedOnIdx = int(fab);
    fabric::FabricExecResult fx = fabricPool[fab]->execute(
        trace, trace_idx, live_in_ready, mem_safe, now);
    (void)num_records;
    if (tsink) {
        tsink->span(trace::Mark::Invocation, now, fx.completeCycle,
                    inv.key, trace_idx);
    }

    result.squashed = fx.squashed;
    result.completeCycle = fx.completeCycle;
    result.liveOutReady = std::move(fx.liveOutReady);
    result.storeEvents.reserve(fx.storeEvents.size());
    for (const auto &ev : fx.storeEvents)
        result.storeEvents.emplace_back(ev.addr, ev.pc);
    return result;
}

void
DynaSpamController::invocationCommitted(SeqNum trace_idx, Cycle now)
{
    state.dstats.invocationsCommitted++;
    if (tsink)
        tsink->mark(trace::Mark::InvokeCommit, now, 0, trace_idx);
    auto it = state.pending.find(trace_idx);
    if (it != state.pending.end()) {
        state.dstats.instsOffloaded += it->second.numRecords;
        state.offloadedKeys.insert(it->second.key);
        if (it->second.startedOnIdx >= 0)
            fabricPool[std::size_t(it->second.startedOnIdx)]->noteCommitted(
                trace_idx);
        state.pending.erase(it);
    }
}

void
DynaSpamController::invocationSquashed(SeqNum trace_idx, Cycle now,
                                       bool at_fault)
{
    if (tsink) {
        tsink->mark(trace::Mark::InvokeSquash, now, 0, trace_idx,
                    at_fault ? 1 : 0);
    }
    if (at_fault) {
        state.dstats.invocationsSquashed++;
        state.suppressed.insert(trace_idx);
        auto pit = state.pending.find(trace_idx);
        if (pit != state.pending.end())
            cfgCache.penalize(pit->second.key);
    } else {
        state.dstats.invocationsCollateral++;
    }
    auto it = state.pending.find(trace_idx);
    if (it != state.pending.end()) {
        // Rewind the ghost effects this invocation left in the fabric's
        // pipelining state (squash notifications arrive youngest-first).
        if (it->second.startedOnIdx >= 0)
            fabricPool[std::size_t(it->second.startedOnIdx)]->rollback(
                trace_idx);
        state.pending.erase(it);
    }
}

void
DynaSpamController::onCommitControl(InstAddr pc, bool taken,
                                    SeqNum trace_idx, Cycle)
{
    const isa::StaticInst &inst = trace.program().inst(pc);
    if (inst.isCondBranch())
        tCache.commitBranch(pc, taken);
    // A suppressed record that has now committed on the host can be
    // offloaded again in the future.
    state.suppressed.erase(trace_idx);
}

void
DynaSpamController::setTraceSink(trace::TraceSink *sink)
{
    tsink = sink;
    for (auto &fab : fabricPool)
        fab->setTraceSink(sink);
}

void
DynaSpamController::finalizeStats()
{
    for (auto &fab : fabricPool) {
        if (fab->invocationsSinceConfigure() > 0) {
            state.dstats.lifetimeSum += fab->invocationsSinceConfigure();
            state.dstats.lifetimeCount++;
        }
    }
    state.dstats.distinctOffloadedTraces = state.offloadedKeys.size();
}

void
DynaSpamController::save(SavedState &out) const
{
    tCache.save(out.tcache);
    cfgCache.save(out.configCache);
    out.fabrics.resize(fabricPool.size());
    for (std::size_t i = 0; i < fabricPool.size(); i++)
        fabricPool[i]->save(out.fabrics[i]);
    policy->save(out.policy);
    out.state = state;
}

bool
DynaSpamController::fits(const SavedState &in) const
{
    if (!tCache.fits(in.tcache) || !cfgCache.fits(in.configCache))
        return false;
    for (const fabric::Fabric::SavedState &fab : in.fabrics)
        if (!fabric::Fabric::fits(fab))
            return false;
    if (in.state.session && !in.state.session->fits(trace))
        return false;
    for (const auto &[seq, inv] : in.state.pending) {
        if (!inv.config || inv.startedOnIdx < -1 ||
            inv.startedOnIdx >= int(fabricPool.size()) ||
            seq > trace.size() || inv.numRecords > trace.size() - seq)
            return false;
    }
    return true;
}

void
DynaSpamController::restore(const SavedState &in)
{
    for (const auto &[seq, inv] : in.state.pending)
        if (inv.startedOnIdx >= int(fabricPool.size()))
            panic("restore: pending invocation on out-of-range fabric");

    tCache.restore(in.tcache);
    cfgCache.restore(in.configCache);
    // Pool sizes may differ across a fork group (see SavedState docs);
    // fabrics beyond the common prefix are untouched on either side.
    const std::size_t n = std::min(in.fabrics.size(), fabricPool.size());
    for (std::size_t i = 0; i < n; i++)
        fabricPool[i]->restore(in.fabrics[i]);
    state = in.state;
    policy->restore(in.policy, state.session ? &*state.session : nullptr);
}

void
DynaSpamController::exportStats(StatRegistry &reg) const
{
    const DynaSpamStats &dstats = state.dstats;
    reg.counter("dynaspam.tracesConsidered").inc(dstats.tracesConsidered);
    reg.counter("dynaspam.mappingsStarted").inc(dstats.mappingsStarted);
    reg.counter("dynaspam.mappingsCompleted").inc(dstats.mappingsCompleted);
    reg.counter("dynaspam.mappingsAborted").inc(dstats.mappingsAborted);
    reg.counter("dynaspam.mappingsDiscarded").inc(dstats.mappingsDiscarded);
    reg.counter("dynaspam.offloadsIssued").inc(dstats.offloadsIssued);
    reg.counter("dynaspam.invocationsCommitted")
        .inc(dstats.invocationsCommitted);
    reg.counter("dynaspam.invocationsSquashed")
        .inc(dstats.invocationsSquashed);
    reg.counter("dynaspam.reconfigurations").inc(dstats.reconfigurations);
    reg.counter("dynaspam.distinctMappedTraces")
        .inc(dstats.distinctMappedTraces);
    reg.counter("dynaspam.distinctOffloadedTraces")
        .inc(dstats.distinctOffloadedTraces);
    reg.counter("dynaspam.instsOffloaded").inc(dstats.instsOffloaded);
    for (std::size_t i = 0; i < fabricPool.size(); i++)
        fabricPool[i]->exportStats(reg, "fabric" + std::to_string(i));
}

} // namespace dynaspam::core
