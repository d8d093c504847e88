/**
 * @file
 * Invariant auditor implementations.
 */

#include "check/auditors.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/configcache.hh"
#include "core/tcache.hh"
#include "fabric/config.hh"
#include "fabric/params.hh"
#include "isa/inst.hh"
#include "ooo/cpu.hh"
#include "ooo/dyninst.hh"

namespace dynaspam::check
{

namespace
{

/** Oracle records one ROB entry covers. */
std::uint64_t
recordSpan(const ooo::DynInst &entry)
{
    return entry.kind == ooo::RobKind::TraceInvoke ? entry.traceLen : 1;
}

} // namespace

// ---------------------------------------------------------------------
// OooAuditor
// ---------------------------------------------------------------------

OooAuditor::OooAuditor(const ooo::OooCpu &c, ViolationSink &s)
    : cpu(c), sink(s), physSeen(c.params.numPhysRegs, 0)
{
}

void
OooAuditor::auditAll(Cycle now)
{
    auditRob(now);
    auditRename(now);
    auditLsq(now);
    auditAtomicity(now);
    auditScheduler(now);
}

void
OooAuditor::auditRob(Cycle now)
{
    const auto &rob = cpu.rob;
    if (!rob.empty() && rob.front().traceIdx != cpu.commitIdx) {
        std::ostringstream os;
        os << "ROB head covers record " << rob.front().traceIdx
           << " but the next record to commit is " << cpu.commitIdx;
        sink.report("rob", now, os.str());
    }

    SeqNum expect_seq = rob.empty() ? 0 : rob.front().seq;
    SeqNum expect_idx = cpu.commitIdx;
    std::uint64_t invocation_entries = 0;
    for (std::size_t i = 0; i < rob.size(); i++) {
        const ooo::DynInst &d = rob[i];
        if (d.seq != expect_seq) {
            std::ostringstream os;
            os << "ROB seq not contiguous at slot " << i << ": entry seq "
               << d.seq << ", expected " << expect_seq;
            sink.report("rob", now, os.str());
            return;
        }
        if (d.traceIdx != expect_idx) {
            std::ostringstream os;
            os << "ROB entry seq " << d.seq << " covers record "
               << d.traceIdx << " but the age-ordered walk expects record "
               << expect_idx << " (commit order broken)";
            sink.report("rob", now, os.str());
            return;
        }
        if (d.kind == ooo::RobKind::Inst && d.completed && !d.issued) {
            std::ostringstream os;
            os << "ROB entry seq " << d.seq
               << " is completed but was never issued";
            sink.report("rob", now, os.str());
        }
        if (d.kind == ooo::RobKind::TraceInvoke) {
            invocation_entries++;
            if (!cpu.invocations.count(d.seq)) {
                std::ostringstream os;
                os << "TraceInvoke ROB entry seq " << d.seq
                   << " has no invocation state";
                sink.report("rob", now, os.str());
            }
        }
        expect_seq++;
        expect_idx += recordSpan(d);
    }

    if (invocation_entries != cpu.invocations.size()) {
        std::ostringstream os;
        os << "invocation-state map holds " << cpu.invocations.size()
           << " entries but the ROB holds " << invocation_entries
           << " TraceInvoke entries";
        sink.report("rob", now, os.str());
    }
}

void
OooAuditor::auditRename(Cycle now)
{
    std::fill(physSeen.begin(), physSeen.end(), 0);

    auto claim = [&](RegIndex phys, const char *role) -> bool {
        if (phys >= physSeen.size()) {
            std::ostringstream os;
            os << role << " holds out-of-range physical register " << phys;
            sink.report("rename", now, os.str());
            return false;
        }
        if (physSeen[phys]++) {
            std::ostringstream os;
            os << "physical register " << phys << " claimed twice ("
               << role << " and an earlier holder)";
            sink.report("rename", now, os.str());
            return false;
        }
        return true;
    };

    for (std::size_t arch = 0; arch < cpu.rat.size(); arch++) {
        if (!claim(cpu.rat[arch], "RAT"))
            return;
    }
    for (RegIndex phys : cpu.freeList) {
        if (!claim(phys, "free list"))
            return;
    }
    for (const ooo::DynInst &d : cpu.rob) {
        if (d.kind == ooo::RobKind::Inst && d.inst && d.inst->hasDest()) {
            if (!claim(d.prevPhys, "in-flight prevPhys"))
                return;
        }
    }
    for (const auto &[seq, inv] : cpu.invocations) {
        for (RegIndex phys : inv.liveOutPrevPhys) {
            if (!claim(phys, "invocation liveOutPrevPhys"))
                return;
        }
    }

    for (std::size_t phys = 0; phys < physSeen.size(); phys++) {
        if (!physSeen[phys]) {
            std::ostringstream os;
            os << "physical register " << phys
               << " leaked: neither mapped, free, nor held by an "
                  "in-flight instruction";
            sink.report("rename", now, os.str());
            return;
        }
    }
}

void
OooAuditor::auditLsq(Cycle now)
{
    auto auditQueue = [&](const Ring<ooo::OooCpu::LsqEntry> &queue,
                          bool loads, const char *name) {
        SeqNum prev = 0;
        for (const ooo::OooCpu::LsqEntry &entry : queue) {
            const SeqNum seq = entry.seq;
            if (seq <= prev) {
                std::ostringstream os;
                os << name << " out of age order: seq " << seq
                   << " follows seq " << prev;
                sink.report("lsq", now, os.str());
                return;
            }
            prev = seq;

            const ooo::DynInst *d = cpu.robFind(seq);
            if (!d) {
                std::ostringstream os;
                os << name << " holds seq " << seq
                   << " which is not in the ROB";
                sink.report("lsq", now, os.str());
                return;
            }
            if (loads ? !d->isLoad() : !d->isStore()) {
                std::ostringstream os;
                os << name << " holds seq " << seq
                   << " which is not a " << (loads ? "load" : "store");
                sink.report("lsq", now, os.str());
                return;
            }
            if (d->record && d->record->effAddr != entry.effAddr) {
                std::ostringstream os;
                os << name << " entry seq " << seq << " carries address 0x"
                   << std::hex << entry.effAddr << " but its record names 0x"
                   << d->record->effAddr;
                sink.report("lsq", now, os.str());
                return;
            }
            if (loads && d->dependsOnStore && d->dependsOnStore >= seq) {
                std::ostringstream os;
                os << "load seq " << seq
                   << " store-set dependence points at seq "
                   << d->dependsOnStore << ", which is not older";
                sink.report("lsq", now, os.str());
                return;
            }
        }
    };

    auditQueue(cpu.loadQueue, true, "load queue");
    auditQueue(cpu.storeQueue, false, "store queue");

    // The post-commit store buffer: bounded, and in commit (age) order.
    if (cpu.storeBuffer.size() > ooo::OooCpu::storeBufferEntries) {
        std::ostringstream os;
        os << "store buffer holds " << cpu.storeBuffer.size()
           << " entries, over its " << ooo::OooCpu::storeBufferEntries;
        sink.report("lsq", now, os.str());
        return;
    }
    SeqNum prev = 0;
    for (const auto &retired : cpu.storeBuffer) {
        if (retired.seq <= prev) {
            std::ostringstream os;
            os << "store buffer out of age order: seq " << retired.seq
               << " follows seq " << prev;
            sink.report("lsq", now, os.str());
            return;
        }
        prev = retired.seq;
    }
}

void
OooAuditor::auditAtomicity(Cycle now)
{
    std::size_t unresolved = 0;
    for (const auto &[seq, inv] : cpu.invocations)
        unresolved += !inv.resolved;
    if (unresolved != cpu.invocations.unresolvedCount()) {
        std::ostringstream os;
        os << "invocation table counts "
           << cpu.invocations.unresolvedCount()
           << " unresolved entries but holds " << unresolved
           << " (the execute stage would skip or stall a launch)";
        sink.report("atomicity", now, os.str());
        return;
    }
    for (const auto &[seq, inv] : cpu.invocations) {
        if (inv.resolved)
            continue;
        for (RegIndex phys : inv.liveOutPhys) {
            if (phys < cpu.physReadyCycle.size() &&
                cpu.physReadyCycle[phys] != CYCLE_INVALID) {
                std::ostringstream os;
                os << "invocation seq " << seq
                   << " is unresolved but its live-out phys " << phys
                   << " already reads as ready at cycle "
                   << cpu.physReadyCycle[phys]
                   << " (fat ROB' commit must be atomic)";
                sink.report("atomicity", now, os.str());
                return;
            }
        }
    }
}

void
OooAuditor::auditScheduler(Cycle now)
{
    // The wakeup scheduler is a derived view of the IQ; this audit
    // proves the view stays an exact mirror (the sqBound watermark is
    // cross-checked at its use site by a DYNASPAM_CHECK instead, where
    // the reference predicate is evaluated on identical state).

    // Pass 1: validate every ready/pending entry and count references.
    std::unordered_map<SeqNum, unsigned> schedRefs;
    std::size_t ready_total = 0;
    std::size_t pending_total = 0;
    auto checkEntry = [&](SeqNum seq, unsigned type,
                          const char *where) -> bool {
        const ooo::DynInst *d = cpu.robFind(seq);
        if (!d || !d->inIq || d->issued) {
            std::ostringstream os;
            os << where << " list holds seq " << seq << " which is "
               << (!d ? "not in the ROB"
                      : (d->issued ? "already issued" : "not in the IQ"));
            sink.report("scheduler", now, os.str());
            return false;
        }
        if (unsigned(d->inst->fuType()) != type) {
            std::ostringstream os;
            os << where << " list " << type << " holds seq " << seq
               << " whose FU type is " << unsigned(d->inst->fuType());
            sink.report("scheduler", now, os.str());
            return false;
        }
        if (d->waitCount != 0) {
            std::ostringstream os;
            os << where << " list holds seq " << seq << " which still has "
               << unsigned(d->waitCount) << " unknown sources";
            sink.report("scheduler", now, os.str());
            return false;
        }
        if (schedRefs[seq]++) {
            std::ostringstream os;
            os << "seq " << seq
               << " referenced twice across the ready/pending lists";
            sink.report("scheduler", now, os.str());
            return false;
        }
        return true;
    };
    for (unsigned t = 0; t < cpu.readyByType.size(); t++) {
        ready_total += cpu.readyByType[t].size();
        for (SeqNum seq : cpu.readyByType[t]) {
            if (!checkEntry(seq, t, "ready"))
                return;
        }
    }
    for (unsigned t = 0; t < cpu.pendingByType.size(); t++) {
        pending_total += cpu.pendingByType[t].size();
        for (const auto &pw : cpu.pendingByType[t]) {
            if (!checkEntry(pw.seq, t, "pending"))
                return;
        }
    }
    if (ready_total != cpu.readyCount || pending_total != cpu.pendingCount) {
        std::ostringstream os;
        os << "scheduler counters out of sync: readyCount "
           << cpu.readyCount << " vs " << ready_total << " entries, "
           << "pendingCount " << cpu.pendingCount << " vs "
           << pending_total << " entries";
        sink.report("scheduler", now, os.str());
        return;
    }

    // Pass 2: consumer-list registrations, one per unknown source.
    std::unordered_map<SeqNum, unsigned> consumerRefs;
    for (std::size_t phys = 0; phys < cpu.regConsumers.size(); phys++) {
        const auto &consumers = cpu.regConsumers[phys];
        if (consumers.empty())
            continue;
        if (cpu.physReadyCycle[phys] != CYCLE_INVALID) {
            std::ostringstream os;
            os << "phys " << phys << " has " << consumers.size()
               << " registered consumers but already reads as ready at "
                  "cycle " << cpu.physReadyCycle[phys];
            sink.report("scheduler", now, os.str());
            return;
        }
        for (SeqNum seq : consumers) {
            const ooo::DynInst *d = cpu.robFind(seq);
            if (!d || !d->inIq || d->issued) {
                std::ostringstream os;
                os << "phys " << phys << " consumer list holds seq " << seq
                   << " which is not waiting in the IQ";
                sink.report("scheduler", now, os.str());
                return;
            }
            consumerRefs[seq]++;
        }
    }

    // Pass 3: every waiting IQ instruction is accounted for exactly once.
    for (SeqNum seq : cpu.iq) {
        const ooo::DynInst *d = cpu.robFind(seq);
        if (!d || !d->inIq) {
            std::ostringstream os;
            os << "IQ holds seq " << seq
               << (d ? " whose inIq flag is clear" : " not in the ROB");
            sink.report("scheduler", now, os.str());
            return;
        }
        const unsigned sched = schedRefs.count(seq) ? schedRefs[seq] : 0;
        const unsigned cons =
            consumerRefs.count(seq) ? consumerRefs[seq] : 0;
        if (d->waitCount == 0 && (sched != 1 || cons != 0)) {
            std::ostringstream os;
            os << "seq " << seq << " has no unknown sources but " << sched
               << " ready/pending references and " << cons
               << " consumer registrations (want 1 and 0)";
            sink.report("scheduler", now, os.str());
            return;
        }
        if (d->waitCount != 0 &&
            (sched != 0 || cons != unsigned(d->waitCount))) {
            std::ostringstream os;
            os << "seq " << seq << " waits on " << unsigned(d->waitCount)
               << " sources but has " << sched
               << " ready/pending references and " << cons
               << " consumer registrations";
            sink.report("scheduler", now, os.str());
            return;
        }
    }
    if (ready_total + pending_total > cpu.iq.size()) {
        std::ostringstream os;
        os << "scheduler lists hold " << ready_total + pending_total
           << " entries but the IQ holds only " << cpu.iq.size();
        sink.report("scheduler", now, os.str());
        return;
    }
}

// ---------------------------------------------------------------------
// StructureAuditor
// ---------------------------------------------------------------------

void
StructureAuditor::auditTCache(const core::TCache &tcache, Cycle now)
{
    const unsigned max_counter = bits::counterMax(tcache.params.counterBits);
    for (std::size_t i = 0; i < tcache.state.entries.size(); i++) {
        const auto &entry = tcache.state.entries[i];
        if (!entry.valid) {
            if (entry.hot) {
                std::ostringstream os;
                os << "T-Cache entry " << i << " is hot but invalid";
                sink.report("tcache", now, os.str());
            }
            continue;
        }
        if (tcache.indexOf(entry.key) != i) {
            std::ostringstream os;
            os << "T-Cache entry " << i << " holds key 0x" << std::hex
               << entry.key << std::dec << " which maps to index "
               << tcache.indexOf(entry.key);
            sink.report("tcache", now, os.str());
        }
        if (entry.counter > max_counter) {
            std::ostringstream os;
            os << "T-Cache entry " << i << " counter " << entry.counter
               << " exceeds the " << tcache.params.counterBits
               << "-bit saturation range";
            sink.report("tcache", now, os.str());
        }
        if (entry.hot && entry.counter <= tcache.params.hotThreshold) {
            std::ostringstream os;
            os << "T-Cache entry " << i << " is hot with counter "
               << entry.counter << " <= threshold "
               << tcache.params.hotThreshold;
            sink.report("tcache", now, os.str());
        }
    }
}

void
StructureAuditor::auditConfigCache(const core::ConfigCache &cache,
                                   const fabric::FabricParams &params,
                                   Cycle now)
{
    const unsigned max_counter = bits::counterMax(cache.params.counterBits);
    for (std::size_t i = 0; i < cache.state.entries.size(); i++) {
        const auto &entry = cache.state.entries[i];
        if (!entry.valid)
            continue;
        if (cache.indexOf(entry.key) != i) {
            std::ostringstream os;
            os << "config-cache entry " << i << " holds key 0x" << std::hex
               << entry.key << std::dec << " which maps to index "
               << cache.indexOf(entry.key);
            sink.report("configcache", now, os.str());
        }
        if (entry.counter > max_counter) {
            std::ostringstream os;
            os << "config-cache entry " << i << " counter " << entry.counter
               << " exceeds the " << cache.params.counterBits
               << "-bit saturation range";
            sink.report("configcache", now, os.str());
        }
        if (!entry.config) {
            std::ostringstream os;
            os << "config-cache entry " << i
               << " is valid but holds no configuration";
            sink.report("configcache", now, os.str());
            continue;
        }
        if (!entry.config->valid()) {
            std::ostringstream os;
            os << "config-cache entry " << i
               << " holds an empty configuration";
            sink.report("configcache", now, os.str());
            continue;
        }
        if (entry.config->key != entry.key) {
            std::ostringstream os;
            os << "config-cache entry " << i << " key 0x" << std::hex
               << entry.key << " does not match its configuration's key 0x"
               << entry.config->key << std::dec;
            sink.report("configcache", now, os.str());
        }
        auditFabricConfig(*entry.config, params, sink, now);
    }
}

// ---------------------------------------------------------------------
// Fabric configuration (frontier legality)
// ---------------------------------------------------------------------

namespace
{

/** Report one frontier violation, prefixed with the config identity. */
void
frontierViolation(const fabric::FabricConfig &config, ViolationSink &sink,
                  Cycle now, const std::string &what)
{
    std::ostringstream os;
    os << "config key 0x" << std::hex << config.key << std::dec << ": "
       << what;
    sink.report("frontier", now, os.str());
}

} // namespace

void
auditFabricConfig(const fabric::FabricConfig &config,
                  const fabric::FabricParams &params, ViolationSink &sink,
                  Cycle now)
{
    const std::size_t n = config.insts.size();

    if (config.numRecords != n) {
        std::ostringstream os;
        os << "covers " << config.numRecords << " records but places "
           << n << " instructions";
        frontierViolation(config, sink, now, os.str());
        return;
    }
    if (config.liveIns.size() > params.liveInFifos) {
        std::ostringstream os;
        os << config.liveIns.size() << " live-ins exceed the "
           << params.liveInFifos << " live-in FIFOs";
        frontierViolation(config, sink, now, os.str());
    }
    if (config.liveOuts.size() > params.liveOutFifos) {
        std::ostringstream os;
        os << config.liveOuts.size() << " live-outs exceed the "
           << params.liveOutFifos << " live-out FIFOs";
        frontierViolation(config, sink, now, os.str());
    }

    // Geometry, PE uniqueness, and route legality.
    std::vector<std::uint8_t> peUsed(
        std::size_t(params.numStripes) * params.pesPerStripe(), 0);
    bool has_stores = false;
    unsigned max_stripe = 0;

    for (std::size_t i = 0; i < n; i++) {
        const fabric::MappedInst &mi = config.insts[i];
        has_stores |= mi.isStore;
        max_stripe = std::max(max_stripe, unsigned(mi.pe.stripe));

        if (mi.pe.stripe >= params.numStripes ||
            mi.pe.index >= params.pesPerStripe()) {
            std::ostringstream os;
            os << "inst " << i << " placed at stripe "
               << unsigned(mi.pe.stripe) << " PE " << unsigned(mi.pe.index)
               << ", outside the fabric geometry";
            frontierViolation(config, sink, now, os.str());
            return;
        }
        std::uint8_t &used =
            peUsed[std::size_t(mi.pe.stripe) * params.pesPerStripe() +
                   mi.pe.index];
        if (used++) {
            std::ostringstream os;
            os << "stripe " << unsigned(mi.pe.stripe) << " PE "
               << unsigned(mi.pe.index) << " allocated twice";
            frontierViolation(config, sink, now, os.str());
            return;
        }

        for (const fabric::OperandRoute *route : {&mi.src1, &mi.src2}) {
            using Kind = fabric::OperandRoute::Kind;
            switch (route->kind) {
              case Kind::None:
                break;
              case Kind::LiveIn:
                if (route->liveInIdx >= config.liveIns.size()) {
                    std::ostringstream os;
                    os << "inst " << i << " reads live-in slot "
                       << route->liveInIdx << " of "
                       << config.liveIns.size();
                    frontierViolation(config, sink, now, os.str());
                    return;
                }
                break;
              case Kind::PassReg:
              case Kind::Routed: {
                if (route->producerIdx >= i) {
                    std::ostringstream os;
                    os << "inst " << i << " consumes producer "
                       << route->producerIdx
                       << " which is not earlier in program order";
                    frontierViolation(config, sink, now, os.str());
                    return;
                }
                const fabric::MappedInst &prod =
                    config.insts[route->producerIdx];
                if (prod.destArch == REG_INVALID) {
                    std::ostringstream os;
                    os << "inst " << i << " consumes producer "
                       << route->producerIdx
                       << " which produces no value";
                    frontierViolation(config, sink, now, os.str());
                    return;
                }
                if (prod.pe.stripe >= mi.pe.stripe) {
                    std::ostringstream os;
                    os << "inst " << i << " in stripe "
                       << unsigned(mi.pe.stripe)
                       << " consumes a value from stripe "
                       << unsigned(prod.pe.stripe)
                       << " (dataflow must move strictly forward)";
                    frontierViolation(config, sink, now, os.str());
                    return;
                }
                const unsigned span =
                    unsigned(mi.pe.stripe) - prod.pe.stripe - 1;
                if (route->kind == Kind::Routed && route->hops != span) {
                    std::ostringstream os;
                    os << "inst " << i << " routed operand pays "
                       << route->hops << " hops but crosses " << span
                       << " extra stripe boundaries";
                    frontierViolation(config, sink, now, os.str());
                    return;
                }
                break;
              }
            }
        }
    }

    if (config.stripesUsed != max_stripe + 1) {
        std::ostringstream os;
        os << "stripesUsed is " << unsigned(config.stripesUsed)
           << " but the deepest placement is in stripe " << max_stripe;
        frontierViolation(config, sink, now, os.str());
    }
    if (config.hasStores != has_stores) {
        frontierViolation(config, sink, now,
                          "hasStores flag disagrees with the placements");
    }

    // Live-outs: sorted by arch, unique, produced by the last writer.
    for (std::size_t i = 0; i < config.liveOuts.size(); i++) {
        const fabric::LiveOut &lo = config.liveOuts[i];
        if (i > 0 && config.liveOuts[i - 1].arch >= lo.arch) {
            frontierViolation(config, sink, now,
                              "live-outs not sorted by arch register");
            return;
        }
        if (lo.producerIdx >= n ||
            config.insts[lo.producerIdx].destArch != lo.arch) {
            std::ostringstream os;
            os << "live-out arch " << lo.arch
               << " credited to inst " << lo.producerIdx
               << " which does not write it";
            frontierViolation(config, sink, now, os.str());
            return;
        }
        for (std::size_t j = lo.producerIdx + 1; j < n; j++) {
            if (config.insts[j].destArch == lo.arch) {
                std::ostringstream os;
                os << "live-out arch " << lo.arch << " credited to inst "
                   << lo.producerIdx << " but inst " << j
                   << " writes it later";
                frontierViolation(config, sink, now, os.str());
                return;
            }
        }
    }

    // Pass-register pressure: each boundary b (feeding stripe b) carries
    // at least one register per distinct producer whose value crosses it.
    // The count here is a lower bound on the mapper's allocation, so
    // exceeding the capacity is definitely illegal.
    std::vector<std::vector<std::uint16_t>> crossing(params.numStripes + 1);
    for (std::size_t i = 0; i < n; i++) {
        for (const fabric::OperandRoute *route :
             {&config.insts[i].src1, &config.insts[i].src2}) {
            using Kind = fabric::OperandRoute::Kind;
            if (route->kind != Kind::PassReg && route->kind != Kind::Routed)
                continue;
            const fabric::MappedInst &prod =
                config.insts[route->producerIdx];
            for (unsigned b = prod.pe.stripe + 1;
                 b <= config.insts[i].pe.stripe; b++) {
                crossing[b].push_back(route->producerIdx);
            }
        }
    }
    for (unsigned b = 0; b < crossing.size(); b++) {
        auto &producers = crossing[b];
        std::sort(producers.begin(), producers.end());
        producers.erase(std::unique(producers.begin(), producers.end()),
                        producers.end());
        if (producers.size() > params.boundaryCapacity()) {
            std::ostringstream os;
            os << "boundary " << b << " carries " << producers.size()
               << " distinct values but has only "
               << params.boundaryCapacity() << " pass registers";
            frontierViolation(config, sink, now, os.str());
            return;
        }
    }
}

} // namespace dynaspam::check
