#include "runner/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <sstream>

#include "check/check.hh"
#include "check/snapshot_audit.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/snapshot_io.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace dynaspam::runner
{
namespace
{

/** Commit interval between safe snapshots during a group warmup. */
constexpr std::uint64_t kSafeSnapshotInterval = 8192;

/** Which warmup-relevant knobs actually differ across @p group. */
core::WarmupGuard
groupGuard(const std::vector<Job> &jobs,
           const std::vector<std::size_t> &group)
{
    core::WarmupGuard guard;
    const Job &rep = jobs[group.front()];
    const sim::SystemConfig repCfg = sim::SystemConfig::make(
        rep.mode, rep.traceLength, rep.numFabrics);
    for (std::size_t idx : group) {
        const Job &job = jobs[idx];
        const sim::SystemConfig cfg = sim::SystemConfig::make(
            job.mode, job.traceLength, job.numFabrics);
        if (cfg.dynaspam.enableOffload != repCfg.dynaspam.enableOffload)
            guard.offloadDiverges = true;
        if (cfg.dynaspam.fabricParams.memorySpeculation !=
            repCfg.dynaspam.fabricParams.memorySpeculation)
            guard.memSpecDiverges = true;
        if (cfg.dynaspam.mapper != repCfg.dynaspam.mapper)
            guard.mapperDiverges = true;
        if (cfg.dynaspam.numFabrics != repCfg.dynaspam.numFabrics)
            guard.numFabricsDiverges = true;
    }
    return guard;
}

/**
 * Snapshot-cache key for a fork group. The warmed snapshot's bytes are
 * a pure function of the representative job (its key covers workload,
 * scale, mode, geometry, warmup length and fidelity), the guard bits
 * (they decide where the warm pass may stop), and verifier presence
 * (check builds carry golden-model state in the snapshot). Everything
 * else that could change behaviour rolls the cache epoch instead.
 */
std::string
snapshotGroupKey(const Job &rep, const core::WarmupGuard &guard)
{
    std::ostringstream os;
    os << rep.key() << "|guard=" << guard.offloadDiverges
       << guard.memSpecDiverges << guard.mapperDiverges
       << guard.numFabricsDiverges << "|chk=" << check::enabled();
    return os.str();
}

} // namespace

void
runForkGroup(const std::vector<Job> &jobs,
             const std::vector<std::size_t> &group,
             std::vector<JobOutcome> &outcomes, const ResultCache *cache,
             const SnapshotCache *snap_cache, ForkGroupStats *stats)
{
    const Job &rep = jobs[group.front()];
    workloads::Workload wl =
        workloads::makeWorkload(rep.workload, rep.scale);
    auto input = sim::SimInput::make(wl.program, wl.initialMemory);

    const sim::SystemConfig repCfg = sim::SystemConfig::make(
        rep.mode, rep.traceLength, rep.numFabrics);
    core::WarmupGuard guard = groupGuard(jobs, group);
    const bool useSnapCache = snap_cache && snap_cache->enabled();
    const std::string snapKey =
        useSnapCache ? snapshotGroupKey(rep, guard) : std::string();
    const std::uint64_t inputHash =
        useSnapCache ? sim::simInputIdentityHash(*input) : 0;

    // Phase A: obtain the warmed snapshot — from the snapshot cache
    // when a valid entry exists, otherwise by simulating the shared
    // prefix (snapshotting at commit boundaries so a guard fire only
    // discards the tail since the last safe point).
    sim::Snapshot safe;
    bool haveSnapshot = false;
    if (useSnapCache) {
        bool rejected = false;
        if (std::optional<std::string> body =
                snap_cache->load(snapKey, inputHash, &rejected)) {
            // Deserialization re-binds the snapshot to our freshly
            // built input and checks its structure; the restore below
            // also needs the geometry of what repCfg constructs (a
            // checksum-valid file from an older parameter default
            // decodes fine), so validate before trusting it.
            if (sim::deserializeSnapshot(*body, input, safe) &&
                sim::Simulation(repCfg, input).fits(safe)) {
                haveSnapshot = true;
                if (stats)
                    stats->snapshotHits++;
            } else {
                rejected = true;
                safe = sim::Snapshot{};
            }
        }
        if (!haveSnapshot && stats) {
            if (rejected)
                stats->snapshotRejects++;
            else
                stats->snapshotMisses++;
        }
    }

    if (!haveSnapshot) {
        sim::Simulation warm(repCfg, input);
        warm.setWarmupGuard(&guard);
        if (stats)
            stats->warmups++;

        warm.snapshot(safe);
        std::uint64_t nextSafe = kSafeSnapshotInterval;
        while (!warm.done() && !guard.fired &&
               warm.committedInsts() < rep.warmupInsts) {
            warm.tick();
            if (guard.fired)
                break;
            if (warm.committedInsts() >= nextSafe) {
                warm.snapshot(safe);
                nextSafe = warm.committedInsts() + kSafeSnapshotInterval;
            }
        }
        if (!guard.fired)
            warm.snapshot(safe);

        if (useSnapCache) {
            std::string body;
            sim::serializeSnapshot(safe, body);
            snap_cache->store(snapKey, inputHash, body);
        }
    }

    // Phase B: fork each member from the warmed snapshot.
    for (std::size_t idx : group) {
        const Job &job = jobs[idx];
        const sim::SystemConfig cfg = sim::SystemConfig::make(
            job.mode, job.traceLength, job.numFabrics);
        sim::Simulation fork(cfg, input);
        fork.restore(safe);
        // Checked builds prove the restore round-trips exactly. Only
        // meaningful when the fork's fabric-pool geometry matches the
        // warmup's — a smaller/larger pool legitimately re-saves with a
        // different fabrics vector.
        if (check::enabled() &&
            cfg.dynaspam.numFabrics == repCfg.dynaspam.numFabrics) {
            sim::Snapshot echo;
            fork.snapshot(echo);
            check::ViolationSink vsink;     // aborts on mismatch
            check::auditSnapshotRoundTrip(safe, echo, vsink, fork.now());
        }
        sim::RunResult result = finishSimulation(job, fork);
        if (cache && cache->enabled())
            cache->store(job, result);
        outcomes[idx] = JobOutcome{job, std::move(result), false};
    }
}

Runner::Runner(RunnerOptions options_)
    : options(std::move(options_)),
      pool(options.jobs ? options.jobs : ThreadPool::defaultWorkers()),
      resultCache(options.cacheDir), snapCache(options.snapshotCacheDir)
{
}

std::vector<JobOutcome>
Runner::runAll(const std::vector<Job> &jobs)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    std::atomic<std::uint64_t> hits{0}, misses{0};

    // Env-requested tracing wants every job to actually simulate (a
    // cache hit would record no events), and the traced runs must not
    // poison the cache for future untraced sweeps, so bypass both ends.
    // Tracing also forces straight-through execution: a forked run
    // would record no warmup events.
    const bool tracing = trace::compiledIn() && trace::envRequested();

    // Probe the cache for every job first so fork groups are built from
    // actual misses only.
    std::vector<char> isMiss(jobs.size(), 1);
    pool.parallelFor(jobs.size(), [&](std::size_t i) {
        if (tracing)
            return;
        if (auto cached = resultCache.load(jobs[i])) {
            outcomes[i] = JobOutcome{jobs[i], std::move(*cached), true};
            isMiss[i] = 0;
            hits++;
        }
    });

    // Partition the misses into work units — fork groups plus
    // straight-through singles — in job-list order, so the outcome
    // vector (and the cache bookkeeping) is identical for any worker
    // count and for fork vs no-fork execution.
    std::vector<std::vector<std::size_t>> units;
    {
        // Canonical miss order: sort by job hash (key, then index, as
        // tiebreaks) before partitioning, so a fork group's member
        // order — and therefore its warmup representative and fork
        // sequence — does not depend on the caller's job-list order.
        // Outcomes still land by original index, so reports are
        // byte-identical either way.
        std::vector<std::size_t> missOrder;
        for (std::size_t i = 0; i < jobs.size(); i++)
            if (isMiss[i])
                missOrder.push_back(i);
        std::sort(missOrder.begin(), missOrder.end(),
                  [&](std::size_t a, std::size_t b) {
                      const std::uint64_t ha = jobs[a].hash();
                      const std::uint64_t hb = jobs[b].hash();
                      if (ha != hb)
                          return ha < hb;
                      const std::string ka = jobs[a].key();
                      const std::string kb = jobs[b].key();
                      if (ka != kb)
                          return ka < kb;
                      return a < b;
                  });
        std::map<std::string, std::size_t> groupOf;
        for (std::size_t i : missOrder) {
            if (!options.forkSweeps || tracing ||
                jobs[i].warmupInsts == 0) {
                units.push_back({i});
                continue;
            }
            auto [it, fresh] =
                groupOf.try_emplace(forkGroupKey(jobs[i]), units.size());
            if (fresh)
                units.emplace_back();
            units[it->second].push_back(i);
        }
    }

    const std::uint64_t warmupsBefore = groupStats.warmups.load();
    const std::uint64_t snapHitsBefore = groupStats.snapshotHits.load();

    pool.parallelFor(units.size(), [&](std::size_t u) {
        const std::vector<std::size_t> &unit = units[u];
        // A one-member warmup unit still routes through the fork path
        // when the snapshot cache is on: the warm prefix is then loaded
        // from / persisted to disk exactly like a multi-member group.
        const bool grouped =
            unit.size() > 1 ||
            (snapCache.enabled() && !tracing && options.forkSweeps &&
             jobs[unit.front()].warmupInsts > 0);
        if (!grouped) {
            const Job &job = jobs[unit.front()];
            sim::RunResult result = execute(job);
            if (!tracing)
                resultCache.store(job, result);
            outcomes[unit.front()] =
                JobOutcome{job, std::move(result), false};
        } else {
            runForkGroup(jobs, unit, outcomes,
                         tracing ? nullptr : &resultCache,
                         snapCache.enabled() ? &snapCache : nullptr,
                         &groupStats);
        }
        misses += unit.size();
    });

    registry.counter("runner.jobs_total").inc(jobs.size());
    registry.counter("runner.cache_hits").inc(hits.load());
    registry.counter("runner.cache_misses").inc(misses.load());
    registry.counter("runner.jobs_executed").inc(misses.load());
    // Snapshot bookkeeping only exists when the snapshot cache does:
    // reports from snapshot-less runs keep their exact historical
    // bytes (the cluster coordinator synthesizes that stats block).
    if (snapCache.enabled()) {
        registry.counter("runner.warmups")
            .inc(groupStats.warmups.load() - warmupsBefore);
        registry.counter("runner.snapshot_hits")
            .inc(groupStats.snapshotHits.load() - snapHitsBefore);
    }
    return outcomes;
}

} // namespace dynaspam::runner
