/**
 * @file
 * sweep-cold and sweep-fork.
 *
 * The measured path is the program's own: Runner::runAll, then the
 * report written in canonical job order. Traced runs add a replay of
 * the same job list that calls the layers one by one (workload build,
 * oracle, cycle loop, collect, caches, snapshots, render) inside spans;
 * its report bytes must equal the measured path's, so the replay cannot
 * drift from what it explains.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"
#include "runner/thread_pool.hh"
#include "process.hh"
#include "schedule.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/snapshot_io.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
using dynaspam::runner::Job;
using dynaspam::runner::JobOutcome;
using dynaspam::sim::SystemMode;

/** Commit interval between safe snapshots while warming a fork group
 *  (the runner's own interval; results do not depend on it). */
constexpr std::uint64_t kSafeSnapshotInterval = 8192;

/** Fewest measured iterations per run, whatever --seconds says. */
constexpr unsigned kMinIterations = 3;

/** Set-up repetitions of a sweep: it takes microseconds, so many. */
constexpr unsigned kSweepSetupReps = 101;

unsigned
runnerThreads(const RunConfig &cfg)
{
    return std::max(1u, cfg.nproc - 1);
}

void
resetDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

/** Report bytes for @p outcomes in canonical order, as the CLI writes. */
std::string
renderReport(const std::string &name, const std::vector<JobOutcome> &outcomes,
             const std::vector<std::size_t> &order)
{
    std::vector<JobOutcome> canon;
    canon.reserve(order.size());
    std::size_t hits = 0;
    for (std::size_t i : order) {
        canon.push_back(outcomes[i]);
        hits += outcomes[i].fromCache;
    }
    const dynaspam::StatRegistry stats =
        dynaspam::runner::sweepRequestStats(canon.size(), hits);
    std::ostringstream os;
    dynaspam::runner::writeSweepReport(os, name, canon, &stats);
    return os.str();
}

/** The runner's execution order for @p jobs: by hash, key, index. */
std::vector<std::size_t>
executionOrder(const std::vector<Job> &jobs)
{
    std::vector<std::size_t> idx(jobs.size());
    for (std::size_t i = 0; i < idx.size(); i++)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        if (jobs[a].hash() != jobs[b].hash())
            return jobs[a].hash() < jobs[b].hash();
        if (jobs[a].key() != jobs[b].key())
            return jobs[a].key() < jobs[b].key();
        return a < b;
    });
    return idx;
}

/** Deterministic work counts summed over one sweep. */
void
addWorkCounts(RunOutput &out, const std::vector<JobOutcome> &outcomes)
{
    double committed = 0, squashed = 0, wakeups = 0, robWrites = 0,
           mappings = 0, offloads = 0, invCommitted = 0, invSquashed = 0,
           fabricInsts = 0, dcache = 0, cycles = 0;
    for (const JobOutcome &o : outcomes) {
        const auto &r = o.result;
        committed += double(r.pipeline.committedInsts);
        squashed += double(r.pipeline.squashedInsts);
        wakeups += double(r.pipeline.iqWakeups);
        robWrites += double(r.pipeline.robWrites);
        mappings += double(r.dynaspam.mappingsCompleted);
        offloads += double(r.dynaspam.offloadsIssued);
        invCommitted += double(r.dynaspam.invocationsCommitted);
        invSquashed += double(r.dynaspam.invocationsSquashed);
        fabricInsts += double(r.instsFabric);
        dcache += double(r.pipeline.dcacheAccesses);
        cycles += double(r.cycles);
    }
    out.set("ooo.committed_insts", committed);
    out.set("ooo.squashed_insts", squashed);
    out.set("ooo.iq_wakeups", wakeups);
    out.set("ooo.rob_writes", robWrites);
    out.set("core.mappings_completed", mappings);
    out.set("core.offloads_issued", offloads);
    out.set("core.invocations_committed", invCommitted);
    out.set("core.invocations_squashed", invSquashed);
    out.set("fabric.insts", fabricInsts);
    out.set("memory.dcache_accesses", dcache);
    out.set("sim.cycles", cycles);
}

double
geomean(const std::vector<double> &xs)
{
    double logSum = 0.0;
    for (double x : xs)
        logSum += std::log(x);
    return xs.empty() ? 0.0 : std::exp(logSum / double(xs.size()));
}

/** The Figure 8/9 headline numbers against the paper's. */
void
addModelAccuracy(RunOutput &out, const std::vector<JobOutcome> &outcomes)
{
    std::map<std::string, std::map<SystemMode, const dynaspam::sim::RunResult *>>
        byKernel;
    for (const JobOutcome &o : outcomes)
        byKernel[o.job.workload][o.job.mode] = &o.result;
    std::vector<double> spec, nospec, mapping, energyLeft;
    for (auto &[kernel, modes] : byKernel) {
        const auto *base = modes.at(SystemMode::BaselineOoo);
        const double cycles = double(base->cycles);
        spec.push_back(cycles / double(modes.at(SystemMode::AccelSpec)->cycles));
        nospec.push_back(cycles /
                         double(modes.at(SystemMode::AccelNoSpec)->cycles));
        mapping.push_back(double(modes.at(SystemMode::MappingOnly)->cycles) /
                          cycles);
        energyLeft.push_back(modes.at(SystemMode::AccelSpec)->energyTotal() /
                             base->energyTotal());
    }
    const double s = geomean(spec), n = geomean(nospec);
    const double e = 1.0 - geomean(energyLeft), m = geomean(mapping) - 1.0;
    out.set("model.speedup_geomean.accel-spec", s);
    out.set("model.speedup_geomean.accel-spec.error", std::fabs(s - 1.42));
    out.set("model.speedup_geomean.accel-nospec", n);
    out.set("model.speedup_geomean.accel-nospec.error", std::fabs(n - 1.23));
    out.set("model.energy_reduction_geomean", e);
    out.set("model.energy_reduction_geomean.error", std::fabs(e - 0.239));
    out.set("model.mapping_overhead_geomean", m);
    // The paper bounds the overhead (< 3%) rather than giving a value.
    out.set("model.mapping_overhead_geomean.error", std::max(0.0, m - 0.03));
}

std::uint64_t
totalInsts(const std::vector<JobOutcome> &outcomes)
{
    std::uint64_t n = 0;
    for (const JobOutcome &o : outcomes)
        n += o.result.instsTotal;
    return n;
}

/** Median over replays of each named per-layer value. */
class ReplayMetrics
{
  public:
    void add(const std::string &name, double value) { values[name].push_back(value); }

    void
    publish(RunOutput &out) const
    {
        for (const auto &[name, v] : values)
            out.set(name, median(v));
    }

  private:
    std::map<std::string, std::vector<double>> values;
};

/** Spans of the traces rooted at @p roots. */
std::vector<Span>
spansOf(const Tracer &tracer, const std::set<std::uint64_t> &roots)
{
    std::vector<Span> out;
    for (const Span &s : tracer.spans())
        if (roots.count(s.trace))
            out.push_back(s);
    return out;
}

double
selfOf(const std::map<std::string, LayerTotals> &totals, const std::string &name)
{
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.selfSeconds;
}

/** Busy share and mean queue wait of the "job"/"fork.group" spans. */
void
addRunnerShares(ReplayMetrics &rm, const std::vector<Span> &spans,
                const char *unit_name, unsigned threads)
{
    std::map<std::uint64_t, const Span *> roots;
    for (const Span &s : spans)
        if (s.parent == 0)
            roots[s.id] = &s;
    double busy = 0.0, wall = 0.0, wait = 0.0;
    std::size_t units = 0;
    for (const auto &[id, root] : roots)
        wall += root->seconds();
    for (const Span &s : spans) {
        if (s.name != unit_name)
            continue;
        busy += s.seconds();
        auto it = roots.find(s.parent);
        if (it != roots.end())
            wait += double(s.startNs - it->second->startNs) * 1e-9;
        units++;
    }
    rm.add("runner.busy_frac", wall > 0 ? busy / (wall * threads) : 0.0);
    rm.add("runner.wait_s", units ? wait / double(units) : 0.0);
}


/** Per-replay sums the spans cannot give (instruction and cycle counts,
 *  oracle inputs). Written by pool threads under a lock. */
struct ReplayCounts
{
    std::mutex mutex;
    double hostInsts = 0, fabricInsts = 0, cycles = 0, oracleInsts = 0;
    std::map<std::string, unsigned> oraclePasses;   // input -> passes
    double reusedInsts = 0, memberInsts = 0, snapshotBytes = 0;
    unsigned guardFired = 0;

    void
    job(const Job &job, const dynaspam::sim::RunResult &r)
    {
        std::lock_guard<std::mutex> lock(mutex);
        (job.mode == SystemMode::BaselineOoo ? hostInsts : fabricInsts) +=
            double(r.instsTotal);
        cycles += double(r.cycles);
    }

    void
    oracle(const Job &job, std::uint64_t insts)
    {
        std::lock_guard<std::mutex> lock(mutex);
        oracleInsts += double(insts);
        oraclePasses[job.workload + "|" + std::to_string(job.scale)]++;
    }

    double
    repeatFrac() const
    {
        double passes = 0;
        for (const auto &[input, n] : oraclePasses)
            passes += n;
        return passes ? (passes - double(oraclePasses.size())) / passes : 0.0;
    }
};

/** Turn one replay's spans and counts into per-layer values. */
void
addReplay(ReplayMetrics &rm, const std::vector<Span> &spans,
          const ReplayCounts &c, const char *unit_name, unsigned threads,
          std::size_t report_bytes)
{
    const auto totals = layerTotals(spans);
    const double host = selfOf(totals, "cycle_loop.host");
    const double fabric = selfOf(totals, "cycle_loop.fabric");
    rm.add("workloads.build_s", selfOf(totals, "workloads.build"));
    rm.add("oracle.self_s", selfOf(totals, "oracle"));
    rm.add("oracle.insts", c.oracleInsts);
    rm.add("oracle.repeat_frac", c.repeatFrac());
    rm.add("cycle_loop.self_s.host", host);
    rm.add("cycle_loop.self_s.fabric", fabric);
    rm.add("cycle_loop.ns_per_inst.host",
           c.hostInsts ? host * 1e9 / c.hostInsts : 0.0);
    rm.add("cycle_loop.ns_per_inst.fabric",
           c.fabricInsts ? fabric * 1e9 / c.fabricInsts : 0.0);
    rm.add("cycle_loop.ns_per_cycle",
           c.cycles ? (host + fabric) * 1e9 / c.cycles : 0.0);
    rm.add("collect.self_s", selfOf(totals, "collect"));
    rm.add("result_cache.store_s", selfOf(totals, "result_cache.store"));
    rm.add("result_cache.load_s", selfOf(totals, "result_cache.load"));
    rm.add("report.render_s", selfOf(totals, "report.render"));
    rm.add("report.bytes", double(report_bytes));
    rm.add("fork.warm_s", selfOf(totals, "fork.warm"));
    rm.add("fork.reuse_frac",
           c.memberInsts ? c.reusedInsts / c.memberInsts : 0.0);
    rm.add("fork.guard_fired", c.guardFired);
    rm.add("snapshot.capture_s", selfOf(totals, "snapshot.capture"));
    rm.add("snapshot.restore_s", selfOf(totals, "snapshot.restore"));
    rm.add("snapshot.serialize_s", selfOf(totals, "snapshot.serialize"));
    rm.add("snapshot.deserialize_s", selfOf(totals, "snapshot.deserialize"));
    rm.add("snapshot.bytes", c.snapshotBytes);
    rm.add("snapshot_cache.store_s", selfOf(totals, "snapshot_cache.store"));
    rm.add("snapshot_cache.load_s", selfOf(totals, "snapshot_cache.load"));
    addRunnerShares(rm, spans, unit_name, threads);
}

/** Build a kernel's oracle input inside spans. */
std::shared_ptr<const dynaspam::sim::SimInput>
tracedInput(Tracer &tracer, const Job &job, ReplayCounts &counts)
{
    std::optional<dynaspam::workloads::Workload> wl;
    {
        auto s = tracer.span("workloads.build");
        wl.emplace(dynaspam::workloads::makeWorkload(job.workload, job.scale));
    }
    auto s = tracer.span("oracle");
    auto input = dynaspam::sim::SimInput::make(wl->program, wl->initialMemory);
    counts.oracle(job, input->trace().size());
    return input;
}

const char *
cycleLoopSpan(const Job &job)
{
    return job.mode == SystemMode::BaselineOoo ? "cycle_loop.host"
                                               : "cycle_loop.fabric";
}

/** Drive @p simu to completion and collect, inside spans. */
dynaspam::sim::RunResult
tracedFinish(Tracer &tracer, const Job &job, dynaspam::sim::Simulation &simu)
{
    {
        auto s = tracer.span(cycleLoopSpan(job));
        simu.runToCompletion();
    }
    auto s = tracer.span("collect");
    return simu.collectResult();
}

/**
 * Replay a cold sweep layer by layer: what runAll does for a job list
 * without warmups against an empty result cache.
 */
std::string
replayCold(Tracer &tracer, const std::vector<Job> &jobs,
           const std::vector<std::size_t> &order, unsigned threads,
           const std::string &cache_dir, ReplayMetrics &rm)
{
    resetDir(cache_dir);
    const dynaspam::runner::ResultCache cache(cache_dir);
    const std::vector<std::size_t> exec = executionOrder(jobs);
    std::vector<JobOutcome> outcomes(jobs.size());
    ReplayCounts counts;
    std::string bytes;

    dynaspam::runner::ThreadPool pool(threads);
    std::uint64_t trace = 0;
    {
        auto root = tracer.root("sweep");
        trace = root.trace();
        pool.parallelFor(jobs.size(), [&](std::size_t u) {
            const Job &job = jobs[exec[u]];
            auto js = tracer.span("job", root.id(), root.trace());
            bool hit;
            {
                auto s = tracer.span("result_cache.load");
                hit = cache.load(job).has_value();
            }
            auto input = tracedInput(tracer, job, counts);
            const auto cfg = dynaspam::sim::SystemConfig::make(
                job.mode, job.traceLength, job.numFabrics);
            dynaspam::sim::Simulation simu(cfg, input);
            dynaspam::sim::RunResult r = tracedFinish(tracer, job, simu);
            {
                auto s = tracer.span("result_cache.store");
                cache.store(job, r);
            }
            counts.job(job, r);
            outcomes[exec[u]] = JobOutcome{job, std::move(r), hit};
        });
        auto s = tracer.span("report.render");
        bytes = renderReport("fig8", outcomes, order);
    }
    addReplay(rm, spansOf(tracer, {trace}), counts, "job", threads,
              bytes.size());
    return bytes;
}

/** Which warmup-relevant knobs differ across a fork group. */
dynaspam::core::WarmupGuard
groupGuard(const std::vector<Job> &jobs, const std::vector<std::size_t> &group)
{
    dynaspam::core::WarmupGuard guard;
    const Job &rep = jobs[group.front()];
    const auto repCfg = dynaspam::sim::SystemConfig::make(
        rep.mode, rep.traceLength, rep.numFabrics);
    for (std::size_t idx : group) {
        const auto cfg = dynaspam::sim::SystemConfig::make(
            jobs[idx].mode, jobs[idx].traceLength, jobs[idx].numFabrics);
        guard.offloadDiverges |=
            cfg.dynaspam.enableOffload != repCfg.dynaspam.enableOffload;
        guard.memSpecDiverges |=
            cfg.dynaspam.fabricParams.memorySpeculation !=
            repCfg.dynaspam.fabricParams.memorySpeculation;
        guard.mapperDiverges |= cfg.dynaspam.mapper != repCfg.dynaspam.mapper;
        guard.numFabricsDiverges |=
            cfg.dynaspam.numFabrics != repCfg.dynaspam.numFabrics;
    }
    return guard;
}

/** Fork groups in the runner's canonical order. */
std::vector<std::vector<std::size_t>>
forkGroups(const std::vector<Job> &jobs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::string, std::size_t> groupOf;
    for (std::size_t i : executionOrder(jobs)) {
        auto [it, fresh] = groupOf.try_emplace(
            dynaspam::runner::forkGroupKey(jobs[i]), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

/**
 * Replay one pass of a forked sweep layer by layer: warm, capture,
 * serialize and store each group's prefix (@p warm_pass), or load and
 * deserialize it; then restore and finish every member.
 */
std::string
replayForkPass(Tracer &tracer, const std::vector<Job> &jobs,
               const std::vector<std::size_t> &order, unsigned threads,
               const dynaspam::runner::SnapshotCache &snap_cache,
               bool warm_pass, Ledger &ledger, ReplayCounts &counts,
               std::set<std::uint64_t> &roots)
{
    const auto groups = forkGroups(jobs);
    std::vector<JobOutcome> outcomes(jobs.size());
    std::string bytes;
    dynaspam::runner::ThreadPool pool(threads);
    auto root = tracer.root("sweep");
    roots.insert(root.trace());
    pool.parallelFor(groups.size(), [&](std::size_t g) {
        const std::vector<std::size_t> &group = groups[g];
        const Job &rep = jobs[group.front()];
        auto gs = tracer.span("fork.group", root.id(), root.trace());
        auto input = tracedInput(tracer, rep, counts);
        const auto repCfg = dynaspam::sim::SystemConfig::make(
            rep.mode, rep.traceLength, rep.numFabrics);
        dynaspam::core::WarmupGuard guard = groupGuard(jobs, group);
        const std::string key = dynaspam::runner::forkGroupKey(rep);

        dynaspam::sim::Snapshot safe;
        if (warm_pass) {
            {
                auto s = tracer.span("fork.warm");
                dynaspam::sim::Simulation warm(repCfg, input);
                warm.setWarmupGuard(&guard);
                auto capture = [&] {
                    auto c = tracer.span("snapshot.capture");
                    warm.snapshot(safe);
                };
                capture();
                std::uint64_t nextSafe = kSafeSnapshotInterval;
                while (!warm.done() && !guard.fired &&
                       warm.committedInsts() < rep.warmupInsts) {
                    warm.tick();
                    if (guard.fired)
                        break;
                    if (warm.committedInsts() >= nextSafe) {
                        capture();
                        nextSafe = warm.committedInsts() + kSafeSnapshotInterval;
                    }
                }
                if (!guard.fired)
                    capture();
            }
            std::string body;
            {
                auto s = tracer.span("snapshot.serialize");
                dynaspam::sim::serializeSnapshot(safe, body);
            }
            {
                auto s = tracer.span("snapshot_cache.store");
                snap_cache.store(key,
                                 dynaspam::sim::simInputIdentityHash(*input),
                                 body);
            }
            std::lock_guard<std::mutex> lock(counts.mutex);
            counts.guardFired += guard.fired;
            counts.snapshotBytes += double(body.size());
        } else {
            std::optional<std::string> body;
            {
                auto s = tracer.span("snapshot_cache.load");
                body = snap_cache.load(
                    key, dynaspam::sim::simInputIdentityHash(*input));
            }
            auto s = tracer.span("snapshot.deserialize");
            ledger.record(body && dynaspam::sim::deserializeSnapshot(
                                      *body, input, safe),
                          "snapshot cache miss in the warm pass: " + key);
        }

        for (std::size_t idx : group) {
            const Job &job = jobs[idx];
            const auto cfg = dynaspam::sim::SystemConfig::make(
                job.mode, job.traceLength, job.numFabrics);
            std::optional<dynaspam::sim::Simulation> fork;
            {
                auto s = tracer.span("snapshot.restore");
                fork.emplace(cfg, input);
                fork->restore(safe);
            }
            const double reused = double(fork->committedInsts());
            dynaspam::sim::RunResult r = tracedFinish(tracer, job, *fork);
            {
                std::lock_guard<std::mutex> lock(counts.mutex);
                counts.reusedInsts += reused;
                counts.memberInsts += double(r.instsTotal);
            }
            counts.job(job, r);
            outcomes[idx] = JobOutcome{job, std::move(r), false};
        }
    });
    auto s = tracer.span("report.render");
    bytes = renderReport("table5", outcomes, order);
    return bytes;
}

/** Set-up: build the job list and a Runner, kSweepSetupReps times. */
std::unique_ptr<dynaspam::runner::Runner>
timedSetup(RunOutput &out, const std::function<std::vector<Job>()> &make_jobs,
           const dynaspam::runner::RunnerOptions &opts, std::vector<Job> &jobs)
{
    std::vector<double> times;
    std::unique_ptr<dynaspam::runner::Runner> runner;
    for (unsigned k = 0; k < kSweepSetupReps; k++) {
        runner.reset();
        const auto t0 = Clock::now();
        jobs = make_jobs();
        for (const std::string &dir : {opts.cacheDir, opts.snapshotCacheDir})
            if (!dir.empty())
                fs::create_directories(dir);
        runner = std::make_unique<dynaspam::runner::Runner>(opts);
        times.push_back(secondsSince(t0));
    }
    out.set("setup_s", median(times));
    return runner;
}

/** The end-to-end metrics of a sweep workload. */
void
publishSweep(RunOutput &out, const std::vector<double> &walls,
             std::size_t jobs_per_sweep, std::uint64_t insts_per_sweep)
{
    const double wall = median(walls);
    out.set("wall_s", wall);
    out.set("sim_kips", double(insts_per_sweep) / wall / 1e3);
    out.set("rps", double(jobs_per_sweep) / wall);
    // A sweep is one request: its latency is the sweep's wall time. A
    // run holds a few dozen sweeps, too few for a p99, so the tail is
    // the highest percentile with enough samples beyond it.
    const Tail tail = tailPercentile(walls, 0.99);
    out.set("latency_p50_ms", wall * 1e3);
    out.set("latency_p99_ms", tail.value * 1e3);
    out.set("peak_rss_mb", peakRssMb("self"));
    std::string list;
    for (double w : walls)
        list += (list.empty() ? "" : " ") + std::to_string(w);
    out.info["sweep_walls_s"] = list;
    out.info["latency_p99_ms"] = tailLabel(tail, walls.size(), "sweeps");
}

} // namespace

void
runSweepCold(const RunConfig &cfg, Tracer &tracer, RunOutput &out)
{
    const std::vector<Job> canonical = dynaspam::runner::sweepJobs(
        "fig8", dynaspam::workloads::allWorkloadNames(), kSweepScale, 32);
    const unsigned threads = runnerThreads(cfg);
    dynaspam::runner::RunnerOptions opts;
    opts.jobs = threads;
    opts.cacheDir = cfg.workDir + "/result-cache";

    std::vector<Job> jobs;
    auto runner = timedSetup(
        out, [&] { return coldSweepJobs(cfg.seed); }, opts, jobs);
    const std::vector<std::size_t> order = canonicalOrder(jobs, canonical);

    std::vector<double> walls, replayWalls;
    std::string reference;
    std::uint64_t insts = 0;
    ReplayMetrics rm;
    // One unmeasured warm-up iteration first (page faults, allocator
    // growth); it still serves as the byte reference.
    bool warmup = true;
    auto deadline = Clock::now();
    while (warmup || walls.size() < kMinIterations || Clock::now() < deadline) {
        resetDir(opts.cacheDir);
        if (!runner)
            runner = std::make_unique<dynaspam::runner::Runner>(opts);
        const auto t0 = Clock::now();
        const std::vector<JobOutcome> outcomes = runner->runAll(jobs);
        const std::string bytes = renderReport("fig8", outcomes, order);
        const double wall = secondsSince(t0);

        checkSweep(out.ledger, outcomes, bytes, reference, "sweep");
        if (reference.empty()) {
            reference = bytes;
            insts = totalInsts(outcomes);
            std::vector<JobOutcome> canon;
            for (std::size_t i : order)
                canon.push_back(outcomes[i]);
            addWorkCounts(out, canon);
            addModelAccuracy(out, canon);
        }
        if (warmup) {
            warmup = false;
            out.info["warmup_wall_s"] = std::to_string(wall);
            deadline = secondsFromNow(cfg.seconds);
            continue;
        }
        walls.push_back(wall);
        if (cfg.trace) {
            // The replay brings its own pool; keep one pool alive at a
            // time so the run never exceeds nproc threads.
            runner.reset();
            const auto r0 = Clock::now();
            const std::string replayed =
                replayCold(tracer, jobs, order, threads,
                           cfg.workDir + "/replay-cache", rm);
            replayWalls.push_back(secondsSince(r0));
            checkSweep(out.ledger, outcomes, replayed, reference,
                       "traced replay");
        }
    }
    publishSweep(out, walls, jobs.size(), insts);
    out.info["report_digest"] = digestHex(reference);
    if (cfg.trace) {
        rm.publish(out);
        out.tracingOverheadSeconds = median(replayWalls) - median(walls);
    }
}

void
runSweepFork(const RunConfig &cfg, Tracer &tracer, RunOutput &out)
{
    // Input generation: each kernel warms for a fixed share of its own
    // oracle length.
    const std::vector<std::string> &names =
        dynaspam::workloads::allWorkloadNames();
    std::vector<std::uint64_t> warmups;
    for (const std::string &name : names) {
        auto wl = dynaspam::workloads::makeWorkload(name, kSweepScale);
        auto input =
            dynaspam::sim::SimInput::make(wl.program, wl.initialMemory);
        warmups.push_back(std::uint64_t(double(input->trace().size()) *
                                        kForkWarmupShare));
    }
    std::vector<Job> canonical = forkSweepJobs(warmups, 0);
    std::sort(canonical.begin(), canonical.end(),
              [](const Job &a, const Job &b) { return a.key() < b.key(); });

    const unsigned threads = runnerThreads(cfg);

    // Reference: the same jobs straight through, no forking, no caches.
    // Built before set-up so that only one runner pool exists at a time.
    std::string reference;
    {
        std::vector<Job> jobs = forkSweepJobs(warmups, cfg.seed);
        dynaspam::runner::RunnerOptions straight;
        straight.jobs = threads;
        straight.forkSweeps = false;
        reference =
            renderReport("table5", dynaspam::runner::Runner(straight).runAll(jobs),
                         canonicalOrder(jobs, canonical));
    }

    dynaspam::runner::RunnerOptions opts;
    opts.jobs = threads;
    opts.forkSweeps = true;
    opts.snapshotCacheDir = cfg.workDir + "/snapshot-cache";

    std::vector<Job> jobs;
    auto runner = timedSetup(
        out, [&] { return forkSweepJobs(warmups, cfg.seed); }, opts, jobs);
    const std::vector<std::size_t> order = canonicalOrder(jobs, canonical);
    const std::size_t groups = forkGroups(jobs).size();

    std::vector<double> walls;
    std::uint64_t insts = 0;
    ReplayMetrics rm;
    std::vector<double> replayWalls;
    // One unmeasured warm-up iteration first (page faults, allocator
    // growth); its outputs are checked like every other.
    bool warmup = true;
    auto deadline = Clock::now();
    while (warmup || walls.size() < kMinIterations || Clock::now() < deadline) {
        resetDir(opts.snapshotCacheDir);
        if (!runner)
            runner = std::make_unique<dynaspam::runner::Runner>(opts);
        const auto &stats = runner->forkStats();
        const std::uint64_t warm0 = stats.warmups, hits0 = stats.snapshotHits;
        const auto t0 = Clock::now();
        const std::vector<JobOutcome> cold = runner->runAll(jobs);
        const std::string coldBytes = renderReport("table5", cold, order);
        const std::uint64_t warm1 = stats.warmups, hits1 = stats.snapshotHits;
        const std::vector<JobOutcome> warm = runner->runAll(jobs);
        const std::string warmBytes = renderReport("table5", warm, order);
        const double wall = secondsSince(t0);

        // Pass 1 warms every group and stores it; pass 2 loads them all.
        out.ledger.record(warm1 - warm0 == groups && hits1 == hits0,
                          "cold pass did not warm every group");
        out.ledger.record(stats.warmups == warm1 &&
                              stats.snapshotHits - hits1 == groups,
                          "warm pass did not load every group");
        out.set("fork.warmups", double(warm1 - warm0));
        out.set("fork.snapshot_hits", double(stats.snapshotHits - hits1));
        checkSweep(out.ledger, cold, coldBytes, reference, "cold fork pass");
        checkSweep(out.ledger, warm, warmBytes, reference, "warm fork pass");
        if (insts == 0) {
            insts = 2 * totalInsts(cold);
            std::vector<JobOutcome> canon;
            for (std::size_t i : order)
                canon.push_back(cold[i]);
            addWorkCounts(out, canon);
        }

        if (warmup) {
            warmup = false;
            out.info["warmup_wall_s"] = std::to_string(wall);
            deadline = secondsFromNow(cfg.seconds);
            continue;
        }
        walls.push_back(wall);
        if (cfg.trace) {
            runner.reset();
            const std::string dir = cfg.workDir + "/replay-snapshots";
            resetDir(dir);
            const dynaspam::runner::SnapshotCache snapCache(dir);
            ReplayCounts counts;
            std::set<std::uint64_t> roots;
            std::size_t bytes = 0;
            const auto r0 = Clock::now();
            for (bool warmPass : {true, false}) {
                const std::string replayed =
                    replayForkPass(tracer, jobs, order, threads, snapCache,
                                   warmPass, out.ledger, counts, roots);
                checkSweep(out.ledger, warm, replayed, reference,
                           "traced fork replay");
                bytes = replayed.size();
            }
            replayWalls.push_back(secondsSince(r0));
            // Both passes count their members; report one pass's share.
            addReplay(rm, spansOf(tracer, roots), counts, "fork.group",
                      threads, bytes);
        }
    }

    publishSweep(out, walls, 2 * jobs.size(), insts);
    out.info["report_digest"] = digestHex(reference);
    out.info["fork_groups"] = std::to_string(groups);
    if (cfg.trace) {
        rm.publish(out);
        out.tracingOverheadSeconds = median(replayWalls) - median(walls);
    }
}

} // namespace perfbench
