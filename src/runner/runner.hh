/**
 * @file
 * The experiment runner: jobs in, deterministic results out.
 *
 * Runner ties the pieces together: each job is first probed against the
 * ResultCache; the misses are planned into units (planUnits: single
 * jobs and fork groups, in canonical order) and each unit runs
 * (runUnit) on the FIFO ThreadPool; results land in a slot
 * owned by the job's index, so the returned vector is identical for any
 * worker count. The cluster worker plans and runs its misses through
 * the same two functions. Cache bookkeeping is exposed through a
 * StatRegistry ("runner.cache_hits", "runner.cache_misses",
 * "runner.jobs_executed", "runner.jobs_total"), which tests and the CLI
 * use to prove that a warm-cache rerun performs zero simulations.
 */

#ifndef DYNASPAM_RUNNER_RUNNER_HH
#define DYNASPAM_RUNNER_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/snapshot_cache.hh"
#include "runner/thread_pool.hh"

namespace dynaspam::runner
{

/** Execution knobs for a Runner. */
struct RunnerOptions
{
    /** Worker threads; 0 means ThreadPool::defaultWorkers(). */
    unsigned jobs = 0;
    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;
    /**
     * Fork warmed snapshots across jobs that share a warmup-invariant
     * prefix (only jobs with warmupInsts > 0 are eligible). Results are
     * byte-identical either way; disabling is a debugging aid
     * (`--no-fork`).
     */
    bool forkSweeps = true;
    /**
     * Snapshot-cache directory: warmed fork-group snapshots are
     * serialized here so repeat sweeps (and process restarts) skip the
     * warm pass entirely. Empty disables on-disk snapshots.
     */
    std::string snapshotCacheDir;
};

/**
 * Cumulative fork-group execution counters. `warmups` counts warm
 * passes actually simulated — a sweep fully served from the snapshot
 * cache performs zero, which is what the CI ship-smoke asserts.
 */
struct ForkGroupStats
{
    std::atomic<std::uint64_t> warmups{0};
    std::atomic<std::uint64_t> snapshotHits{0};
    std::atomic<std::uint64_t> snapshotMisses{0};
    /** Entries present but unusable: version/epoch/key/input-hash or
     *  checksum mismatch, or an undeserializable body. */
    std::atomic<std::uint64_t> snapshotRejects{0};
};

/**
 * Plan a batch's cache misses into work units, the one plan the runner
 * and the cluster worker both execute. The misses (indices into
 * @p jobs) are sorted into canonical order — job hash, then key, then
 * index — so a fork group's member order, and with it the warmup
 * representative, never depends on the caller's job-list order. With
 * @p fork, warmup jobs are then partitioned by forkGroupKey, one unit
 * per group in canonical order of its first member; every other job is
 * a unit of its own.
 */
std::vector<std::vector<std::size_t>>
planUnits(const std::vector<Job> &jobs, std::vector<std::size_t> misses,
          bool fork);

/** A straight-through job executor (runner::execute, or a test seam). */
using ExecuteFn = std::function<sim::RunResult(const Job &)>;

/**
 * Execute one planned unit, writing each member's outcome at its index
 * and storing it into @p cache (nullptr = skip storing). A single job
 * with no warmup runs straight through @p straight (empty =
 * runner::execute), and so does a single warmup job when there is no
 * snapshot cache. Every other unit runs as a fork group: warm the
 * shared prefix once under the front member's configuration — loaded
 * from @p snap_cache when it holds a valid entry, stored there after a
 * fresh warm — then fork every member from the warmed snapshot, byte-
 * identical to running each straight through.
 *
 * @param snap_cache snapshot cache (nullptr or disabled = none; a fork
 *                   group then warms inline)
 * @param stats fork-group counters (nullptr = not collected)
 */
void runUnit(const std::vector<Job> &jobs,
             const std::vector<std::size_t> &unit,
             std::vector<JobOutcome> &outcomes, const ResultCache *cache,
             const SnapshotCache *snap_cache, ForkGroupStats *stats,
             const ExecuteFn &straight = {});

/** Executes batches of jobs with caching and parallelism. */
class Runner
{
  public:
    explicit Runner(RunnerOptions options);

    /**
     * Run every job in @p jobs, returning outcomes in job order.
     * Deterministic: the outcome vector depends only on the job list
     * (and cache contents), never on the worker count.
     * @throws whatever a failing job throws (e.g. FatalError for an
     *         unknown workload), after the batch drains
     */
    std::vector<JobOutcome> runAll(const std::vector<Job> &jobs);

    /** Cache/EXECUTION bookkeeping, cumulative across runAll calls. */
    const StatRegistry &stats() const { return registry; }

    unsigned workers() const { return pool.workers(); }
    const ResultCache &cache() const { return resultCache; }
    const SnapshotCache &snapshotCache() const { return snapCache; }
    const ForkGroupStats &forkStats() const { return groupStats; }

  private:
    RunnerOptions options;
    ThreadPool pool;
    ResultCache resultCache;
    SnapshotCache snapCache;
    ForkGroupStats groupStats;
    StatRegistry registry;
};

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_RUNNER_HH
