/**
 * @file
 * Cluster worker: one shard of the distributed sweep fabric.
 *
 * A worker either runs as its own process (`dynaspam worker --connect
 * host:port`), dialing the coordinator's worker port and joining with a
 * Hello/Welcome handshake, or in-process behind `dynaspam serve`, where
 * the coordinator hands it one end of a socketpair already enrolled in
 * slot 0. Either way it executes the job batches the coordinator
 * assigns to its shard with the CLI's own execution core: the misses
 * are planned by runner::planUnits and each unit runs through
 * runner::runUnit, behind a runner::ResultCache and SnapshotCache, so a
 * job computed by a worker produces the same bytes it would have
 * produced anywhere else.
 *
 * Threads: the thread that reads the coordinator link answers Ping and
 * Goodbye at once and queues every Batch on a runner::ThreadPool, so
 * liveness never depends on how long a job runs. Each Pong reports the
 * queued jobs, evictions and warm passes, which the coordinator
 * republishes as per-worker gauges. A pool thread takes
 * batches first in, first out: it answers the batch's hits, plans the
 * misses into units (single jobs, or fork groups that warm once) and
 * queues each unit on the pool. The batch's Result is sent when its
 * last unit finishes.
 *
 * Single-flight: a unit that reaches a job another pool thread is
 * executing waits for that result instead of running it again. A
 * thread registers only the jobs of the unit it is executing, so a
 * waiting thread holds no registration and waits cannot form a cycle.
 *
 * Shard-local results, two tiers:
 *  - the on-disk ResultCache (per-worker --cache-dir), same format and
 *    epoch as the CLI's, surviving worker restarts;
 *  - an in-memory LRU memo of *pre-rendered* sweep-report entry bytes,
 *    holding the fragment a repeat of the job produces: from_cache=true
 *    when the disk cache is enabled, the fresh fragment when it is not.
 *    Report bytes therefore depend only on the disk-cache state, as for
 *    `dynaspam sweep`. A repeat job is a string copy — no cache file
 *    read, no JSON parse, no re-serialization, on the worker or on the
 *    coordinator (which splices the fragment via json::Raw).
 * Because the coordinator routes each job hash to a fixed owner slot,
 * hits concentrate in the owning worker's memo. Caches with a size
 * budget are collected every 32 executed jobs and every cache when the
 * link closes, always outside the state lock, so a gc pass never
 * stalls pings or memo lookups.
 *
 * Deadlines: each Batch carries its request's remaining time. A batch
 * or unit whose deadline passed before a pool thread picked it up is
 * skipped and counted as cancelled; the coordinator has already
 * answered that request with 503.
 *
 * Failure semantics: a deterministic job failure (execute throws) is
 * reported as a Result {"error": ...} — the coordinator fails that
 * request without retry, because retrying a deterministic simulator
 * reproduces the error. A vanished worker (socket EOF / ping timeout)
 * is the retryable case, handled coordinator-side by reassignment.
 */

#ifndef DYNASPAM_CLUSTER_WORKER_HH
#define DYNASPAM_CLUSTER_WORKER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/wire.hh"
#include "common/annotations.hh"
#include "common/fd.hh"
#include "common/json.hh"
#include "common/mutex.hh"
#include "runner/job.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"
#include "runner/thread_pool.hh"
#include "serve/metrics.hh"

namespace dynaspam::cluster
{

/** Configuration for one Worker instance. */
struct WorkerOptions
{
    /** Coordinator worker-port endpoint to dial. */
    std::string connectHost = "127.0.0.1";
    unsigned connectPort = 9090;
    /** First re-dial wait; the backoff doubles from here. */
    std::uint64_t connectRetryMs = 200;

    /**
     * Re-dial after a lost coordinator link instead of exiting. An
     * orderly drain (Goodbye frame) or shutdownNow() still terminates
     * the worker; only an unexplained EOF / error / silence triggers a
     * reconnect. Waits are jittered exponential backoff from
     * connectRetryMs, capped at 5 s.
     */
    bool reconnect = true;

    /**
     * Shared cluster secret sent in the Hello frame. Must match the
     * coordinator's --cluster-token when the coordinator has one; an
     * empty token simply omits the field. Never logged.
     */
    std::string clusterToken;

    /** Shard-local result cache; empty disables the disk tier. */
    std::string cacheDir;
    /** LRU size budget for the cache directory; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** In-memory memo capacity, in entries. */
    std::size_t memoEntries = 4096;

    /** Shard-local snapshot cache (warmed fork-group state); empty
     *  disables on-disk snapshots. */
    std::string snapshotCacheDir;
    /** LRU size budget for the snapshot cache; 0 = unbounded. */
    std::uint64_t snapshotCacheMaxBytes = 0;

    /** Pool threads executing batches; 0 = ThreadPool::defaultWorkers()
     *  (`dynaspam worker` passes DYNASPAM_JOBS, else 1). */
    unsigned threads = 0;

    /**
     * Registry for the job metrics (dynaspam_jobs_*, dynaspam_queue_depth,
     * dynaspam_sim_kips). The in-process serve worker publishes into the
     * coordinator's, so /metrics exports them; nullptr keeps them in a
     * registry of the worker's own.
     */
    serve::Metrics *metrics = nullptr;

    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;

    /** Simulation function; defaults to runner::execute (test seam).
     *  Supplying one plans with forking off — every job runs through
     *  the seam individually. */
    std::function<sim::RunResult(const runner::Job &)> executeFn;
};

/** One cluster worker process (or in-process instance, in tests). */
class Worker
{
  public:
    explicit Worker(WorkerOptions options);

    /**
     * Dial the coordinator, handshake, and serve batches until the
     * coordinator sends Goodbye (orderly drain) or shutdownNow() is
     * called. A lost link (EOF, error, silence) re-dials with jittered
     * exponential backoff when options.reconnect is set; consecutive
     * dial failures are bounded (25; a successful connection resets
     * the count).
     * @return process exit code: 0 on clean close, 1 on error
     */
    int run();

    /**
     * Serve an already-connected coordinator link; takes ownership of
     * @p fd. With @p handshake false the link is already enrolled (the
     * in-process serve worker): no Hello/Welcome, slot 0.
     * @return same as run()
     */
    int serveConnection(int fd, bool handshake = true);

    /**
     * Async kill switch: shut the coordinator link down so the serve
     * loop exits at the next socket operation. Callable from any
     * thread; used by tests to simulate a worker crash mid-sweep.
     */
    void shutdownNow();

    /** Slot assigned by the last Welcome (for logs/tests). Readable
     *  from any thread; the link thread writes it at handshake. */
    unsigned slot() const { return slot_.load(std::memory_order_relaxed); }

  private:
    using Clock = std::chrono::steady_clock;

    /** One received batch, shared by the pool tasks working on it. */
    struct Batch
    {
        /** Link generation it arrived on; a Result for an older link
         *  is dropped, never sent down a newer one. */
        std::uint64_t link = 0;
        std::optional<Clock::time_point> deadline;
        std::uint64_t id = 0;
        std::vector<runner::Job> jobs;
        /** Filled by index; units write disjoint indices. */
        std::vector<RawEntry> entries;
        std::vector<runner::JobOutcome> outcomes;
        std::vector<std::vector<std::size_t>> units;
        std::atomic<std::size_t> unitsLeft{0};
        /** First failure (guarded by Worker::stateMutex: a nested
         *  struct cannot name the enclosing object's mutex). */
        int errorStatus = 0;
        std::string error;
    };

    /** A job a pool thread is executing; members guarded by
     *  Worker::stateMutex, like Batch::error. */
    struct Flight
    {
        bool done = false;
        std::string fragment;    ///< fresh (from_cache=false) entry
        std::string error;
    };

    /**
     * Drain every decodable frame out of @p inBuf: answer Pings, queue
     * Batches on the pool. @return false on Goodbye or protocol error.
     */
    bool drainFrames(std::string &inBuf, std::uint64_t link);
    /** Pool task: parse, answer hits, queue the miss units. */
    void startBatch(const std::shared_ptr<Batch> &batch);
    /** Pool task: run one unit; the last one sends the Result. */
    void runUnit(const std::shared_ptr<Batch> &batch, std::size_t unit);
    /**
     * Claim the jobs at @p todo (memo, another thread's flight, or
     * ours to run), execute ours and publish them.
     * @return the execution error, empty on success
     */
    std::string executeUnit(Batch &batch, std::vector<std::size_t> todo)
        EXCLUDES(stateMutex);
    /** @return true when @p batch is past its deadline; its @p jobs
     *  skipped jobs are then counted as cancelled. */
    bool expired(Batch &batch, std::size_t jobs) EXCLUDES(stateMutex);
    void fail(Batch &batch, int status, const std::string &error)
        EXCLUDES(stateMutex);
    void sendResult(Batch &batch) EXCLUDES(stateMutex);
    /** Send one frame on link generation @p link; dropped (false) when
     *  that link is gone. */
    bool send(std::uint64_t link, const std::string &wire)
        EXCLUDES(linkMutex);
    /** One dial attempt. @return the connected fd, or -1 (retryable
     *  failure; terminal errors also set `terminal`). */
    int dialCoordinator();
    /** Memo lookup (refreshes LRU order). */
    const std::string *memoGet(const std::string &hash)
        REQUIRES(stateMutex);
    void memoPut(const std::string &hash, std::string fragment)
        REQUIRES(stateMutex);
    /** Move the queue/inflight gauges by the given deltas. */
    void moveJobs(long queued, long running) REQUIRES(stateMutex);
    /**
     * Garbage-collect the caches that have a size budget, or with
     * @p all every enabled cache (stale entries too). Scans and reads
     * whole directories, so never under stateMutex.
     */
    void gcCaches(bool all) EXCLUDES(stateMutex);

    WorkerOptions options;
    serve::Metrics ownMetrics;
    serve::Metrics &metrics;
    runner::ResultCache cache;
    runner::SnapshotCache snapCache;
    runner::ForkGroupStats groupStats;
    /** True when the options carried a custom executeFn: the test seam
     *  replaces the simulator, so units are planned with forking off. */
    bool customExecute = false;

    std::atomic<unsigned> slot_{0};
    std::atomic<bool> stopping{false};
    /** Set on Goodbye / handshake rejection / unusable address: run()
     *  must not reconnect. */
    std::atomic<bool> terminal{false};

    /**
     * The live coordinator link. Every frame is written under the lock,
     * and the reader thread clears linkFd under it before closing the
     * socket, so neither a pool thread nor shutdownNow() can touch a
     * descriptor the kernel may already have recycled.
     */
    common::Mutex linkMutex;
    int linkFd GUARDED_BY(linkMutex) = -1;
    std::uint64_t linkGen GUARDED_BY(linkMutex) = 0;

    /** Memo, in-flight map, job gauges and cache GC bookkeeping. */
    common::Mutex stateMutex;
    common::CondVar flightDone;
    /** LRU memo: hash -> the entry fragment a repeat produces. */
    std::list<std::pair<std::string, std::string>> memoOrder
        GUARDED_BY(stateMutex);
    std::map<std::string,
             std::list<std::pair<std::string, std::string>>::iterator>
        memoMap GUARDED_BY(stateMutex);
    std::map<std::string, std::shared_ptr<Flight>> inFlight
        GUARDED_BY(stateMutex);
    std::size_t queuedJobs GUARDED_BY(stateMutex) = 0;
    std::size_t runningJobs GUARDED_BY(stateMutex) = 0;
    std::uint64_t memoEvictions GUARDED_BY(stateMutex) = 0;
    std::uint64_t cacheEvictions GUARDED_BY(stateMutex) = 0;
    std::uint64_t jobsSinceGc GUARDED_BY(stateMutex) = 0;

    /** Declared last so it is destroyed first: destruction runs every
     *  queued task (they use the members above), then joins. */
    std::unique_ptr<runner::ThreadPool> pool;
};

} // namespace dynaspam::cluster

#endif // DYNASPAM_CLUSTER_WORKER_HH
