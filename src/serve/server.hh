/**
 * @file
 * Simulation-as-a-service: a long-lived HTTP/JSON daemon on top of the
 * runner subsystem.
 *
 * The server turns the PR-1 runner/ResultCache into a multi-client
 * service: clients POST job specs, the server deduplicates them through
 * the same FNV-1a content hash the on-disk cache uses, simulates misses
 * on the shared runner::ThreadPool, and answers every request with the
 * exact JSON report the `dynaspam run`/`sweep` CLI would have written —
 * byte for byte, because both sides serialize through the same
 * deterministic report layer.
 *
 * Endpoints:
 *   POST /run             one job spec -> single-job report
 *   POST /sweep           {"sweep": "fig8", ...} or {"jobs": [...]}
 *   POST /explore         design-space search -> chunked NDJSON stream
 *   GET  /results/<hash>  report for a previously computed job
 *   GET  /healthz         liveness probe
 *   GET  /metrics         Prometheus text format
 *
 * Production behaviors, by design rather than garnish:
 *  - Bounded admission: at most ServerOptions::queueCapacity jobs may
 *    be queued (not yet running). Requests that would exceed it get
 *    429 + Retry-After instead of unbounded buffering.
 *  - Single-flight: concurrent requests for the same job hash share
 *    one simulation and all receive identical bytes.
 *  - Per-request wall-clock timeouts: a request whose job is still
 *    *queued* at its deadline cancels the job and gets 503; a job
 *    already running completes detached (its result still lands in
 *    the table and the cache, retrievable via GET /results/<hash>).
 *  - Request-size limits and strict JSON validation (400 with the
 *    parser's line/column on malformed bodies, 413 on oversize).
 *  - Graceful drain on SIGTERM/SIGINT via a self-pipe: stop accepting,
 *    finish in-flight requests and queued jobs, flush/GC the cache,
 *    exit 0.
 *
 * Threading model: one accept thread; one detached thread per
 * connection (HTTP parse + cache probe + wait), simulations on the
 * ThreadPool (`--jobs`). Connections are counted so drain can wait for
 * the active set to reach zero. A connection serves one request and
 * closes unless the client explicitly asks for `Connection:
 * keep-alive`, in which case requests are served back to back on the
 * same socket until the client closes, idles past the socket timeout,
 * or the server begins draining (which stops granting keep-alive).
 */

#ifndef DYNASPAM_SERVE_SERVER_HH
#define DYNASPAM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/fd.hh"
#include "common/json.hh"
#include "common/mutex.hh"

#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"
#include "runner/thread_pool.hh"
#include "serve/http.hh"
#include "serve/metrics.hh"

namespace dynaspam::serve
{

/** Configuration for one Server instance. */
struct ServerOptions
{
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (query with port()). */
    unsigned port = 8080;
    /** Simulation worker threads; 0 = ThreadPool::defaultWorkers(). */
    unsigned jobs = 0;
    /** Max jobs queued (admitted, not yet running) before 429. */
    std::size_t queueCapacity = 64;
    /** Per-request wall-clock budget before a 503. */
    std::uint64_t requestTimeoutMs = 120000;
    /** Hard cap on request size (line + headers + body). */
    std::size_t maxRequestBytes = 1 << 20;
    /** listen(2) backlog for the accept socket. */
    int acceptBacklog = 128;
    /** Result-cache directory; empty disables the disk cache. */
    std::string cacheDir;
    /** LRU size budget for the cache directory; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** Snapshot-cache directory: warmup jobs persist/reuse their warmed
     *  prefix across requests and restarts. Empty disables. */
    std::string snapshotCacheDir;
    /** LRU size budget for the snapshot cache; 0 = unbounded. */
    std::uint64_t snapshotCacheMaxBytes = 0;
    /**
     * Default warmup_insts applied to any incoming job spec that did
     * not set one (`dynaspam serve --warmup-insts N`). 0 = no default.
     */
    std::uint64_t defaultWarmupInsts = 0;
    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;
    /**
     * Simulation function; defaults to runner::execute. A test seam:
     * injecting a gated fake makes queue-full and drain behavior
     * deterministic without multi-second simulations.
     */
    std::function<sim::RunResult(const runner::Job &)> executeFn;
};

/** The HTTP simulation service. */
class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Drains (beginDrain + waitUntilDrained) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen and spawn the accept thread.
     * @throws FatalError when the socket cannot be bound
     */
    void start();

    /** @return the actually bound port (resolves port 0). */
    unsigned port() const { return boundPort; }

    /**
     * Stop accepting new connections. Idempotent, callable from any
     * thread (it only writes the wake pipe, which is also what the
     * SIGTERM/SIGINT handler does).
     */
    void beginDrain();

    /**
     * Block until drain completes: accept thread joined, every active
     * connection finished, all admitted jobs executed, cache GC'd.
     */
    void waitUntilDrained();

    /**
     * start(), install SIGTERM/SIGINT drain handlers, and block until
     * a signal (or beginDrain) completes the drain. @return 0 — the
     * process exit code for a graceful shutdown.
     */
    int serveForever();

    Metrics &metrics() { return metrics_; }

    /** Handle one already-accepted connection; exposed for tests. */
    void handleConnection(int fd);

  private:
    /**
     * Tracking record for one admitted job. Every member is guarded by
     * tableMutex; waiters sleep on cv (also tied to tableMutex). The
     * members cannot carry GUARDED_BY(tableMutex) themselves — a nested
     * struct's attribute cannot name the enclosing Server's member —
     * so the guard is enforced by convention: JobEntry is only ever
     * touched from Server methods that hold (and are annotated as
     * holding) tableMutex.
     */
    struct JobEntry
    {
        enum class State { Queued, Running, Done, Cancelled };
        State state = State::Queued;
        runner::Job job;
        sim::RunResult result;      ///< valid when Done && !failed
        bool failed = false;
        std::string error;
        std::size_t waiters = 0;
        common::CondVar cv;
    };

    /** Outcome of resolving a batch of jobs (cache/table/queue). */
    struct Acquired
    {
        int status = 200;           ///< 200, 429, 500 or 503
        std::string error;
        std::vector<runner::JobOutcome> outcomes;
    };

    void acceptLoop();
    HttpResponse route(const HttpRequest &req, std::string &endpoint);
    /**
     * POST /explore: validate the space, then stream NDJSON engine
     * lines as a chunked response while batches run through
     * acquireJobs. Writes its own response bytes (the connection always
     * closes afterwards). @return the status for the request counter
     * (the pre-stream status, or 200 once the head has been sent —
     * later failures surface as a terminal "error" line in the stream)
     */
    int handleExploreStream(int fd, const HttpRequest &req);
    HttpResponse handleRun(const HttpRequest &req);
    HttpResponse handleSweep(const HttpRequest &req);
    HttpResponse handleResults(const std::string &target);
    HttpResponse handleHealthz();
    HttpResponse handleMetrics();

    Acquired acquireJobs(const std::vector<runner::Job> &jobs,
                         std::chrono::steady_clock::time_point deadline)
        EXCLUDES(tableMutex);
    void submitEntry(const std::shared_ptr<JobEntry> &entry)
        REQUIRES(tableMutex);
    void retainDone(const std::string &hash) REQUIRES(tableMutex);
    void updateQueueGauges() REQUIRES(tableMutex);
    void maybeGcCache();

    /** Single-job report bytes, byte-identical to the CLI's. */
    std::string runReport(const runner::JobOutcome &outcome) const;
    std::string sweepReport(const std::string &name,
                            const std::vector<runner::JobOutcome> &out)
        const;

    static HttpResponse errorResponse(int status,
                                      const std::string &message);

    ServerOptions options;
    runner::ResultCache cache;
    runner::SnapshotCache snapCache;
    runner::ForkGroupStats groupStats;
    std::unique_ptr<runner::ThreadPool> pool;
    Metrics metrics_;

    // Lifecycle state, written only by the controlling thread (the one
    // calling start()/waitUntilDrained()); beginDrain is callable from
    // anywhere because it touches only `draining` and the wake pipe.
    common::Fd listenFd;
    common::Pipe wakePipe;
    unsigned boundPort = 0;
    std::thread acceptThread;
    bool started = false;
    bool drained = false;
    /** Set at drain start: responses stop granting keep-alive. */
    std::atomic<bool> draining{false};

    // Connection accounting for drain.
    common::Mutex connMutex;
    common::CondVar connIdle;
    std::size_t activeConnections GUARDED_BY(connMutex) = 0;

    // Single-flight job table. Done entries are retained (bounded FIFO)
    // as an in-memory result store for GET /results and dedup.
    common::Mutex tableMutex;
    std::map<std::string, std::shared_ptr<JobEntry>> entries
        GUARDED_BY(tableMutex);
    std::deque<std::string> doneOrder GUARDED_BY(tableMutex);
    std::size_t queuedCount GUARDED_BY(tableMutex) = 0;
    std::size_t runningCount GUARDED_BY(tableMutex) = 0;

    std::atomic<std::uint64_t> storesSinceGc{0};
};

} // namespace dynaspam::serve

#endif // DYNASPAM_SERVE_SERVER_HH
