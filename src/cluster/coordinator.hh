/**
 * @file
 * Cluster coordinator: epoll front end + shard fan-out for sweeps.
 *
 * The coordinator is the one client-facing HTTP front end. `dynaspam
 * coordinator` serves `dynaspam worker` processes that dial its worker
 * port; `dynaspam serve` is the same coordinator with one worker slot
 * held by an in-process Worker (CoordinatorOptions::localWorker),
 * joined over a socketpair that is enrolled before any HTTP is
 * accepted, so serve binds no worker port. ONE event-loop thread
 * multiplexes every socket — the HTTP listener, the worker listener,
 * every client and every worker link — through epoll with non-blocking
 * fds and per-connection in/out buffers; no simulation ever runs on
 * it. HTTP/1.1 connections are persistent by default (close with
 * `Connection: close`), so a load generator pays the TCP handshake
 * once, not per request.
 *
 * Sharding: each job's FNV-1a content hash — the same hash that keys
 * the on-disk ResultCache — is mapped to one of `--workers` hash-space
 * partitions (cluster::ownerSlot). A sweep request is split into one
 * Batch per owner slot and fanned out over the length-prefixed wire
 * protocol (cluster/wire.hh). Because the partition depends only on the
 * configured slot count, a given job always lands on the same slot, so
 * repeat jobs hit that worker's local memo/disk cache.
 *
 * Merging: workers return fully serialized sweep-report entries; the
 * coordinator splices them back into job order and wraps them with
 * runner::sweepReportJson + sweepRequestStats, producing a combined
 * report byte-identical to what `dynaspam sweep` would emit for the
 * same cache state.
 *
 * Failure handling, so a worker crash never drops an accepted request:
 *  - membership is health-checked (Ping/Pong every pingIntervalMs; a
 *    worker silent past pingTimeoutMs is declared dead);
 *  - a dead worker's inflight batches are reassigned to the next live
 *    slot upward with bounded exponential backoff (retryBackoffMs <<
 *    attempts), up to 3 reassignments, then the request fails 503;
 *  - deterministic job failures (worker Result carries "error") fail
 *    the request with 500 and are NOT retried — a deterministic
 *    simulator would only reproduce the error;
 *  - requests carry a wall-clock deadline (requestTimeoutMs -> 503).
 *    Each Batch carries the request's remaining time, and a worker
 *    skips a batch whose deadline passed before it started.
 *
 * Admission is bounded: when the jobs belonging to unfinished requests
 * — queued or running — would exceed queueCapacity, new requests get
 * 429 + Retry-After.
 *
 * POST /explore runs the design-space-exploration engine
 * (explore::Engine) inside the event loop: every engine batch becomes
 * an internal request fanned out through the same shard/batch/retry
 * machinery, and the engine's NDJSON lines stream back to the client as
 * a chunked response while the search progresses. Worker death, batch
 * reassignment, deadlines and drain all behave exactly as for /sweep.
 *
 * GET /results/<hash> answers from the in-process worker's on-disk
 * result cache (ResultCache::loadByHash); without one it is a 404.
 *
 * Hardening: with --cluster-token set, worker enrollment requires the
 * shared secret in the Hello frame; mismatches are dropped before
 * Welcome and counted (never logged).
 */

#ifndef DYNASPAM_CLUSTER_COORDINATOR_HH
#define DYNASPAM_CLUSTER_COORDINATOR_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "common/annotations.hh"
#include "common/fd.hh"
#include "common/json.hh"
#include "common/mutex.hh"
#include "explore/engine.hh"
#include "runner/job.hh"
#include "runner/result_cache.hh"
#include "serve/http.hh"
#include "serve/metrics.hh"

namespace dynaspam::cluster
{

/** Configuration for one Coordinator instance. */
struct CoordinatorOptions
{
    std::string bindAddress = "127.0.0.1";
    /** Client-facing HTTP port; 0 binds an ephemeral port. */
    unsigned httpPort = 8080;
    /** Worker-facing wire-protocol port; 0 binds an ephemeral port.
     *  Not bound when localWorker is set. */
    unsigned workerPort = 9090;
    /** Hash-space partitions == maximum cluster size. */
    unsigned workerSlots = 4;
    /** Max jobs (queued or running) of unfinished requests before 429. */
    std::size_t queueCapacity = 256;
    /** Per-request wall-clock budget before a 503. */
    std::uint64_t requestTimeoutMs = 120000;
    /** Hard cap on HTTP request size (line + headers + body). */
    std::size_t maxRequestBytes = 1 << 20;
    /** Base reassignment backoff; doubles per attempt. */
    std::uint64_t retryBackoffMs = 100;
    /** Worker health-check period. */
    std::uint64_t pingIntervalMs = 2000;
    /** Silence past this declares a worker dead. */
    std::uint64_t pingTimeoutMs = 10000;
    /**
     * Shared enrollment secret. When non-empty, a worker Hello must
     * carry the same token or the connection is dropped before Welcome
     * (counted by dynaspam_cluster_hello_rejects_total). The token is
     * never logged and never appears in /metrics.
     */
    std::string clusterToken;
    /** warmup_insts applied to /run and /sweep jobs that set none
     *  (`dynaspam serve --warmup-insts N`). 0 = no default. */
    std::uint64_t defaultWarmupInsts = 0;
    /**
     * In-process worker (`dynaspam serve`): built by the constructor,
     * publishing its job metrics into this coordinator's registry, and
     * joined at start() over a socketpair enrolled in slot 0 before any
     * HTTP is accepted. Its cacheDir also answers GET /results/<hash>.
     */
    std::optional<WorkerOptions> localWorker;
    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;
};

/** The cluster coordinator service. */
class Coordinator
{
  public:
    explicit Coordinator(CoordinatorOptions options);

    /** Drains (beginDrain + waitUntilDrained) if still running. */
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Bind both listeners and spawn the event-loop thread.
     * @throws FatalError when a socket cannot be bound
     */
    void start();

    /** @return the actually bound client-facing HTTP port. */
    unsigned httpPort() const { return httpPort_; }
    /** @return the actually bound worker-facing port. */
    unsigned workerPort() const { return workerPort_; }

    /**
     * Stop accepting new connections and finish pending requests.
     * Idempotent, callable from any thread (writes the wake pipe).
     */
    void beginDrain();

    /** Block until the event loop has exited and everything is closed
     *  (the in-process worker included: its queued batches finish). */
    void waitUntilDrained();

    /**
     * start(), install SIGTERM/SIGINT drain handlers, and block until
     * a signal (or beginDrain) completes the drain. @return 0.
     */
    int serveForever();

    serve::Metrics &metrics() { return metrics_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One client (HTTP) connection's event-loop state. */
    struct ClientConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        /** A /run or /sweep is pending; stop parsing further requests. */
        bool busy = false;
        /** Close once the out buffer drains. */
        bool closeAfterFlush = false;
        /** Request id the pending response belongs to. */
        std::uint64_t requestId = 0;
        /** Explore session streaming on this connection (0 = none). */
        std::uint64_t exploreId = 0;
    };

    /** One worker link's event-loop state. */
    struct WorkerConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        /** Assigned shard slot; -1 until the Hello handshake. */
        int slot = -1;
        /** Close once the out buffer drains (rejected Hello). */
        bool closeAfterFlush = false;
        Clock::time_point lastPong;
        /** Batch ids currently assigned to this worker. */
        std::set<std::uint64_t> inflight;
    };

    /** One accepted /run or /sweep awaiting its shard results. */
    struct Request
    {
        std::uint64_t id = 0;
        int clientFd = -1;
        std::string name;
        bool keepAlive = true;
        std::string endpoint;        ///< metrics label ("/run"/"/sweep")
        std::vector<runner::Job> jobs;
        /** results[] entries, filled in job order as shards report. */
        std::vector<json::Value> entries;
        std::size_t remaining = 0;   ///< entries still missing
        std::size_t hits = 0;        ///< from_cache entries seen
        std::set<std::uint64_t> batchIds;
        Clock::time_point start;
        Clock::time_point deadline;
        /** Owning explore session for an internal batch (0 = client
         *  request: the response goes back over HTTP). */
        std::uint64_t exploreSessionId = 0;
    };

    /**
     * One POST /explore search in flight. The engine is driven from the
     * event loop: each engine batch becomes an internal Request (fanned
     * out through the same shard/batch/retry machinery as a /sweep),
     * and every completed batch feeds the engine, whose emitted NDJSON
     * lines stream to the client as chunks.
     */
    struct ExploreSession
    {
        std::uint64_t id = 0;
        int clientFd = -1;
        std::unique_ptr<explore::Engine> engine;
        /** Internal request in flight (0 = none, about to dispatch). */
        std::uint64_t requestId = 0;
        Clock::time_point deadline;
    };

    /** One per-shard job batch (possibly awaiting reassignment). */
    struct Batch
    {
        std::uint64_t id = 0;
        std::uint64_t requestId = 0;
        unsigned ownerSlot = 0;
        std::vector<std::size_t> jobIndices;
        unsigned attempts = 0;
        /** Worker fd it is assigned to; -1 = awaiting assignment. */
        int assignedFd = -1;
        /** Earliest reassignment time (retry backoff). */
        Clock::time_point notBefore;
    };

    void eventLoop();
    void updateEvents(int fd, bool wantWrite) REQUIRES(loopRole);
    void acceptClients() REQUIRES(loopRole);
    void acceptWorkers() REQUIRES(loopRole);

    void onClientReadable(int fd) REQUIRES(loopRole);
    void onClientWritable(int fd) REQUIRES(loopRole);
    /** Parse+dispatch buffered requests (by fd: handlers may close). */
    void parseClientRequests(int fd) REQUIRES(loopRole);
    void handleHttpRequest(ClientConn &conn, const serve::HttpRequest &req)
        REQUIRES(loopRole);
    void queueResponse(ClientConn &conn, const serve::HttpResponse &resp,
                       bool keep_alive, const std::string &endpoint)
        REQUIRES(loopRole);
    void closeClient(int fd) REQUIRES(loopRole);

    void onWorkerReadable(int fd) REQUIRES(loopRole);
    void onWorkerWritable(int fd) REQUIRES(loopRole);
    void handleWorkerFrame(WorkerConn &conn, const Frame &frame)
        REQUIRES(loopRole);
    void handleResult(WorkerConn &conn, const Frame &frame)
        REQUIRES(loopRole);
    void queueFrame(WorkerConn &conn, FrameType type,
                    const json::Value &payload) REQUIRES(loopRole);
    /** Declare a worker dead and reassign its inflight batches. */
    void dropWorker(int fd, const char *why) REQUIRES(loopRole);

    /** Admit a /run or /sweep: shard, batch, fan out. */
    void admitRequest(ClientConn &conn, const std::string &endpoint,
                      const std::string &name,
                      std::vector<runner::Job> jobs, bool keep_alive)
        REQUIRES(loopRole);
    /**
     * Register @p request under a fresh id and split its jobs into
     * per-shard batches, left for assignPendingBatches() to send (so a
     * worker dropped mid-assignment cannot pull the request out from
     * under the caller). @return the request id
     */
    std::uint64_t fanOut(Request request) REQUIRES(loopRole);
    /** GET /results/<hash> from the shared on-disk result cache. */
    serve::HttpResponse handleResults(const std::string &target) const;

    /** Validate + admit a POST /explore and stream its header. */
    void handleExplore(ClientConn &conn, const serve::HttpRequest &req)
        REQUIRES(loopRole);
    /** Dispatch engine batches until one waits on workers (or done). */
    void driveExplore(std::uint64_t sessionId) REQUIRES(loopRole);
    /** Fan the session's pending engine batch out as an internal
     *  Request. */
    void dispatchExploreBatch(ExploreSession &session) REQUIRES(loopRole);
    /** Decode a finished internal batch, feed the engine, stream. */
    void finishExploreBatch(Request &request) REQUIRES(loopRole);
    /** Stream @p bytes to the session's client. @return false when the
     *  client (and therefore the session) is gone. */
    bool emitExplore(std::uint64_t sessionId, const std::string &bytes)
        REQUIRES(loopRole);
    /** Terminate the stream (last chunk + close) and drop the session. */
    void endExploreStream(std::uint64_t sessionId) REQUIRES(loopRole);
    /** Emit a terminal error line, then end the stream. */
    void failExploreSession(std::uint64_t sessionId, int status,
                            const std::string &message) REQUIRES(loopRole);

    /** Try to assign every unassigned batch whose backoff has expired. */
    void assignPendingBatches() REQUIRES(loopRole);
    bool assignBatch(Batch &batch) REQUIRES(loopRole);
    /** Fail @p requestId with an error response; drops its batches. */
    void failRequest(std::uint64_t requestId, int status,
                     const std::string &message) REQUIRES(loopRole);
    void finishRequest(Request &request) REQUIRES(loopRole);
    /** Respond to the request's client (if still connected). */
    void respond(const Request &request, const serve::HttpResponse &resp)
        REQUIRES(loopRole);
    void dropRequestBatches(const Request &request) REQUIRES(loopRole);

    void sendPings() REQUIRES(loopRole);
    void checkTimers() REQUIRES(loopRole);
    std::size_t liveWorkerCount() const REQUIRES(loopRole);
    int liveWorkerForSlot(unsigned slot) const REQUIRES(loopRole);
    void updateWorkerGauge() REQUIRES(loopRole);

    serve::HttpResponse handleMetricsScrape() REQUIRES(loopRole);
    static serve::HttpResponse errorResponse(int status,
                                             const std::string &message);

    CoordinatorOptions options;
    serve::Metrics metrics_;
    /** Read-only view of the local worker's cache for /results. */
    runner::ResultCache resultCache;
    std::unique_ptr<Worker> local;
    std::thread localThread;

    // Lifecycle plumbing. The listen sockets and the epoll instance are
    // created by start() before the loop thread exists and closed by the
    // loop thread (drain) or the destructor (after join) — never
    // concurrently.
    common::Fd epollFd;
    common::Fd listenHttpFd;
    common::Fd listenWorkerFd;
    common::Pipe wakePipe;
    unsigned httpPort_ = 0;
    unsigned workerPort_ = 0;
    std::thread loopThread;
    bool started = false;
    bool drained = false;

    /**
     * Everything below is thread-confined to the epoll loop: eventLoop()
     * holds loopRole for its whole lifetime, and the analysis rejects
     * any other path into the REQUIRES(loopRole) machinery above. The
     * only cross-thread entry points are beginDrain() (writes the wake
     * pipe) and metrics_ (internally locked).
     */
    common::ThreadRole loopRole;

    bool draining GUARDED_BY(loopRole) = false;

    std::map<int, ClientConn> clients GUARDED_BY(loopRole);
    std::map<int, WorkerConn> workers GUARDED_BY(loopRole);
    /** slot -> worker fd (-1 = vacant). */
    std::vector<int> slotFd GUARDED_BY(loopRole);

    std::map<std::uint64_t, Request> requests GUARDED_BY(loopRole);
    std::map<std::uint64_t, Batch> batches GUARDED_BY(loopRole);
    std::map<std::uint64_t, ExploreSession> exploreSessions
        GUARDED_BY(loopRole);
    std::uint64_t nextRequestId GUARDED_BY(loopRole) = 1;
    std::uint64_t nextBatchId GUARDED_BY(loopRole) = 1;
    std::uint64_t nextExploreId GUARDED_BY(loopRole) = 1;

    std::uint64_t pingTick GUARDED_BY(loopRole) = 0;
    Clock::time_point lastPingSweep GUARDED_BY(loopRole);
    /** Jobs belonging to unfinished requests (admission gauge). */
    std::size_t outstandingJobs GUARDED_BY(loopRole) = 0;
};

} // namespace dynaspam::cluster

#endif // DYNASPAM_CLUSTER_COORDINATOR_HH
