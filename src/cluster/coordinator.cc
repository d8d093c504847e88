#include "cluster/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/report.hh"
#include "runner/spec.hh"
#include "workloads/workload.hh"

namespace dynaspam::cluster
{

namespace
{

/** epoll_wait tick: timers (pings, deadlines, backoffs) run per tick. */
constexpr int kEpollTickMs = 100;

/** Batch-reassignment backoff saturates here (see retryBackoffDelayMs). */
constexpr std::uint64_t kRetryBackoffCapMs = 60'000;

/**
 * A client that buffers more than this many bytes while a request is
 * pending (so the parser is paused) is flooding us: drop it.
 */
constexpr std::size_t kBusyClientBufferFactor = 4;

/** Self-pipe write end for the SIGTERM/SIGINT drain handler. */
std::atomic<int> gCoordinatorWakeFd{-1};

extern "C" void
coordinatorSignalHandler(int)
{
    int fd = gCoordinatorWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
requestLabels(const std::string &endpoint, int status)
{
    std::ostringstream os;
    os << "endpoint=\"" << endpoint << "\",status=\"" << status << "\"";
    return os.str();
}

std::string
workerLabel(int slot)
{
    std::ostringstream os;
    os << "worker=\"" << slot << "\"";
    return os.str();
}

/**
 * Drain a non-blocking fd into @p buf.
 * @return 1 more may come, 0 peer closed, -1 error
 */
int
drainFd(int fd, std::string &buf)
{
    char chunk[16384];
    while (true) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buf.append(chunk, std::size_t(n));
            continue;
        }
        if (n == 0)
            return 0;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 1;
        return -1;
    }
}

/**
 * Flush @p out to a non-blocking fd.
 * @return false when the peer vanished
 */
bool
flushBuffer(int fd, std::string &out)
{
    while (!out.empty()) {
        ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            out.erase(0, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;    // caller arms EPOLLOUT
        return false;
    }
    return true;
}

bool
isHexHash(const std::string &s)
{
    return s.size() == 16 &&
           std::all_of(s.begin(), s.end(), [](char c) {
               return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
           });
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

} // namespace

Coordinator::Coordinator(CoordinatorOptions options_)
    : options(std::move(options_)),
      resultCache(options.localWorker ? options.localWorker->cacheDir
                                      : std::string())
{
    if (options.workerSlots == 0)
        fatal("coordinator: --workers must be >= 1");
    // The default warmup lands in jobs the schema already passed, so it
    // must itself be a valid job field.
    runner::Job probe{workloads::allWorkloadNames().front()};
    probe.warmupInsts = options.defaultWarmupInsts;
    runner::checkJob(probe);
    slotFd.assign(options.workerSlots, -1);

    metrics_.declareCounter("dynaspam_http_requests_total",
                            "HTTP requests by endpoint and status code.");
    metrics_.declareCounter("dynaspam_http_connections_total",
                            "Accepted client TCP connections.");
    metrics_.declareCounter("dynaspam_cache_hits_total",
                            "Jobs answered from a worker shard cache.");
    metrics_.declareCounter("dynaspam_cache_misses_total",
                            "Jobs executed by a worker shard.");
    metrics_.declareGauge("dynaspam_cache_hit_ratio",
                          "Lifetime cache hits / lookups (0 when none).");
    metrics_.declareGauge("dynaspam_cluster_workers_connected",
                          "Workers currently holding a shard slot.");
    metrics_.declareGauge("dynaspam_cluster_worker_inflight",
                          "Batches inflight per worker slot.");
    metrics_.declareGauge("dynaspam_cluster_worker_queue_depth",
                          "Jobs queued worker-side, per slot (from the "
                          "last Pong).");
    metrics_.declareGauge("dynaspam_cluster_worker_evictions",
                          "Cumulative memo + cache evictions per slot "
                          "(from the last Pong).");
    metrics_.declareCounter("dynaspam_cluster_batch_retries_total",
                            "Batch reassignments after a worker died.");
    metrics_.declareCounter("dynaspam_cluster_hello_rejects_total",
                            "Worker enrollments rejected (bad or missing "
                            "cluster token).");
    metrics_.declareGauge("dynaspam_cluster_outstanding_jobs",
                          "Jobs belonging to unfinished requests.");
    metrics_.declareHistogram(
        "dynaspam_request_latency_seconds",
        "End-to-end /run and /sweep latency in seconds.",
        {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30});

    if (options.localWorker) {
        WorkerOptions worker = *options.localWorker;
        worker.metrics = &metrics_;
        local = std::make_unique<Worker>(std::move(worker));
    }
}

Coordinator::~Coordinator()
{
    if (started && !drained) {
        beginDrain();
        waitUntilDrained();
    }
}

void
Coordinator::start()
{
    if (started)
        panic("Coordinator::start called twice");

    wakePipe = common::Pipe::create();
    // The event loop drains the wake pipe until EAGAIN; it must never
    // block there.
    setNonBlocking(wakePipe.readEnd.get());

    listenHttpFd = serve::listenTcp(options.bindAddress, options.httpPort,
                                    options.acceptBacklog, httpPort_);
    setNonBlocking(listenHttpFd.get());
    if (!local) {
        listenWorkerFd =
            serve::listenTcp(options.bindAddress, options.workerPort,
                             options.acceptBacklog, workerPort_);
        setNonBlocking(listenWorkerFd.get());
    }

    epollFd.reset(::epoll_create1(0));
    if (!epollFd)
        fatal("coordinator: epoll_create1: ", std::strerror(errno));
    int localPair[2] = {-1, -1};
    if (local && ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0,
                              localPair) != 0)
        fatal("coordinator: socketpair: ", std::strerror(errno));
    common::Fd localEnd(localPair[0]);
    common::Fd workerEnd(localPair[1]);
    for (int fd : {listenHttpFd.get(), listenWorkerFd.get(),
                   wakePipe.readEnd.get(), localEnd.get()}) {
        if (fd < 0)
            continue;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
            fatal("coordinator: epoll_ctl: ", std::strerror(errno));
    }

    if (local) {
        // The in-process worker's link is enrolled in slot 0 before the
        // loop (and so any HTTP request) runs; the worker skips the
        // Hello/Welcome handshake. The loop thread does not exist yet,
        // so start() holds its role for this one hand-off.
        common::ScopedRole role(loopRole);
        setNonBlocking(localEnd.get());
        WorkerConn conn;
        // analyze-owns: the workers map owns the fd; dropWorker() and
        // the event-loop teardown close it.
        conn.fd = localEnd.release();
        conn.slot = 0;
        conn.lastPong = Clock::now();
        slotFd[0] = conn.fd;
        workers.emplace(conn.fd, std::move(conn));
        updateWorkerGauge();
        localThread = std::thread([this, fd = workerEnd.release()] {
            local->serveConnection(fd, false);
        });
    }

    started = true;
    loopThread = std::thread([this] { eventLoop(); });
}

void
Coordinator::beginDrain()
{
    if (wakePipe.writeEnd.valid()) {
        char byte = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakePipe.writeEnd.get(), &byte, 1);
    }
}

void
Coordinator::waitUntilDrained()
{
    if (!started || drained)
        return;
    if (loopThread.joinable())
        loopThread.join();
    // The loop's teardown said Goodbye, so the local worker's link
    // thread exits; destroying the worker runs what its pool still
    // holds (batches of requests that already failed) to completion.
    if (localThread.joinable())
        localThread.join();
    local.reset();
    drained = true;
}

int
Coordinator::serveForever()
{
    start();

    gCoordinatorWakeFd.store(wakePipe.writeEnd.get(),
                             std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = coordinatorSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    const char *who = local ? "serve" : "coordinator";
    if (options.verbose && local)
        inform("serve: listening on ", options.bindAddress, ":",
               httpPort(), " (queue capacity ", options.queueCapacity,
               ")");
    else if (options.verbose)
        inform("coordinator: serving HTTP on ", options.bindAddress, ":",
               httpPort(), ", workers on :", workerPort(), " (",
               options.workerSlots, " shard slots, queue capacity ",
               options.queueCapacity, ")");

    waitUntilDrained();
    gCoordinatorWakeFd.store(-1, std::memory_order_relaxed);

    if (options.verbose)
        inform(who, ": drained, exiting");
    return 0;
}

void
Coordinator::eventLoop()
{
    // The loop thread owns every piece of GUARDED_BY(loopRole) state for
    // its entire lifetime; helpers REQUIRES(loopRole) and are therefore
    // uncallable from any other thread.
    common::ScopedRole role(loopRole);

    lastPingSweep = Clock::now();

    std::vector<epoll_event> events(64);
    while (true) {
        int ready = ::epoll_wait(epollFd.get(), events.data(),
                                 int(events.size()), kEpollTickMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("coordinator: epoll_wait: ", std::strerror(errno));
            break;
        }

        // Connection events first, accepts last: a close in this wave
        // can then never collide with an fd number a fresh accept
        // reuses.
        for (int pass = 0; pass < 2; pass++) {
            for (int i = 0; i < ready; i++) {
                int fd = events[i].data.fd;
                bool isListen =
                    fd == listenHttpFd.get() ||
                    fd == listenWorkerFd.get() ||
                    fd == wakePipe.readEnd.get();
                if ((pass == 0) == isListen)
                    continue;

                if (fd == wakePipe.readEnd.get()) {
                    char sink[64];
                    while (::read(wakePipe.readEnd.get(), sink,
                                  sizeof(sink)) > 0) {
                    }
                    if (!draining) {
                        draining = true;
                        for (common::Fd *lfd :
                             {&listenHttpFd, &listenWorkerFd}) {
                            if (lfd->valid()) {
                                ::epoll_ctl(epollFd.get(), EPOLL_CTL_DEL,
                                            lfd->get(), nullptr);
                                lfd->reset();
                            }
                        }
                    }
                } else if (fd == listenHttpFd.get()) {
                    acceptClients();
                } else if (fd == listenWorkerFd.get()) {
                    acceptWorkers();
                } else if (clients.count(fd)) {
                    if (events[i].events & (EPOLLHUP | EPOLLERR))
                        closeClient(fd);
                    else {
                        if (events[i].events & EPOLLIN)
                            onClientReadable(fd);
                        if (clients.count(fd) &&
                            (events[i].events & EPOLLOUT))
                            onClientWritable(fd);
                    }
                } else if (workers.count(fd)) {
                    if (events[i].events & (EPOLLHUP | EPOLLERR))
                        dropWorker(fd, "link error");
                    else {
                        if (events[i].events & EPOLLIN)
                            onWorkerReadable(fd);
                        if (workers.count(fd) &&
                            (events[i].events & EPOLLOUT))
                            onWorkerWritable(fd);
                    }
                }
            }
        }

        checkTimers();

        if (draining && requests.empty() && exploreSessions.empty()) {
            bool flushed = true;
            for (const auto &kv : clients)
                if (!kv.second.out.empty())
                    flushed = false;
            if (flushed)
                break;
        }
    }

    for (auto &kv : clients)
        ::close(kv.first);
    clients.clear();
    // Orderly shutdown: a Goodbye frame tells each worker to exit
    // instead of reconnecting (a bare EOF now means "coordinator lost,
    // retry with backoff"). Best-effort blocking send — the links are
    // about to close either way.
    const std::string bye = encodeFrame(FrameType::Goodbye, "{}");
    for (auto &kv : workers) {
        [[maybe_unused]] ssize_t n =
            ::send(kv.first, bye.data(), bye.size(), MSG_NOSIGNAL);
        ::close(kv.first);
    }
    workers.clear();
    std::fill(slotFd.begin(), slotFd.end(), -1);
}

void
Coordinator::updateEvents(int fd, bool wantWrite)
{
    epoll_event ev{};
    ev.events = wantWrite ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd.get(), EPOLL_CTL_MOD, fd, &ev) != 0)
        warn("coordinator: epoll_ctl mod: ", std::strerror(errno));
}

void
Coordinator::acceptClients()
{
    while (true) {
        common::Fd accepted(::accept4(listenHttpFd.get(), nullptr,
                                      nullptr, SOCK_NONBLOCK));
        if (!accepted) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("coordinator: accept: ", std::strerror(errno));
            return;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = accepted.get();
        if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, accepted.get(),
                        &ev) != 0)
            continue;    // `accepted` closes the socket
        ClientConn conn;
        // analyze-owns: the clients map owns the fd; closeClient() and
        // the event-loop teardown close it.
        conn.fd = accepted.release();
        clients.emplace(conn.fd, std::move(conn));
        metrics_.inc("dynaspam_http_connections_total");
    }
}

void
Coordinator::acceptWorkers()
{
    while (true) {
        common::Fd accepted(::accept4(listenWorkerFd.get(), nullptr,
                                      nullptr, SOCK_NONBLOCK));
        if (!accepted) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("coordinator: worker accept: ", std::strerror(errno));
            return;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = accepted.get();
        if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, accepted.get(),
                        &ev) != 0)
            continue;    // `accepted` closes the socket
        WorkerConn conn;
        // analyze-owns: the workers map owns the fd; dropWorker() and
        // the event-loop teardown close it.
        conn.fd = accepted.release();
        conn.lastPong = Clock::now();
        workers.emplace(conn.fd, std::move(conn));
    }
}

void
Coordinator::onClientReadable(int fd)
{
    ClientConn &conn = clients.at(fd);
    int state = drainFd(fd, conn.in);
    if (state <= 0) {
        closeClient(fd);
        return;
    }
    if (conn.busy &&
        conn.in.size() > options.maxRequestBytes * kBusyClientBufferFactor) {
        closeClient(fd);
        return;
    }
    parseClientRequests(fd);
}

void
Coordinator::onClientWritable(int fd)
{
    ClientConn &conn = clients.at(fd);
    if (!flushBuffer(fd, conn.out)) {
        closeClient(fd);
        return;
    }
    if (conn.out.empty()) {
        if (conn.closeAfterFlush) {
            closeClient(fd);
            return;
        }
        updateEvents(fd, false);
    }
}

void
Coordinator::parseClientRequests(int fd)
{
    while (true) {
        // Re-find each round: a handler can close this client.
        auto it = clients.find(fd);
        if (it == clients.end())
            return;
        ClientConn &conn = it->second;
        if (conn.busy || conn.closeAfterFlush)
            return;

        serve::HttpRequest req;
        std::size_t consumed = 0;
        switch (serve::parseHttpRequest(conn.in, options.maxRequestBytes,
                                        req, consumed)) {
          case serve::HttpParseOutcome::NeedMore:
            return;
          case serve::HttpParseOutcome::Malformed:
            // Not keep-alive: queueResponse marks the connection
            // close-after-flush, and may close it (and free `conn`)
            // right away.
            queueResponse(conn,
                          errorResponse(400, "malformed HTTP request"),
                          false, "unparsed");
            return;
          case serve::HttpParseOutcome::TooLarge:
            queueResponse(
                conn, errorResponse(413, "request exceeds size limit"),
                false, "unparsed");
            return;
          case serve::HttpParseOutcome::Ok:
            conn.in.erase(0, consumed);
            handleHttpRequest(conn, req);
            break;
        }
    }
}

void
Coordinator::handleHttpRequest(ClientConn &conn,
                               const serve::HttpRequest &req)
{
    // HTTP/1.1 default persistence; `Connection: close` opts out, and a
    // draining coordinator stops granting keep-alive.
    bool keepAlive = toLower(req.header("connection")) != "close" &&
                     !draining;

    if (req.target == "/healthz") {
        if (req.method != "GET") {
            queueResponse(conn, errorResponse(405, "use GET"), keepAlive,
                          "/healthz");
            return;
        }
        serve::HttpResponse resp;
        resp.body = json::Value(json::Object{{"status", "ok"}}).dump(2);
        resp.body += '\n';
        queueResponse(conn, resp, keepAlive, "/healthz");
        return;
    }
    if (req.target == "/metrics") {
        if (req.method != "GET") {
            queueResponse(conn, errorResponse(405, "use GET"), keepAlive,
                          "/metrics");
            return;
        }
        queueResponse(conn, handleMetricsScrape(), keepAlive, "/metrics");
        return;
    }
    // /run accepts query parameters (?fidelity=..., ?warmup_insts=...),
    // like the single-process server; every other endpoint matches on
    // the full target.
    if (req.target.substr(0, req.target.find('?')) == "/run") {
        if (req.method != "POST") {
            queueResponse(conn, errorResponse(405, "use POST"), keepAlive,
                          "/run");
            return;
        }
        runner::Job job;
        try {
            job = runner::jobFromJson(json::Value::parse(req.body));
            runner::applyRunQuery(job, req.target);
        } catch (const FatalError &err) {
            queueResponse(conn, errorResponse(400, err.what()), keepAlive,
                          "/run");
            return;
        }
        if (job.warmupInsts == 0)
            job.warmupInsts = options.defaultWarmupInsts;
        admitRequest(conn, "/run", "run", {job}, keepAlive);
        return;
    }
    if (req.target == "/sweep") {
        if (req.method != "POST") {
            queueResponse(conn, errorResponse(405, "use POST"), keepAlive,
                          "/sweep");
            return;
        }
        runner::SweepRequest sweep;
        try {
            sweep = runner::parseSweepBody(req.body);
        } catch (const FatalError &err) {
            queueResponse(conn, errorResponse(400, err.what()), keepAlive,
                          "/sweep");
            return;
        }
        for (runner::Job &job : sweep.jobs)
            if (job.warmupInsts == 0)
                job.warmupInsts = options.defaultWarmupInsts;
        admitRequest(conn, "/sweep", sweep.name, std::move(sweep.jobs),
                     keepAlive);
        return;
    }
    if (req.target == "/explore") {
        handleExplore(conn, req);
        return;
    }
    if (req.target.rfind("/results", 0) == 0) {
        queueResponse(conn,
                      req.method == "GET" ? handleResults(req.target)
                                          : errorResponse(405, "use GET"),
                      keepAlive, "/results");
        return;
    }
    queueResponse(conn, errorResponse(404, "unknown endpoint"), keepAlive,
                  "other");
}

void
Coordinator::queueResponse(ClientConn &conn,
                           const serve::HttpResponse &resp,
                           bool keep_alive, const std::string &endpoint)
{
    metrics_.inc("dynaspam_http_requests_total",
                 requestLabels(endpoint, resp.status));
    conn.out += serve::serializeHttpResponse(resp, keep_alive);
    if (!keep_alive)
        conn.closeAfterFlush = true;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        closeClient(conn.fd);
}

void
Coordinator::closeClient(int fd)
{
    auto it = clients.find(fd);
    if (it == clients.end())
        return;
    // A pending request keeps running; its result still warms the
    // owning shard's caches. The response is dropped on completion.
    // An explore session dies with its stream: any in-flight internal
    // batch completes (warming shard caches) and is then
    // dropped when finishExploreBatch finds the session gone.
    const std::uint64_t exploreId = it->second.exploreId;
    ::close(fd);
    clients.erase(it);
    if (exploreId != 0)
        exploreSessions.erase(exploreId);
}

void
Coordinator::onWorkerReadable(int fd)
{
    WorkerConn &conn = workers.at(fd);
    int state = drainFd(fd, conn.in);
    if (state < 0) {
        dropWorker(fd, "read error");
        return;
    }

    while (workers.count(fd)) {
        Frame frame;
        std::size_t consumed = 0;
        switch (decodeFrame(workers.at(fd).in, frame, consumed)) {
          case DecodeOutcome::Bad:
            dropWorker(fd, "bad frame");
            return;
          case DecodeOutcome::NeedMore:
            if (state == 0)
                dropWorker(fd, "connection closed");
            return;
          case DecodeOutcome::Ok:
            workers.at(fd).in.erase(0, consumed);
            handleWorkerFrame(workers.at(fd), frame);
            break;
        }
    }
}

void
Coordinator::onWorkerWritable(int fd)
{
    WorkerConn &conn = workers.at(fd);
    if (!flushBuffer(fd, conn.out)) {
        dropWorker(fd, "write error");
        return;
    }
    if (conn.out.empty()) {
        if (conn.closeAfterFlush) {
            dropWorker(fd, "handshake rejected");
            return;
        }
        updateEvents(fd, false);
    }
}

void
Coordinator::handleWorkerFrame(WorkerConn &conn, const Frame &frame)
{
    if (conn.slot < 0) {
        // Pre-handshake: only Hello is legal.
        if (frame.type != FrameType::Hello) {
            dropWorker(conn.fd, "frame before Hello");
            return;
        }
        try {
            json::Value hello = json::Value::parse(frame.payload);
            if (hello.at("protocol").asUint() != kWireVersion) {
                json::Object reject;
                reject.emplace("error", "protocol version mismatch");
                conn.closeAfterFlush = true;
                queueFrame(conn, FrameType::Welcome,
                           json::Value(std::move(reject)));
                return;
            }
            if (!options.clusterToken.empty()) {
                // Authenticated enrollment: a wrong or missing token
                // drops the connection before any Welcome. The drop
                // path logs nothing at this stage, so the expected
                // token can never leak into logs (and the counter
                // below carries no label material from the frame).
                const json::Value *token = hello.find("token");
                if (!token || !token->isString() ||
                    token->asString() != options.clusterToken) {
                    metrics_.inc("dynaspam_cluster_hello_rejects_total");
                    dropWorker(conn.fd, "enrollment rejected");
                    return;
                }
            }
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Hello");
            return;
        }

        auto vacancy = std::find(slotFd.begin(), slotFd.end(), -1);
        if (vacancy == slotFd.end()) {
            json::Object reject;
            reject.emplace("error", "cluster full");
            conn.closeAfterFlush = true;
            queueFrame(conn, FrameType::Welcome,
                       json::Value(std::move(reject)));
            return;
        }
        conn.slot = int(vacancy - slotFd.begin());
        *vacancy = conn.fd;
        conn.lastPong = Clock::now();

        json::Object welcome;
        welcome.emplace("slot", std::uint64_t(conn.slot));
        welcome.emplace("slots", std::uint64_t(options.workerSlots));
        queueFrame(conn, FrameType::Welcome,
                   json::Value(std::move(welcome)));
        updateWorkerGauge();
        if (options.verbose)
            inform("coordinator: worker joined slot ", conn.slot, "/",
                   options.workerSlots);
        assignPendingBatches();
        return;
    }

    switch (frame.type) {
      case FrameType::Pong: {
        conn.lastPong = Clock::now();
        try {
            json::Value pong = json::Value::parse(frame.payload);
            const std::string label = workerLabel(conn.slot);
            metrics_.set("dynaspam_cluster_worker_queue_depth", label,
                         double(pong.at("queued").asUint()));
            metrics_.set("dynaspam_cluster_worker_evictions", label,
                         double(pong.at("evictions").asUint()));
            // Cumulative warm passes the worker actually simulated; a
            // snapshot-cache-served sweep leaves this flat, which the
            // ship-smoke asserts over /metrics.
            if (const json::Value *warmups = pong.find("warmups"))
                metrics_.set("dynaspam_cluster_worker_warmups", label,
                             double(warmups->asUint()));
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Pong");
        }
        break;
      }
      case FrameType::Result:
      case FrameType::ResultRaw:
        handleResult(conn, frame);
        break;
      default:
        dropWorker(conn.fd, "unexpected frame type");
        break;
    }
}

void
Coordinator::handleResult(WorkerConn &conn, const Frame &frame)
{
    // Success results arrive as binary ResultRaw frames whose entries
    // are pre-rendered report fragments — spliced below via json::Raw,
    // never parsed. The JSON Result frame only carries errors.
    std::uint64_t batchId = 0;
    std::vector<RawEntry> rawEntries;
    std::string error;
    int status = 500;
    if (frame.type == FrameType::ResultRaw) {
        if (!decodeResultRaw(frame.payload, batchId, rawEntries)) {
            dropWorker(conn.fd, "malformed Result");
            return;
        }
    } else {
        try {
            json::Value payload = json::Value::parse(frame.payload);
            batchId = payload.at("id").asUint();
            error = payload.at("error").asString();
            // 503: the batch's deadline passed before the worker
            // started it (the request has normally failed already).
            if (const json::Value *code = payload.find("status"))
                status = int(code->asUint());
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Result");
            return;
        }
    }

    conn.inflight.erase(batchId);
    metrics_.set("dynaspam_cluster_worker_inflight",
                 workerLabel(conn.slot), double(conn.inflight.size()));

    auto batchIt = batches.find(batchId);
    if (batchIt == batches.end())
        return;    // request already failed; late result, ignore
    Batch batch = std::move(batchIt->second);
    batches.erase(batchIt);

    auto reqIt = requests.find(batch.requestId);
    if (reqIt == requests.end())
        return;    // request died (deadline/client); drop the result
    Request &request = reqIt->second;
    request.batchIds.erase(batch.id);

    if (!error.empty()) {
        // Deterministic execution failure: retrying would reproduce it.
        failRequest(request.id, status, error);
        return;
    }

    if (rawEntries.size() != batch.jobIndices.size()) {
        failRequest(request.id, 500,
                    "shard returned " +
                        std::to_string(rawEntries.size()) +
                        " entries for a " +
                        std::to_string(batch.jobIndices.size()) +
                        "-job batch");
        return;
    }
    for (std::size_t i = 0; i < rawEntries.size(); i++) {
        if (rawEntries[i].fromCache)
            request.hits++;
        request.entries[batch.jobIndices[i]] =
            json::Value(json::Raw{std::move(rawEntries[i].fragment)});
        request.remaining--;
    }

    if (request.remaining == 0)
        finishRequest(request);
}

void
Coordinator::queueFrame(WorkerConn &conn, FrameType type,
                        const json::Value &payload)
{
    conn.out += encodeFrame(type, payload.dump());
    if (!flushBuffer(conn.fd, conn.out)) {
        dropWorker(conn.fd, "write error");
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        dropWorker(conn.fd, "handshake rejected");
}

void
Coordinator::dropWorker(int fd, const char *why)
{
    auto it = workers.find(fd);
    if (it == workers.end())
        return;
    WorkerConn &conn = it->second;
    const int slot = conn.slot;
    const std::set<std::uint64_t> inflight = std::move(conn.inflight);

    if (slot >= 0) {
        slotFd[std::size_t(slot)] = -1;
        metrics_.set("dynaspam_cluster_worker_inflight", workerLabel(slot),
                     0.0);
        if (options.verbose)
            warn("coordinator: worker slot ", slot, " dropped (", why,
                 "), ", inflight.size(), " batches to reassign");
    }
    ::close(fd);
    workers.erase(it);
    updateWorkerGauge();

    const Clock::time_point now = Clock::now();
    for (std::uint64_t batchId : inflight) {
        auto batchIt = batches.find(batchId);
        if (batchIt == batches.end())
            continue;
        Batch &batch = batchIt->second;
        batch.assignedFd = -1;
        if (!requests.count(batch.requestId)) {
            batches.erase(batchIt);
            continue;
        }
        batch.attempts++;
        metrics_.inc("dynaspam_cluster_batch_retries_total",
                     workerLabel(slot));
        if (batch.attempts > options.maxBatchRetries) {
            std::ostringstream os;
            os << "shard batch failed after " << options.maxBatchRetries
               << " reassignments (workers keep dying)";
            failRequest(batch.requestId, 503, os.str());
            continue;
        }
        // Exponential backoff: 1x, 2x, 4x, ... the base, clamped so a
        // high attempt count can neither overflow the shift (UB at 64)
        // nor schedule the retry past any useful horizon.
        batch.notBefore = now + std::chrono::milliseconds(
            retryBackoffDelayMs(options.retryBackoffMs, batch.attempts,
                                kRetryBackoffCapMs));
    }
    assignPendingBatches();
}

void
Coordinator::admitRequest(ClientConn &conn, const std::string &endpoint,
                          const std::string &name,
                          std::vector<runner::Job> jobs, bool keep_alive)
{
    if (draining) {
        queueResponse(conn, errorResponse(503, "coordinator is draining"),
                      false, endpoint);
        return;
    }
    if (outstandingJobs + jobs.size() > options.queueCapacity) {
        std::ostringstream os;
        os << "admission queue full (" << outstandingJobs
           << " outstanding, " << jobs.size() << " requested, capacity "
           << options.queueCapacity << ")";
        queueResponse(conn, errorResponse(429, os.str()), keep_alive,
                      endpoint);
        return;
    }
    if (liveWorkerCount() == 0) {
        queueResponse(conn, errorResponse(503, "no workers connected"),
                      keep_alive, endpoint);
        return;
    }

    Request request;
    request.clientFd = conn.fd;
    request.name = name;
    request.keepAlive = keep_alive;
    request.endpoint = endpoint;
    request.jobs = std::move(jobs);
    request.deadline = Clock::now() +
                       std::chrono::milliseconds(options.requestTimeoutMs);
    conn.busy = true;
    conn.requestId = fanOut(std::move(request));
    assignPendingBatches();
}

std::uint64_t
Coordinator::fanOut(Request request)
{
    const std::uint64_t id = nextRequestId++;
    Request &r = requests[id];
    r = std::move(request);
    r.id = id;
    r.entries.resize(r.jobs.size());
    r.remaining = r.jobs.size();
    r.start = Clock::now();

    // Shard: group the job indices by FNV-1a hash-space owner slot,
    // using the fork-group hash so every member of a fork group lands
    // on the same worker — that worker warms the shared prefix once (or
    // loads it from its snapshot cache) and forks all members from it.
    // Jobs without a warmup phase keep their per-job hash, preserving
    // shard-local result-cache locality.
    std::map<unsigned, std::vector<std::size_t>> shards;
    for (std::size_t i = 0; i < r.jobs.size(); i++)
        shards[ownerSlot(runner::forkGroupHash(r.jobs[i]),
                         options.workerSlots)]
            .push_back(i);
    for (auto &shard : shards) {
        const std::uint64_t batchId = nextBatchId++;
        Batch &batch = batches[batchId];
        batch.id = batchId;
        batch.requestId = id;
        batch.ownerSlot = shard.first;
        batch.jobIndices = std::move(shard.second);
        batch.notBefore = r.start;
        r.batchIds.insert(batchId);
    }

    outstandingJobs += r.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    return id;
}

void
Coordinator::assignPendingBatches()
{
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> orphaned;
    for (auto &kv : batches) {
        Batch &batch = kv.second;
        if (batch.assignedFd >= 0 || batch.notBefore > now)
            continue;
        if (!requests.count(batch.requestId)) {
            orphaned.push_back(kv.first);
            continue;
        }
        assignBatch(batch);
    }
    for (std::uint64_t id : orphaned)
        batches.erase(id);
}

bool
Coordinator::assignBatch(Batch &batch)
{
    const int fd = liveWorkerForSlot(batch.ownerSlot);
    if (fd < 0)
        return false;    // stays pending until a worker joins
    auto reqIt = requests.find(batch.requestId);
    if (reqIt == requests.end())
        return false;

    json::Array jobSpecs;
    for (std::size_t index : batch.jobIndices)
        jobSpecs.push_back(runner::jobToJson(reqIt->second.jobs[index]));
    json::Object payload;
    payload.emplace("id", batch.id);
    payload.emplace("jobs", std::move(jobSpecs));
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        reqIt->second.deadline - Clock::now());
    payload.emplace("deadline_ms",
                    std::uint64_t(std::max<std::int64_t>(0, left.count())));

    WorkerConn &conn = workers.at(fd);
    batch.assignedFd = fd;
    conn.inflight.insert(batch.id);
    metrics_.set("dynaspam_cluster_worker_inflight",
                 workerLabel(conn.slot), double(conn.inflight.size()));
    queueFrame(conn, FrameType::Batch, json::Value(std::move(payload)));
    return true;
}

void
Coordinator::failRequest(std::uint64_t requestId, int status,
                         const std::string &message)
{
    auto it = requests.find(requestId);
    if (it == requests.end())
        return;
    Request &request = it->second;
    dropRequestBatches(request);
    const std::uint64_t exploreId = request.exploreSessionId;
    if (exploreId == 0)
        respond(request, errorResponse(status, message));
    outstandingJobs -= request.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    requests.erase(it);
    // An internal explore batch fails its whole search: the stream
    // already carries partial generations, so the failure surfaces as
    // a terminal error line instead of an HTTP status.
    if (exploreId != 0)
        failExploreSession(exploreId, status, message);
}

void
Coordinator::finishRequest(Request &request)
{
    if (request.exploreSessionId != 0) {
        const std::uint64_t sessionId = request.exploreSessionId;
        finishExploreBatch(request);
        driveExplore(sessionId);
        return;
    }

    StatRegistry registry = runner::sweepRequestStats(
        request.jobs.size(), request.hits);
    std::ostringstream os;
    runner::sweepReportJson(request.name, std::move(request.entries),
                            &registry)
        .write(os, 2);
    os << "\n";

    metrics_.inc("dynaspam_cache_hits_total", double(request.hits));
    metrics_.inc("dynaspam_cache_misses_total",
                 double(request.jobs.size() - request.hits));
    metrics_.observe("dynaspam_request_latency_seconds",
                     std::chrono::duration<double>(Clock::now() -
                                                   request.start)
                         .count());

    serve::HttpResponse resp;
    resp.body = os.str();
    respond(request, resp);

    outstandingJobs -= request.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    requests.erase(request.id);
}

void
Coordinator::respond(const Request &request,
                     const serve::HttpResponse &resp)
{
    auto it = clients.find(request.clientFd);
    if (it == clients.end() || it->second.requestId != request.id ||
        !it->second.busy) {
        // Client vanished; still account the request.
        metrics_.inc("dynaspam_http_requests_total",
                     requestLabels(request.endpoint, resp.status));
        return;
    }
    ClientConn &conn = it->second;
    conn.busy = false;
    conn.requestId = 0;
    queueResponse(conn, resp, request.keepAlive, request.endpoint);
    parseClientRequests(request.clientFd);
}

void
Coordinator::handleExplore(ClientConn &conn,
                           const serve::HttpRequest &req)
{
    // The stream never keeps the connection alive: the chunk
    // terminator plus close is how it ends.
    if (req.method != "POST") {
        queueResponse(conn, errorResponse(405, "use POST"), false,
                      "/explore");
        return;
    }
    explore::Space space;
    try {
        space = explore::Space::fromJson(json::Value::parse(req.body));
    } catch (const FatalError &err) {
        queueResponse(conn, errorResponse(400, err.what()), false,
                      "/explore");
        return;
    }
    if (draining) {
        queueResponse(conn, errorResponse(503, "coordinator is draining"),
                      false, "/explore");
        return;
    }

    const std::uint64_t id = nextExploreId++;
    ExploreSession &session = exploreSessions[id];
    session.id = id;
    session.clientFd = conn.fd;
    session.engine = std::make_unique<explore::Engine>(std::move(space));
    session.deadline =
        Clock::now() +
        std::chrono::milliseconds(options.requestTimeoutMs);

    // Admission is decided on the first engine batch, before any
    // stream bytes: a full queue or an empty worker ring turns into
    // the same plain 429/503 a /sweep would get.
    const std::vector<runner::Job> &first = session.engine->nextBatch();
    if (!first.empty()) {
        if (outstandingJobs + first.size() > options.queueCapacity) {
            std::ostringstream os;
            os << "admission queue full (" << outstandingJobs
               << " outstanding, " << first.size()
               << " requested, capacity " << options.queueCapacity << ")";
            exploreSessions.erase(id);
            queueResponse(conn, errorResponse(429, os.str()), false,
                          "/explore");
            return;
        }
        if (liveWorkerCount() == 0) {
            exploreSessions.erase(id);
            queueResponse(conn,
                          errorResponse(503, "no workers connected"),
                          false, "/explore");
            return;
        }
    }

    // Count the request as a 200 now; later failures surface as a
    // terminal error line inside the stream.
    metrics_.inc("dynaspam_http_requests_total",
                 requestLabels("/explore", 200));
    conn.busy = true;
    conn.exploreId = id;
    conn.out += serve::chunkedResponseHead(200, "application/x-ndjson");
    std::string startBytes;
    for (const std::string &line : session.engine->start())
        startBytes += serve::encodeChunk(line + "\n");
    if (!emitExplore(id, startBytes))
        return;
    driveExplore(id);
}

void
Coordinator::driveExplore(std::uint64_t sessionId)
{
    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return;
    ExploreSession &session = it->second;
    if (session.requestId != 0)
        return;    // waiting on shard results
    if (session.engine->done())
        endExploreStream(sessionId);
    else
        dispatchExploreBatch(session);
}

void
Coordinator::dispatchExploreBatch(ExploreSession &session)
{
    // Internal batches bypass the draining/queue-capacity rejections:
    // the search was admitted as a whole when its stream began, and a
    // draining coordinator still finishes running streams. The engine
    // hands out a non-empty batch whenever it is not done.
    Request request;
    request.clientFd = -1;    // results flow over the stream, not HTTP
    request.name = "explore";
    request.endpoint = "/explore";
    request.exploreSessionId = session.id;
    request.jobs = session.engine->nextBatch();
    request.deadline = session.deadline;
    session.requestId = fanOut(std::move(request));
    assignPendingBatches();
}

void
Coordinator::finishExploreBatch(Request &request)
{
    const std::uint64_t sessionId = request.exploreSessionId;

    // Decode the pre-rendered entries back into outcomes for the
    // engine. This is the one place the coordinator parses fragments —
    // the price of reusing the /sweep shard machinery unchanged.
    std::vector<runner::JobOutcome> outcomes;
    std::string decodeError;
    for (const json::Value &entry : request.entries) {
        try {
            json::Value doc = json::Value::parse(entry.asRaw().text);
            runner::JobOutcome outcome;
            outcome.job = runner::jobFromJson(doc.at("job"));
            outcome.result = runner::resultFromJson(doc.at("result"));
            const json::Value *fc = doc.find("from_cache");
            outcome.fromCache = fc && fc->asBool();
            outcomes.push_back(std::move(outcome));
        } catch (const FatalError &err) {
            decodeError = err.what();
            break;
        }
    }

    outstandingJobs -= request.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    requests.erase(request.id);    // `request` is dead past this line

    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return;    // stream gone; the results still warmed the caches
    ExploreSession &session = it->second;
    session.requestId = 0;
    if (!decodeError.empty()) {
        failExploreSession(sessionId, 500,
                           "shard entry undecodable: " + decodeError);
        return;
    }
    std::vector<std::string> lines;
    try {
        lines = session.engine->feed(outcomes);
    } catch (const FatalError &err) {
        failExploreSession(sessionId, 500, err.what());
        return;
    }
    std::string bytes;
    for (const std::string &line : lines)
        bytes += serve::encodeChunk(line + "\n");
    emitExplore(sessionId, bytes);
}

bool
Coordinator::emitExplore(std::uint64_t sessionId,
                         const std::string &bytes)
{
    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return false;
    auto clientIt = clients.find(it->second.clientFd);
    if (clientIt == clients.end()) {
        exploreSessions.erase(it);
        return false;
    }
    ClientConn &conn = clientIt->second;
    conn.out += bytes;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);    // also erases the session
        return false;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        closeClient(conn.fd);
    return exploreSessions.count(sessionId) > 0;
}

void
Coordinator::endExploreStream(std::uint64_t sessionId)
{
    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return;
    const int fd = it->second.clientFd;
    exploreSessions.erase(it);
    auto clientIt = clients.find(fd);
    if (clientIt == clients.end())
        return;
    ClientConn &conn = clientIt->second;
    conn.out += serve::kLastChunk;
    conn.closeAfterFlush = true;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else
        closeClient(conn.fd);
}

void
Coordinator::failExploreSession(std::uint64_t sessionId, int status,
                                const std::string &message)
{
    json::Object err;
    err.emplace("type", "error");
    err.emplace("status", std::uint64_t(status));
    err.emplace("error", message);
    emitExplore(sessionId,
                serve::encodeChunk(json::Value(std::move(err)).dump() +
                                   "\n"));
    endExploreStream(sessionId);
}

void
Coordinator::dropRequestBatches(const Request &request)
{
    for (std::uint64_t batchId : request.batchIds) {
        auto it = batches.find(batchId);
        if (it == batches.end())
            continue;
        const int fd = it->second.assignedFd;
        if (fd >= 0) {
            auto workerIt = workers.find(fd);
            if (workerIt != workers.end()) {
                workerIt->second.inflight.erase(batchId);
                metrics_.set("dynaspam_cluster_worker_inflight",
                             workerLabel(workerIt->second.slot),
                             double(workerIt->second.inflight.size()));
            }
        }
        batches.erase(it);
    }
}

void
Coordinator::sendPings()
{
    // Collect first: queueFrame can drop a worker, mutating the map.
    std::vector<int> fds;
    for (const auto &kv : workers)
        if (kv.second.slot >= 0)
            fds.push_back(kv.first);
    for (int fd : fds) {
        auto it = workers.find(fd);
        if (it == workers.end())
            continue;
        json::Object ping;
        ping.emplace("tick", pingTick);
        queueFrame(it->second, FrameType::Ping,
                   json::Value(std::move(ping)));
    }
    pingTick++;
}

void
Coordinator::checkTimers()
{
    const Clock::time_point now = Clock::now();

    if (now - lastPingSweep >=
        std::chrono::milliseconds(options.pingIntervalMs)) {
        lastPingSweep = now;
        sendPings();

        std::vector<int> stale;
        for (const auto &kv : workers)
            if (kv.second.slot >= 0 &&
                now - kv.second.lastPong >
                    std::chrono::milliseconds(options.pingTimeoutMs))
                stale.push_back(kv.first);
        for (int fd : stale)
            dropWorker(fd, "ping timeout");
    }

    std::vector<std::uint64_t> expired;
    for (const auto &kv : requests)
        if (kv.second.deadline <= now)
            expired.push_back(kv.first);
    for (std::uint64_t id : expired)
        failRequest(id, 503,
                    "request deadline exceeded before all shards "
                    "reported");

    assignPendingBatches();
}

std::size_t
Coordinator::liveWorkerCount() const
{
    std::size_t n = 0;
    for (int fd : slotFd)
        if (fd >= 0)
            n++;
    return n;
}

int
Coordinator::liveWorkerForSlot(unsigned slot) const
{
    // Owner first; on failure scan upward (mod slots) so reassignment
    // is deterministic and spreads across the ring.
    for (unsigned i = 0; i < options.workerSlots; i++) {
        int fd = slotFd[(slot + i) % options.workerSlots];
        if (fd >= 0)
            return fd;
    }
    return -1;
}

void
Coordinator::updateWorkerGauge()
{
    metrics_.set("dynaspam_cluster_workers_connected",
                 double(liveWorkerCount()));
}

serve::HttpResponse
Coordinator::handleMetricsScrape()
{
    double hits = metrics_.value("dynaspam_cache_hits_total");
    double misses = metrics_.value("dynaspam_cache_misses_total");
    double lookups = hits + misses;
    metrics_.set("dynaspam_cache_hit_ratio",
                 lookups > 0 ? hits / lookups : 0.0);

    serve::HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = metrics_.render();
    return resp;
}

serve::HttpResponse
Coordinator::handleResults(const std::string &target) const
{
    const std::string prefix = "/results/";
    const std::string hash = target.rfind(prefix, 0) == 0
                                 ? target.substr(prefix.size())
                                 : std::string();
    if (!isHexHash(hash))
        return errorResponse(404, "not a job hash (16 lowercase hex "
                                  "characters)");
    std::optional<std::pair<runner::Job, sim::RunResult>> cached =
        resultCache.loadByHash(hash);
    if (!cached)
        return errorResponse(404, "no cached result for hash " + hash);

    // The report a cached `dynaspam run` of that job writes.
    StatRegistry registry = runner::sweepRequestStats(1, 1);
    std::ostringstream os;
    runner::writeSweepReport(
        os, "run",
        {runner::JobOutcome{cached->first, std::move(cached->second), true}},
        &registry);
    serve::HttpResponse resp;
    resp.body = os.str();
    return resp;
}

serve::HttpResponse
Coordinator::errorResponse(int status, const std::string &message)
{
    serve::HttpResponse resp;
    resp.status = status;
    resp.body = json::Value(json::Object{{"error", message}}).dump(2);
    resp.body += '\n';
    if (status == 429)
        resp.extraHeaders.emplace_back("Retry-After", "2");
    return resp;
}

} // namespace dynaspam::cluster
