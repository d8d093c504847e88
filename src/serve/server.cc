#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "explore/engine.hh"
#include "runner/spec.hh"

namespace dynaspam::serve
{

namespace
{

/** Done entries retained in the job table for GET /results. */
constexpr std::size_t kDoneRetain = 1024;

/** SO_RCVTIMEO on accepted connections: a stalled client gets 408. */
constexpr unsigned kSocketTimeoutSec = 5;

/** Cache GC every this many stores when a size budget is configured. */
constexpr std::uint64_t kGcStoreInterval = 32;

/**
 * Self-pipe write end for the SIGTERM/SIGINT drain handler. A plain
 * write(2) is async-signal-safe; everything else happens on ordinary
 * threads once the accept loop wakes.
 */
std::atomic<int> gDrainWakeFd{-1};

extern "C" void
drainSignalHandler(int)
{
    int fd = gDrainWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

/** Map a request target to its metrics label ("/results/ab12" folds). */
std::string
endpointLabel(const std::string &target)
{
    if (target == "/run" || target == "/sweep" ||
        target == "/explore" || target == "/healthz" ||
        target == "/metrics")
        return target;
    if (target.rfind("/results/", 0) == 0 || target == "/results")
        return "/results";
    return "other";
}

/** Pre-formatted Prometheus label set for the request counter. */
std::string
requestLabels(const std::string &endpoint, int status)
{
    std::ostringstream os;
    os << "endpoint=\"" << endpoint << "\",status=\"" << status << "\"";
    return os.str();
}

bool
isHexHash(const std::string &s)
{
    if (s.size() != 16)
        return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    });
}

} // namespace

Server::Server(ServerOptions options_)
    : options(std::move(options_)),
      cache(options.cacheDir),
      snapCache(options.snapshotCacheDir),
      pool(std::make_unique<runner::ThreadPool>(
          options.jobs ? options.jobs
                       : runner::ThreadPool::defaultWorkers()))
{
    if (!options.executeFn)
        options.executeFn = [this](const runner::Job &job) {
            // With a snapshot cache, a warmup job runs as a
            // single-member fork group: its warmed prefix is loaded
            // from / persisted to disk, so repeat requests (and daemon
            // restarts) skip the warm pass. The result cache is probed
            // and populated by the server's own job table, so the
            // group runs with the result cache disabled.
            if (snapCache.enabled() && job.warmupInsts > 0) {
                std::vector<runner::Job> jobs{job};
                std::vector<runner::JobOutcome> outcomes(1);
                runner::runForkGroup(jobs, {0}, outcomes, nullptr,
                                     &snapCache, &groupStats);
                return std::move(outcomes[0].result);
            }
            return runner::execute(job);
        };

    metrics_.declareCounter("dynaspam_http_requests_total",
                            "HTTP requests by endpoint and status code.");
    metrics_.declareCounter("dynaspam_http_connections_total",
                            "Accepted TCP connections.");
    metrics_.declareGauge("dynaspam_queue_depth",
                          "Jobs admitted but not yet running.");
    metrics_.declareGauge("dynaspam_jobs_inflight",
                          "Jobs currently simulating.");
    metrics_.declareCounter("dynaspam_jobs_executed_total",
                            "Simulations completed by this process.");
    metrics_.declareCounter("dynaspam_jobs_cancelled_total",
                            "Queued jobs cancelled by request timeout.");
    metrics_.declareCounter("dynaspam_cache_hits_total",
                            "Result-cache hits.");
    metrics_.declareCounter("dynaspam_cache_misses_total",
                            "Result-cache misses.");
    metrics_.declareGauge("dynaspam_cache_hit_ratio",
                          "Lifetime cache hits / lookups (0 when none).");
    metrics_.declareHistogram(
        "dynaspam_sim_kips",
        "Simulation speed per executed job, in kilo-instructions "
        "committed per wall-clock second.",
        {250, 500, 1000, 2000, 4000, 8000, 16000, 32000});
}

Server::~Server()
{
    if (started && !drained) {
        beginDrain();
        waitUntilDrained();
    }
}

void
Server::start()
{
    if (started)
        panic("Server::start called twice");

    wakePipe = common::Pipe::create();

    listenFd = listenTcp(options.bindAddress, options.port,
                         options.acceptBacklog, boundPort);

    started = true;
    acceptThread = std::thread([this] { acceptLoop(); });
}

void
Server::beginDrain()
{
    draining.store(true, std::memory_order_relaxed);
    if (wakePipe.writeEnd.valid()) {
        char byte = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakePipe.writeEnd.get(), &byte, 1);
    }
}

void
Server::waitUntilDrained()
{
    if (!started || drained)
        return;

    if (acceptThread.joinable())
        acceptThread.join();

    // Close the listen socket now (not in the destructor): with it open
    // the kernel would keep completing handshakes into the backlog that
    // no one will ever serve.
    listenFd.reset();

    // Every connection thread either finishes its response or times out
    // on its request deadline; either way the count reaches zero.
    {
        common::MutexLock lock(connMutex);
        while (activeConnections != 0)
            connIdle.wait(connMutex);
    }

    // Destroying the pool drains every still-queued job (results land
    // in the cache for the next process), then joins the workers.
    pool.reset();

    if (cache.enabled()) {
        runner::CacheGcStats gcStats = cache.gc(options.cacheMaxBytes);
        if (options.verbose && (gcStats.staleEvicted || gcStats.lruEvicted))
            inform("serve: final cache gc evicted ",
                   gcStats.staleEvicted + gcStats.lruEvicted, " entries");
    }
    if (snapCache.enabled()) {
        runner::CacheGcStats gcStats =
            snapCache.gc(options.snapshotCacheMaxBytes);
        if (options.verbose && (gcStats.staleEvicted || gcStats.lruEvicted))
            inform("serve: final snapshot gc evicted ",
                   gcStats.staleEvicted + gcStats.lruEvicted, " entries");
    }
    drained = true;
}

int
Server::serveForever()
{
    start();

    gDrainWakeFd.store(wakePipe.writeEnd.get(), std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = drainSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    if (options.verbose)
        inform("serve: listening on ", options.bindAddress, ":", port(),
               " (", pool->workers(), " workers, queue capacity ",
               options.queueCapacity, ")");

    waitUntilDrained();
    gDrainWakeFd.store(-1, std::memory_order_relaxed);

    if (options.verbose)
        inform("serve: drained, exiting");
    return 0;
}

void
Server::acceptLoop()
{
    while (true) {
        pollfd fds[2] = {{listenFd.get(), POLLIN, 0},
                         {wakePipe.readEnd.get(), POLLIN, 0}};
        int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: ", std::strerror(errno));
            return;
        }
        if (fds[1].revents)
            return;    // drain requested
        if (!(fds[0].revents & POLLIN))
            continue;

        common::Fd conn(::accept(listenFd.get(), nullptr, nullptr));
        if (!conn) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("serve: accept: ", std::strerror(errno));
            return;
        }

        timeval tv{};
        tv.tv_sec = kSocketTimeoutSec;
        ::setsockopt(conn.get(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv));

        metrics_.inc("dynaspam_http_connections_total");
        {
            common::MutexLock lock(connMutex);
            activeConnections++;
        }
        try {
            // The thread owns the descriptor from here; handleConnection
            // closes it on every exit path.
            int fd = conn.get();
            std::thread([this, fd] {
                handleConnection(fd);
                common::MutexLock lock(connMutex);
                if (--activeConnections == 0)
                    connIdle.notifyAll();
            }).detach();
            conn.release();
        } catch (const std::system_error &err) {
            // Thread creation failed (EAGAIN under thread exhaustion).
            // Undo the count we took above — leaving it incremented
            // would wedge waitUntilDrained forever — and let `conn`
            // close the socket.
            warn("serve: cannot spawn connection thread: ", err.what());
            common::MutexLock lock(connMutex);
            if (--activeConnections == 0)
                connIdle.notifyAll();
        }
    }
}

void
Server::handleConnection(int fd)
{
    // Takes ownership of @p fd (int parameter so tests can hand it a
    // socketpair end): closed on every return path from here on.
    common::Fd conn(fd);
    std::string carry;
    bool first = true;
    while (true) {
        HttpRequest req;
        HttpReadOutcome outcome =
            readHttpRequestBuffered(conn.get(), options.maxRequestBytes,
                                    req, carry);

        HttpResponse resp;
        std::string endpoint = "unparsed";
        bool keepAlive = false;
        switch (outcome) {
          case HttpReadOutcome::Closed:
            return;
          case HttpReadOutcome::Malformed:
            resp = errorResponse(400, "malformed HTTP request");
            break;
          case HttpReadOutcome::TooLarge:
            resp = errorResponse(413, "request exceeds size limit");
            break;
          case HttpReadOutcome::Timeout:
            // Between requests on a kept-alive connection a read
            // timeout just means the client went idle: close silently.
            // Mid-request (bytes buffered, or the very first request)
            // it is a stalled client: 408.
            if (!first && carry.empty())
                return;
            resp = errorResponse(408, "timed out reading request");
            break;
          case HttpReadOutcome::Ok:
            if (req.target == "/explore") {
                // Streaming endpoint: writes its own response bytes
                // (chunked NDJSON on success) and never keeps the
                // connection alive — the chunk terminator plus close
                // is how the stream ends.
                endpoint = "/explore";
                int status = handleExploreStream(conn.get(), req);
                metrics_.inc("dynaspam_http_requests_total",
                             requestLabels(endpoint, status));
                return;
            }
            resp = route(req, endpoint);
            keepAlive = req.wantsKeepAlive() &&
                        !draining.load(std::memory_order_relaxed);
            break;
        }

        metrics_.inc("dynaspam_http_requests_total",
                     requestLabels(endpoint, resp.status));
        if (!writeHttpResponse(conn.get(), resp, keepAlive) || !keepAlive)
            return;
        first = false;
    }
}

HttpResponse
Server::route(const HttpRequest &req, std::string &endpoint)
{
    // /run accepts query parameters (?fidelity=..., ?warmup_insts=...);
    // every other endpoint matches on the full target as before.
    const std::string path = req.target.substr(0, req.target.find('?'));
    endpoint = endpointLabel(path == "/run" ? path : req.target);

    if (req.target == "/healthz")
        return req.method == "GET" ? handleHealthz()
                                   : errorResponse(405, "use GET");
    if (req.target == "/metrics")
        return req.method == "GET" ? handleMetrics()
                                   : errorResponse(405, "use GET");
    if (path == "/run")
        return req.method == "POST" ? handleRun(req)
                                    : errorResponse(405, "use POST");
    if (req.target == "/sweep")
        return req.method == "POST" ? handleSweep(req)
                                    : errorResponse(405, "use POST");
    if (req.target.rfind("/results/", 0) == 0)
        return req.method == "GET" ? handleResults(req.target)
                                   : errorResponse(405, "use GET");
    return errorResponse(404, "unknown endpoint");
}

HttpResponse
Server::handleHealthz()
{
    HttpResponse resp;
    resp.body = json::Value(json::Object{{"status", "ok"}}).dump(2);
    resp.body += '\n';
    return resp;
}

HttpResponse
Server::handleMetrics()
{
    // Derived gauge: refresh from the raw counters at scrape time. The
    // scrape's own request is counted after routing, so a scrape never
    // includes itself.
    double hits = metrics_.value("dynaspam_cache_hits_total");
    double misses = metrics_.value("dynaspam_cache_misses_total");
    double lookups = hits + misses;
    metrics_.set("dynaspam_cache_hit_ratio",
                 lookups > 0 ? hits / lookups : 0.0);

    HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = metrics_.render();
    return resp;
}

HttpResponse
Server::handleRun(const HttpRequest &req)
{
    runner::Job job;
    try {
        job = runner::jobFromSpecJson(json::Value::parse(req.body));
        runner::applyRunQuery(job, req.target);
    } catch (const FatalError &err) {
        return errorResponse(400, err.what());
    }
    if (job.warmupInsts == 0)
        job.warmupInsts = options.defaultWarmupInsts;

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.requestTimeoutMs);
    Acquired acq = acquireJobs({job}, deadline);
    if (acq.status != 200)
        return errorResponse(acq.status, acq.error);

    HttpResponse resp;
    resp.body = runReport(acq.outcomes.front());
    return resp;
}

HttpResponse
Server::handleSweep(const HttpRequest &req)
{
    runner::SweepRequest sweep;
    try {
        sweep = runner::parseSweepBody(req.body);
    } catch (const FatalError &err) {
        return errorResponse(400, err.what());
    }
    for (runner::Job &job : sweep.jobs)
        if (job.warmupInsts == 0)
            job.warmupInsts = options.defaultWarmupInsts;

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options.requestTimeoutMs);
    Acquired acq = acquireJobs(sweep.jobs, deadline);
    if (acq.status != 200)
        return errorResponse(acq.status, acq.error);

    HttpResponse resp;
    resp.body = sweepReport(sweep.name, acq.outcomes);
    return resp;
}

int
Server::handleExploreStream(int fd, const HttpRequest &req)
{
    auto fail = [&](int status, const std::string &message) {
        writeHttpResponse(fd, errorResponse(status, message));
        return status;
    };
    if (req.method != "POST")
        return fail(405, "use POST");
    explore::Space space;
    try {
        space = explore::Space::fromJson(json::Value::parse(req.body));
    } catch (const FatalError &err) {
        return fail(400, err.what());
    }
    if (draining.load(std::memory_order_relaxed))
        return fail(503, "server is draining");

    // One deadline covers the whole search, exactly like one /sweep:
    // any batch still queued at the deadline cancels and the stream
    // terminates with an error line.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.requestTimeoutMs);

    explore::Engine engine(space);
    bool headSent = false;
    auto emit = [&](const std::string &line) {
        const std::string chunk = encodeChunk(line + "\n");
        return sendAll(fd, chunk.data(), chunk.size());
    };
    auto emitAll = [&](const std::vector<std::string> &lines) {
        for (const std::string &line : lines)
            if (!emit(line))
                return false;
        return true;
    };

    const std::vector<std::string> startLines = engine.start();
    while (!engine.done()) {
        const std::vector<runner::Job> &batch = engine.nextBatch();
        Acquired acq = acquireJobs(batch, deadline);
        if (!headSent) {
            // Admission is decided on the first batch, before any
            // stream bytes: a full queue or a draining server turns
            // into the same plain 429/503 a /sweep would get.
            if (acq.status != 200)
                return fail(acq.status, acq.error);
            const std::string head =
                chunkedResponseHead(200, "application/x-ndjson");
            if (!sendAll(fd, head.data(), head.size()) ||
                !emitAll(startLines))
                return 200;
            headSent = true;
        } else if (acq.status != 200) {
            json::Object err;
            err.emplace("type", "error");
            err.emplace("status", std::uint64_t(acq.status));
            err.emplace("error", acq.error);
            emit(json::Value(std::move(err)).dump());
            break;
        }
        if (!emitAll(engine.feed(acq.outcomes)))
            return 200;
    }
    if (!headSent) {
        // A search that needs no batches at all still streams its
        // header and final lines.
        const std::string head =
            chunkedResponseHead(200, "application/x-ndjson");
        if (!sendAll(fd, head.data(), head.size()) ||
            !emitAll(startLines))
            return 200;
    }
    sendAll(fd, kLastChunk, std::strlen(kLastChunk));
    return 200;
}

HttpResponse
Server::handleResults(const std::string &target)
{
    const std::string hash = target.substr(std::strlen("/results/"));
    if (!isHexHash(hash))
        return errorResponse(404, "not a job hash (16 lowercase hex "
                                  "characters)");

    // The in-memory table first: it has results the disk cache may not
    // (cache disabled, or the entry already LRU-evicted).
    {
        common::MutexLock lock(tableMutex);
        auto it = entries.find(hash);
        if (it != entries.end()) {
            const JobEntry &entry = *it->second;
            if (entry.state == JobEntry::State::Done && !entry.failed) {
                HttpResponse resp;
                resp.body = runReport(
                    runner::JobOutcome{entry.job, entry.result, false});
                return resp;
            }
            if (entry.state == JobEntry::State::Queued ||
                entry.state == JobEntry::State::Running) {
                HttpResponse resp;
                resp.status = 202;
                resp.body =
                    json::Value(json::Object{{"status", "pending"},
                                             {"hash", hash}})
                        .dump(2);
                resp.body += '\n';
                return resp;
            }
        }
    }

    if (auto cached = cache.loadByHash(hash)) {
        HttpResponse resp;
        resp.body = runReport(runner::JobOutcome{
            cached->first, std::move(cached->second), true});
        return resp;
    }
    return errorResponse(404, "no result for hash " + hash);
}

Server::Acquired
Server::acquireJobs(const std::vector<runner::Job> &jobs,
                    std::chrono::steady_clock::time_point deadline)
{
    Acquired acq;
    acq.outcomes.resize(jobs.size());

    // Phase 1: probe the disk cache outside the table lock. Probing
    // before the in-memory table keeps the from_cache flag (and so the
    // report bytes) identical to what the CLI would produce.
    struct Pending
    {
        std::size_t index;
        std::shared_ptr<JobEntry> entry;
    };
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (cache.enabled()) {
            if (auto cached = cache.load(jobs[i])) {
                acq.outcomes[i] =
                    runner::JobOutcome{jobs[i], std::move(*cached), true};
                metrics_.inc("dynaspam_cache_hits_total");
                continue;
            }
            metrics_.inc("dynaspam_cache_misses_total");
        }
        missing.push_back(i);
    }

    // Phase 2: one pass under the table lock — attach to in-flight or
    // retained entries, admission-check the rest as a batch, then
    // create and submit them.
    std::vector<Pending> waits;
    {
        common::MutexLock lock(tableMutex);

        std::vector<std::size_t> fresh;
        std::size_t newDistinct = 0;
        std::map<std::string, std::shared_ptr<JobEntry>> creating;
        for (std::size_t i : missing) {
            const std::string hash = jobs[i].hashHex();
            auto it = entries.find(hash);
            if (it != entries.end() &&
                it->second->state != JobEntry::State::Cancelled) {
                JobEntry &entry = *it->second;
                if (entry.state == JobEntry::State::Done) {
                    if (entry.failed) {
                        acq.status = 500;
                        acq.error = entry.error;
                    } else {
                        acq.outcomes[i] = runner::JobOutcome{
                            entry.job, entry.result, false};
                    }
                    continue;
                }
                entry.waiters++;
                waits.push_back(Pending{i, it->second});
                continue;
            }
            if (!creating.count(hash))
                newDistinct++;
            fresh.push_back(i);
            creating.emplace(hash, nullptr);
        }
        if (acq.status != 200) {
            for (Pending &p : waits)
                p.entry->waiters--;
            return acq;
        }

        if (queuedCount + newDistinct > options.queueCapacity) {
            for (Pending &p : waits)
                p.entry->waiters--;
            acq.status = 429;
            std::ostringstream os;
            os << "admission queue full (" << queuedCount << " queued, "
               << newDistinct << " requested, capacity "
               << options.queueCapacity << ")";
            acq.error = os.str();
            return acq;
        }

        for (std::size_t i : fresh) {
            const std::string hash = jobs[i].hashHex();
            std::shared_ptr<JobEntry> &slot = creating[hash];
            if (!slot) {
                slot = std::make_shared<JobEntry>();
                slot->job = jobs[i];
                entries[hash] = slot;    // replaces any Cancelled entry
                queuedCount++;
                submitEntry(slot);
            }
            slot->waiters++;
            waits.push_back(Pending{i, slot});
        }
        updateQueueGauges();
    }

    // Phase 3: wait for every attached entry, sharing one deadline.
    std::size_t waited = 0;
    for (; waited < waits.size(); waited++) {
        Pending &p = waits[waited];
        common::MutexLock lock(tableMutex);
        JobEntry &entry = *p.entry;
        bool done;
        while (true) {
            done = entry.state == JobEntry::State::Done;
            if (done)
                break;
            if (entry.cv.waitUntil(tableMutex, deadline) ==
                    std::cv_status::timeout) {
                done = entry.state == JobEntry::State::Done;
                break;
            }
        }
        entry.waiters--;
        if (done) {
            if (entry.failed) {
                acq.status = 500;
                acq.error = entry.error;
                break;
            }
            acq.outcomes[p.index] =
                runner::JobOutcome{entry.job, entry.result, false};
            continue;
        }
        // Deadline passed. A job nobody else is waiting for and that has
        // not started yet is cancelled outright; a running (or shared)
        // job keeps going — its result still lands in the table and
        // cache, retrievable later via GET /results/<hash>.
        if (entry.state == JobEntry::State::Queued && entry.waiters == 0) {
            entry.state = JobEntry::State::Cancelled;
            queuedCount--;
            entries.erase(p.entry->job.hashHex());
            metrics_.inc("dynaspam_jobs_cancelled_total");
            updateQueueGauges();
        }
        acq.status = 503;
        acq.error = "request deadline exceeded before the job finished";
        break;
    }
    if (acq.status != 200 && waited < waits.size()) {
        // Detach from the entries the aborted loop never waited on;
        // their jobs still run to completion for future requests.
        common::MutexLock lock(tableMutex);
        for (std::size_t k = waited + 1; k < waits.size(); k++)
            waits[k].entry->waiters--;
    }
    return acq;
}

void
Server::submitEntry(const std::shared_ptr<JobEntry> &entry)
{
    pool->submit([this, entry] {
        {
            common::MutexLock lock(tableMutex);
            if (entry->state != JobEntry::State::Queued)
                return;    // cancelled while waiting in the pool queue
            entry->state = JobEntry::State::Running;
            queuedCount--;
            runningCount++;
            updateQueueGauges();
        }

        sim::RunResult result;
        bool failed = false;
        std::string error;
        auto begin = std::chrono::steady_clock::now();
        try {
            result = options.executeFn(entry->job);
        } catch (const std::exception &err) {
            failed = true;
            error = err.what();
        }
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();

        if (!failed) {
            if (cache.enabled()) {
                cache.store(entry->job, result);
                maybeGcCache();
            }
            if (seconds > 0)
                metrics_.observe("dynaspam_sim_kips",
                                 double(result.instsTotal) / 1000.0 /
                                     seconds);
        }

        common::MutexLock lock(tableMutex);
        entry->result = std::move(result);
        entry->failed = failed;
        entry->error = std::move(error);
        entry->state = JobEntry::State::Done;
        runningCount--;
        metrics_.inc("dynaspam_jobs_executed_total");
        retainDone(entry->job.hashHex());
        updateQueueGauges();
        entry->cv.notifyAll();
    });
}

void
Server::retainDone(const std::string &hash)
{
    doneOrder.push_back(hash);
    while (doneOrder.size() > kDoneRetain) {
        const std::string victim = doneOrder.front();
        doneOrder.pop_front();
        auto it = entries.find(victim);
        if (it != entries.end() &&
            it->second->state == JobEntry::State::Done &&
            it->second->waiters == 0)
            entries.erase(it);
    }
}

void
Server::updateQueueGauges()
{
    metrics_.set("dynaspam_queue_depth", double(queuedCount));
    metrics_.set("dynaspam_jobs_inflight", double(runningCount));
}

void
Server::maybeGcCache()
{
    if (!options.cacheMaxBytes)
        return;
    if (++storesSinceGc % kGcStoreInterval == 0)
        cache.gc(options.cacheMaxBytes);
}

std::string
Server::runReport(const runner::JobOutcome &outcome) const
{
    return sweepReport("run", {outcome});
}

std::string
Server::sweepReport(const std::string &name,
                    const std::vector<runner::JobOutcome> &outcomes) const
{
    // Rebuild the per-request registry the CLI's Runner would have
    // produced for exactly this job list, so the report bytes match the
    // CLI's for the same cache state.
    std::size_t hits = 0;
    for (const runner::JobOutcome &outcome : outcomes)
        if (outcome.fromCache)
            hits++;
    StatRegistry registry = runner::sweepRequestStats(outcomes.size(),
                                                      hits);

    std::ostringstream os;
    runner::writeSweepReport(os, name, outcomes, &registry);
    return os.str();
}

HttpResponse
Server::errorResponse(int status, const std::string &message)
{
    HttpResponse resp;
    resp.status = status;
    resp.body = json::Value(json::Object{{"error", message}}).dump(2);
    resp.body += '\n';
    if (status == 429)
        resp.extraHeaders.emplace_back("Retry-After", "2");
    return resp;
}

} // namespace dynaspam::serve
