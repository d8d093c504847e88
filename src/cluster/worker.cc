#include "cluster/worker.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "runner/report.hh"
#include "runner/spec.hh"
#include "serve/http.hh"

namespace dynaspam::cluster
{

namespace
{

/** Budgeted caches are collected every this many executed jobs. */
constexpr std::uint64_t kGcJobInterval = 32;

/**
 * SO_RCVTIMEO on the coordinator link. The coordinator pings every few
 * seconds, so this much silence means it is gone.
 */
constexpr unsigned kCoordinatorSilenceTimeoutSec = 30;

/** @return bytes read, 0 on EOF, -1 error, -2 timeout/no-data */
long
recvSome(int fd, char *buf, std::size_t len, int flags)
{
    while (true) {
        ssize_t n = ::recv(fd, buf, len, flags);
        if (n >= 0)
            return long(n);
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return -2;
        return -1;
    }
}

std::string
renderEntry(const runner::JobOutcome &outcome)
{
    return runner::sweepEntryJson(outcome).dumpAt(kReportIndent,
                                                  kEntryFragmentDepth);
}

} // namespace

Worker::Worker(WorkerOptions options_)
    : options(std::move(options_)),
      metrics(options.metrics ? *options.metrics : ownMetrics),
      cache(options.cacheDir), snapCache(options.snapshotCacheDir),
      customExecute(bool(options.executeFn))
{
    if (!options.executeFn)
        options.executeFn = [](const runner::Job &job) {
            return runner::execute(job);
        };

    metrics.declareGauge("dynaspam_queue_depth",
                         "Jobs received by the worker, not yet running.");
    metrics.declareGauge("dynaspam_jobs_inflight",
                         "Jobs a worker thread is executing (or waiting "
                         "on another thread's identical job).");
    metrics.declareCounter("dynaspam_jobs_executed_total",
                           "Simulations completed by the worker.");
    metrics.declareCounter("dynaspam_jobs_cancelled_total",
                           "Queued jobs skipped because their request "
                           "deadline passed.");
    metrics.declareHistogram(
        "dynaspam_sim_kips",
        "Simulation speed per executed job, in kilo-instructions "
        "committed per wall-clock second.",
        {250, 500, 1000, 2000, 4000, 8000, 16000, 32000});

    pool = std::make_unique<runner::ThreadPool>(
        options.threads ? options.threads
                        : runner::ThreadPool::defaultWorkers());
}

int
Worker::dialCoordinator()
{
    common::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd) {
        warn("worker: socket: ", std::strerror(errno));
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(options.connectPort));
    if (::inet_pton(AF_INET, options.connectHost.c_str(),
                    &addr.sin_addr) != 1) {
        warn("worker: bad coordinator address \"", options.connectHost,
             "\" (IPv4 literal required)");
        terminal.store(true, std::memory_order_relaxed);
        return -1;
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0)
        return fd.release();
    return -1;
}

int
Worker::run()
{
    // Jitter the reconnect waves so workers that lost the same
    // coordinator don't re-dial in lockstep. Seed quality is
    // irrelevant; per-process distinctness is the point.
    Rng rng(std::uint64_t(::getpid()) * 0x9e3779b97f4a7c15ULL ^
            std::uint64_t(std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()));
    unsigned dialFailures = 0;
    while (true) {
        const int fd = dialCoordinator();
        if (terminal.load(std::memory_order_relaxed))
            return 1;
        if (fd < 0) {
            if (++dialFailures >= options.connectRetries) {
                warn("worker: cannot reach coordinator at ",
                     options.connectHost, ":", options.connectPort,
                     " after ", options.connectRetries, " attempts");
                return 1;
            }
            std::uint64_t delay = retryBackoffDelayMs(
                options.connectRetryMs, dialFailures,
                options.reconnectBackoffCapMs);
            delay += rng.below(delay / 2 + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
            continue;
        }
        dialFailures = 0;
        // serveConnection takes ownership and closes on all paths.
        const int code = serveConnection(fd);
        if (stopping.load(std::memory_order_relaxed) ||
            terminal.load(std::memory_order_relaxed) ||
            !options.reconnect)
            return code;
        if (options.verbose)
            warn("worker: coordinator link lost, reconnecting");
    }
}

int
Worker::serveConnection(int fd, bool handshake)
{
    // Owns @p fd (int parameter so tests can hand it a socketpair end).
    common::Fd link(fd);
    std::uint64_t gen;
    {
        common::MutexLock lock(linkMutex);
        linkFd = fd;
        gen = ++linkGen;
    }

    timeval tv{};
    tv.tv_sec = kCoordinatorSilenceTimeoutSec;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    // Clearing linkFd under the lock strictly precedes `link` closing
    // the socket (at return), so a pool thread or a concurrent
    // shutdownNow() either uses the live fd before we close, or sees -1.
    auto finish = [this](int code) {
        {
            common::MutexLock lock(linkMutex);
            linkFd = -1;
        }
        gcCaches(true);
        return code;
    };

    std::string inBuf;
    if (!handshake) {
        slot_ = 0;
    } else {
        json::Object hello;
        hello.emplace("protocol", std::uint64_t(kWireVersion));
        if (!options.clusterToken.empty())
            hello.emplace("token", options.clusterToken);
        if (!send(gen, encodeFrame(FrameType::Hello,
                                   json::Value(std::move(hello)).dump())))
            return finish(1);

        // Handshake: block until one Welcome frame arrives.
        Frame welcome;
        while (true) {
            std::size_t consumed = 0;
            DecodeOutcome outcome = decodeFrame(inBuf, welcome, consumed);
            if (outcome == DecodeOutcome::Bad) {
                warn("worker: bad frame during handshake");
                return finish(1);
            }
            if (outcome == DecodeOutcome::Ok) {
                inBuf.erase(0, consumed);
                break;
            }
            char chunk[4096];
            long n = recvSome(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                warn("worker: coordinator closed during handshake");
                return finish(1);
            }
            inBuf.append(chunk, std::size_t(n));
        }
        if (welcome.type != FrameType::Welcome) {
            warn("worker: expected Welcome, got frame type ",
                 unsigned(welcome.type));
            return finish(1);
        }
        try {
            json::Value payload = json::Value::parse(welcome.payload);
            if (const json::Value *error = payload.find("error")) {
                warn("worker: coordinator rejected us: ",
                     error->asString());
                // A rejection (full cluster, protocol mismatch) is not a
                // lost link: reconnecting would just be rejected again.
                terminal.store(true, std::memory_order_relaxed);
                return finish(1);
            }
            slot_ = unsigned(payload.at("slot").asUint());
            if (options.verbose)
                inform("worker: joined as slot ", slot_, "/",
                       payload.at("slots").asUint(), " (cache ",
                       cache.enabled() ? options.cacheDir : "disabled",
                       ")");
        } catch (const FatalError &err) {
            warn("worker: malformed Welcome: ", err.what());
            return finish(1);
        }
    }

    while (true) {
        if (!drainFrames(inBuf, gen))
            return finish(stopping.load() ? 1 : 0);

        char chunk[4096];
        long n = recvSome(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            // Bare EOF: the coordinator vanished without a Goodbye.
            // run() re-dials (an orderly drain sets `terminal` via the
            // Goodbye frame before the close).
            return finish(stopping.load() ? 1 : 0);
        if (n == -2) {
            warn("worker: coordinator silent for ",
                 kCoordinatorSilenceTimeoutSec, "s, dropping link");
            return finish(1);
        }
        if (n < 0)
            return finish(stopping.load() ? 1 : 0);
        inBuf.append(chunk, std::size_t(n));
    }
}

void
Worker::shutdownNow()
{
    stopping.store(true, std::memory_order_relaxed);
    common::MutexLock lock(linkMutex);
    if (linkFd >= 0)
        ::shutdown(linkFd, SHUT_RDWR);
}

bool
Worker::send(std::uint64_t link, const std::string &wire)
{
    common::MutexLock lock(linkMutex);
    if (link != linkGen || linkFd < 0)
        return false;
    return serve::sendAll(linkFd, wire.data(), wire.size());
}

bool
Worker::drainFrames(std::string &inBuf, std::uint64_t link)
{
    while (true) {
        Frame frame;
        std::size_t consumed = 0;
        switch (decodeFrame(inBuf, frame, consumed)) {
          case DecodeOutcome::Bad:
            warn("worker: bad frame from coordinator, dropping link");
            return false;
          case DecodeOutcome::NeedMore:
            return true;
          case DecodeOutcome::Ok:
            break;
        }
        inBuf.erase(0, consumed);

        switch (frame.type) {
          case FrameType::Ping: {
            json::Object pong;
            try {
                json::Value ping = json::Value::parse(frame.payload);
                pong.emplace("tick", ping.at("tick").asUint());
            } catch (const FatalError &) {
                warn("worker: malformed Ping payload");
                return false;
            }
            {
                common::MutexLock lock(stateMutex);
                pong.emplace("queued", std::uint64_t(queuedJobs));
                pong.emplace("evictions", memoEvictions + cacheEvictions);
            }
            pong.emplace("warmups", groupStats.warmups.load());
            if (!send(link, encodeFrame(FrameType::Pong,
                                        json::Value(std::move(pong))
                                            .dump())))
                return false;
            break;
          }
          case FrameType::Batch: {
            auto batch = std::make_shared<Batch>();
            batch->link = link;
            try {
                json::Value payload = json::Value::parse(frame.payload);
                batch->id = payload.at("id").asUint();
                for (const json::Value &spec :
                     payload.at("jobs").asArray())
                    batch->jobs.push_back(runner::jobFromJson(spec));
                if (const json::Value *ms = payload.find("deadline_ms"))
                    batch->deadline =
                        Clock::now() +
                        std::chrono::milliseconds(ms->asUint());
            } catch (const std::exception &err) {
                fail(*batch, 500, err.what());
                sendResult(*batch);
                break;
            }
            {
                common::MutexLock lock(stateMutex);
                moveJobs(long(batch->jobs.size()), 0);
            }
            pool->submit([this, batch] { startBatch(batch); });
            break;
          }
          case FrameType::Goodbye:
            // Orderly coordinator shutdown: exit cleanly, never
            // reconnect.
            if (options.verbose)
                inform("worker: coordinator said goodbye, exiting");
            terminal.store(true, std::memory_order_relaxed);
            return false;
          default:
            warn("worker: unexpected frame type ", unsigned(frame.type),
                 " from coordinator");
            return false;
        }
    }
}

void
Worker::startBatch(const std::shared_ptr<Batch> &batch)
{
    Batch &b = *batch;
    if (expired(b, b.jobs.size())) {
        sendResult(b);
        return;
    }
    b.entries.resize(b.jobs.size());
    b.outcomes.resize(b.jobs.size());

    // Tier 1: the memo, in one pass under the lock.
    std::vector<std::size_t> missIdx;
    {
        common::MutexLock lock(stateMutex);
        for (std::size_t i = 0; i < b.jobs.size(); i++) {
            if (const std::string *frag = memoGet(b.jobs[i].hashHex()))
                b.entries[i] = RawEntry{cache.enabled(), *frag};
            else
                missIdx.push_back(i);
        }
    }
    // Tier 2: the disk cache; a hit is memoized for the next repeat.
    std::size_t hits = b.jobs.size() - missIdx.size();
    if (cache.enabled()) {
        std::vector<std::size_t> stillMissing;
        for (std::size_t i : missIdx) {
            std::optional<sim::RunResult> cached = cache.load(b.jobs[i]);
            if (!cached) {
                stillMissing.push_back(i);
                continue;
            }
            std::string fragment = renderEntry(
                runner::JobOutcome{b.jobs[i], std::move(*cached), true});
            {
                common::MutexLock lock(stateMutex);
                memoPut(b.jobs[i].hashHex(), fragment);
            }
            b.entries[i] = RawEntry{true, std::move(fragment)};
            hits++;
        }
        missIdx = std::move(stillMissing);
    }
    {
        common::MutexLock lock(stateMutex);
        moveJobs(-long(hits), 0);
    }

    // Plan the misses into units: fork groups warm once, here (possibly
    // straight from the snapshot cache), since the coordinator shards
    // by fork-group hash and a group's members all land in this batch.
    // The executeFn test seam replaces the simulator, so it plans with
    // forking off and every job runs through the seam.
    b.units = runner::planUnits(b.jobs, std::move(missIdx), !customExecute);

    if (b.units.empty()) {
        sendResult(b);
        return;
    }
    b.unitsLeft = b.units.size();
    for (std::size_t u = 0; u < b.units.size(); u++)
        pool->submit([this, batch, u] { runUnit(batch, u); });
}

void
Worker::runUnit(const std::shared_ptr<Batch> &batch, std::size_t unit)
{
    Batch &b = *batch;
    if (!expired(b, b.units[unit].size())) {
        const std::string error = executeUnit(b, b.units[unit]);
        if (!error.empty())
            fail(b, 500, error);
    }
    if (b.unitsLeft.fetch_sub(1) == 1)
        sendResult(b);
}

std::string
Worker::executeUnit(Batch &b, std::vector<std::size_t> todo)
{
    const long claimed = long(todo.size());
    std::vector<std::size_t> run;
    struct Mine
    {
        std::size_t index;
        std::map<std::string, std::shared_ptr<Flight>>::iterator it;
    };
    std::vector<Mine> mine;
    std::string error;
    bool gcDue = false;
    {
        common::MutexLock lock(stateMutex);
        moveJobs(-claimed, claimed);
        // Another thread may have finished (memo) or be executing
        // (inFlight) a job since the batch was probed. Wait for the
        // flights holding no registration, then look again: the rest
        // may have changed hands meanwhile.
        while (true) {
            std::vector<std::pair<std::size_t, std::shared_ptr<Flight>>>
                waits;
            run.clear();
            for (std::size_t i : todo) {
                const std::string hash = b.jobs[i].hashHex();
                if (const std::string *frag = memoGet(hash))
                    b.entries[i] = RawEntry{cache.enabled(), *frag};
                else if (auto it = inFlight.find(hash);
                         it != inFlight.end())
                    waits.emplace_back(i, it->second);
                else
                    run.push_back(i);
            }
            if (waits.empty())
                break;
            for (auto &[i, flight] : waits) {
                while (!flight->done)
                    flightDone.wait(stateMutex);
                if (!flight->error.empty())
                    error = flight->error;
                b.entries[i] = RawEntry{false, flight->fragment};
            }
            todo = std::move(run);
        }
        if (!error.empty())
            run.clear();
        for (std::size_t i : run) {
            auto [it, fresh] = inFlight.try_emplace(b.jobs[i].hashHex());
            if (fresh) {
                it->second = std::make_shared<Flight>();
                mine.push_back(Mine{i, it});
            }
        }
    }

    const auto begin = Clock::now();
    if (!run.empty()) {
        try {
            runner::runUnit(b.jobs, run, b.outcomes, &cache,
                            customExecute ? nullptr : &snapCache,
                            &groupStats, options.executeFn);
        } catch (const std::exception &err) {
            error = err.what();
        }
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - begin).count();

    // Render outside the lock: the fresh entry for this request, and
    // the fragment a repeat produces for the memo.
    std::vector<std::string> repeats(run.size());
    if (error.empty()) {
        for (std::size_t k = 0; k < run.size(); k++) {
            const runner::JobOutcome &outcome = b.outcomes[run[k]];
            b.entries[run[k]] = RawEntry{false, renderEntry(outcome)};
            repeats[k] = cache.enabled()
                             ? renderEntry(runner::JobOutcome{
                                   outcome.job, outcome.result, true})
                             : b.entries[run[k]].fragment;
        }
    }

    {
        common::MutexLock lock(stateMutex);
        for (const Mine &m : mine) {
            Flight &flight = *m.it->second;
            flight.done = true;
            flight.error = error;
            if (error.empty())
                flight.fragment = b.entries[m.index].fragment;
            inFlight.erase(m.it);
        }
        if (error.empty()) {
            for (std::size_t k = 0; k < run.size(); k++)
                memoPut(b.jobs[run[k]].hashHex(), std::move(repeats[k]));
            const std::uint64_t before = jobsSinceGc;
            jobsSinceGc += run.size();
            gcDue = jobsSinceGc / kGcJobInterval != before / kGcJobInterval;
        }
        moveJobs(0, -claimed);
    }
    flightDone.notifyAll();
    if (gcDue)
        gcCaches(false);

    if (error.empty() && !run.empty()) {
        metrics.inc("dynaspam_jobs_executed_total", double(run.size()));
        // A fork group's wall time is split evenly over its members.
        const double perJob = seconds / double(run.size());
        if (perJob > 0)
            for (std::size_t i : run)
                metrics.observe("dynaspam_sim_kips",
                                double(b.outcomes[i].result.instsTotal) /
                                    1000.0 / perJob);
    }
    return error;
}

bool
Worker::expired(Batch &b, std::size_t jobs)
{
    if (!b.deadline || Clock::now() < *b.deadline)
        return false;
    fail(b, 503, "request deadline passed before the batch started");
    common::MutexLock lock(stateMutex);
    moveJobs(-long(jobs), 0);
    metrics.inc("dynaspam_jobs_cancelled_total", double(jobs));
    return true;
}

void
Worker::fail(Batch &b, int status, const std::string &error)
{
    common::MutexLock lock(stateMutex);
    if (b.error.empty()) {
        b.errorStatus = status;
        b.error = error;
    }
}

void
Worker::sendResult(Batch &b)
{
    std::string wire;
    {
        common::MutexLock lock(stateMutex);
        if (!b.error.empty()) {
            json::Object result;
            result.emplace("id", b.id);
            result.emplace("error", b.error);
            result.emplace("status", std::uint64_t(b.errorStatus));
            wire = encodeFrame(FrameType::Result,
                               json::Value(std::move(result)).dump());
        }
    }
    if (wire.empty())
        wire = encodeFrame(FrameType::ResultRaw,
                           encodeResultRaw(b.id, b.entries));
    send(b.link, wire);
}

const std::string *
Worker::memoGet(const std::string &hash)
{
    auto it = memoMap.find(hash);
    if (it == memoMap.end())
        return nullptr;
    // Touch: move to the front of the LRU order.
    memoOrder.splice(memoOrder.begin(), memoOrder, it->second);
    return &it->second->second;
}

void
Worker::memoPut(const std::string &hash, std::string fragment)
{
    if (options.memoEntries == 0)
        return;
    auto it = memoMap.find(hash);
    if (it != memoMap.end()) {
        it->second->second = std::move(fragment);
        memoOrder.splice(memoOrder.begin(), memoOrder, it->second);
        return;
    }
    memoOrder.emplace_front(hash, std::move(fragment));
    memoMap[hash] = memoOrder.begin();
    while (memoOrder.size() > options.memoEntries) {
        memoMap.erase(memoOrder.back().first);
        memoOrder.pop_back();
        memoEvictions++;
    }
}

void
Worker::moveJobs(long queued, long running)
{
    queuedJobs = std::size_t(long(queuedJobs) + queued);
    runningJobs = std::size_t(long(runningJobs) + running);
    metrics.set("dynaspam_queue_depth", double(queuedJobs));
    metrics.set("dynaspam_jobs_inflight", double(runningJobs));
}

void
Worker::gcCaches(bool all)
{
    std::uint64_t evicted = 0;
    const auto collect = [&](const auto &store, std::uint64_t max_bytes) {
        if (store.enabled() && (all || max_bytes)) {
            runner::CacheGcStats gc = store.gc(max_bytes);
            evicted += gc.staleEvicted + gc.lruEvicted;
        }
    };
    collect(cache, options.cacheMaxBytes);
    collect(snapCache, options.snapshotCacheMaxBytes);
    common::MutexLock lock(stateMutex);
    cacheEvictions += evicted;
}

} // namespace dynaspam::cluster
