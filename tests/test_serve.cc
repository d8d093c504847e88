/**
 * @file
 * Tests for the serve subsystem: the HTTP message layer, the Prometheus
 * metrics registry, and `dynaspam serve` itself — the coordinator with
 * one in-process worker: single-flight deduplication under
 * concurrency, bounded-admission 429 backpressure, request-timeout
 * 503s, graceful drain with in-flight work, strict request validation,
 * and byte-identity between a POST /run response and the CLI report for
 * the same job.
 *
 * Services under test bind port 0 (ephemeral) and most use an injected
 * executeFn — a gated or counting fake — so queue and cancellation
 * states are reached deterministically without multi-second
 * simulations. One end-to-end test runs the real simulator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/coordinator.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/runner.hh"
#include "serve/http.hh"
#include "serve/metrics.hh"
#include "support.hh"

using namespace dynaspam;
using namespace dynaspam::tests;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using runner::Job;
using sim::SystemMode;

namespace
{

/**
 * executeFn fake whose calls block until release() — makes Queued /
 * Running states and drain ordering deterministic.
 */
class GatedExecutor
{
  public:
    sim::RunResult
    operator()(const Job &)
    {
        calls++;
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
        sim::RunResult result;
        result.cycles = 1000;
        result.instsTotal = 500;
        result.functionallyCorrect = true;
        return result;
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }

    std::atomic<unsigned> calls{0};

  private:
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
};

/** The bound on every wait in this file, shorter than support.hh's. */
constexpr unsigned kWaitMs = 5000;

/** `dynaspam serve`'s stack: the coordinator with one worker slot held
 *  by an in-process worker running @p execute (empty: the simulator). */
CoordinatorOptions
serveOptions(std::function<sim::RunResult(const Job &)> execute = {})
{
    CoordinatorOptions opts;
    opts.httpPort = 0;
    opts.workerSlots = 1;
    opts.queueCapacity = 64;
    opts.verbose = false;
    cluster::WorkerOptions worker;
    worker.verbose = false;
    worker.executeFn = std::move(execute);
    opts.localWorker = worker;
    return opts;
}

CoordinatorOptions
fakeOptions(GatedExecutor &gate)
{
    return serveOptions([&gate](const Job &job) { return gate(job); });
}

std::string
bfsSpec(unsigned trace_length = 16)
{
    std::ostringstream os;
    os << "{\"workload\": \"bfs\", \"mode\": \"accel-spec\", "
          "\"trace_length\": " << trace_length << ", \"scale\": 1}";
    return os.str();
}

} // namespace

// --- HTTP layer ----------------------------------------------------------

TEST(ServeHttp, StatusReasons)
{
    EXPECT_STREQ(serve::httpStatusReason(200), "OK");
    EXPECT_STREQ(serve::httpStatusReason(429), "Too Many Requests");
    EXPECT_STREQ(serve::httpStatusReason(999), "Unknown");
}

TEST(ServeHttp, ChunkSizeNearSizeMaxIsRejected)
{
    // A chunk size of 2^64 - 2 must not wrap the bounds check: each
    // such line would append the whole rest of the input to the output.
    std::string huge;
    for (int i = 0; i < 2000; i++)
        huge += "fffffffffffffffe\r\nab\r\n";
    huge += "0\r\n\r\n";
    for (const std::string &raw :
         {huge, std::string("fffffffffffffffe\r\nab\r\n0\r\n\r\n")}) {
        std::string out;
        EXPECT_FALSE(serve::decodeChunkedBody(raw, out));
        EXPECT_LE(out.size(), raw.size());
    }

    std::string out;
    EXPECT_TRUE(serve::decodeChunkedBody("2\r\nab\r\n0\r\n\r\n", out));
    EXPECT_EQ(out, "ab");
    EXPECT_FALSE(serve::decodeChunkedBody("3\r\nab\r\n0\r\n\r\n", out));
}

TEST(ServeMetrics, RendersAllKindsDeterministically)
{
    serve::Metrics metrics;
    metrics.declareCounter("b_counter", "a counter");
    metrics.declareGauge("a_gauge", "a gauge");
    metrics.declareHistogram("c_hist", "a histogram", {1, 10});
    metrics.inc("b_counter", "k=\"v\"", 2);
    metrics.set("a_gauge", 1.5);
    metrics.observe("c_hist", 0.5);
    metrics.observe("c_hist", 5);
    metrics.observe("c_hist", 50);

    const std::string text = metrics.render();
    // Families render sorted by name; histogram buckets are cumulative.
    EXPECT_LT(text.find("a_gauge"), text.find("b_counter"));
    EXPECT_LT(text.find("b_counter"), text.find("c_hist"));
    EXPECT_NE(text.find("a_gauge 1.5\n"), std::string::npos);
    EXPECT_NE(text.find("b_counter{k=\"v\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("c_hist_bucket{le=\"1\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("c_hist_bucket{le=\"10\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("c_hist_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("c_hist_count 3\n"), std::string::npos);
    EXPECT_EQ(metrics.value("b_counter", "k=\"v\""), 2);
    EXPECT_EQ(text, metrics.render());
}

TEST(ServeHttp, SendAllSurvivesPartialWritesAndEagain)
{
    // Regression: a response larger than the socket buffer used to be
    // silently truncated when send() went short or returned EAGAIN.
    // Force both: a tiny SO_SNDBUF, a non-blocking sender, and a reader
    // that only drains after the writer has already filled the buffer.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int sndbuf = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    const int flags = ::fcntl(fds[0], F_GETFL, 0);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK), 0);

    std::string payload(1 << 20, 'x');
    for (std::size_t i = 0; i < payload.size(); i += 977)
        payload[i] = char('a' + (i % 26));

    std::string received;
    std::thread reader([&] {
        // Give the writer time to hit a full buffer before draining.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        char chunk[8192];
        while (true) {
            ssize_t n = ::recv(fds[1], chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            received.append(chunk, std::size_t(n));
        }
    });

    EXPECT_TRUE(serve::sendAll(fds[0], payload.data(), payload.size()));
    ::close(fds[0]);
    reader.join();
    ::close(fds[1]);

    // Every byte arrived, in order — no silent truncation.
    EXPECT_EQ(received.size(), payload.size());
    EXPECT_EQ(received, payload);
}

TEST(ServeHttp, SendAllReportsVanishedPeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    std::string payload(1 << 16, 'x');
    EXPECT_FALSE(serve::sendAll(fds[0], payload.data(), payload.size()));
    ::close(fds[0]);
}

// --- Keep-alive -----------------------------------------------------------

TEST(Serve, KeepAliveServesSequentialRequestsUntilClose)
{
    GatedExecutor gate;
    gate.release();
    Coordinator server(fakeOptions(gate));
    server.start();

    int fd = connectTo(server.httpPort());
    ASSERT_GE(fd, 0);

    // Three requests on one connection, each asking for keep-alive.
    for (unsigned i = 0; i < 3; i++) {
        std::ostringstream os;
        os << "GET /healthz HTTP/1.1\r\nHost: x\r\n"
           << "Connection: keep-alive\r\n\r\n";
        ASSERT_TRUE(sendRaw(fd, os.str()));
        Reply reply = readReply(fd);
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(reply.headers.at("Connection"), "keep-alive");
    }

    // `Connection: close` ends it: the response says close, then EOF.
    ASSERT_TRUE(sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n"));
    Reply final_reply = readReply(fd);
    EXPECT_EQ(final_reply.status, 200);
    EXPECT_EQ(final_reply.headers.at("Connection"), "close");
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- Routing and validation ----------------------------------------------

TEST(Serve, HealthzAndRoutingErrors)
{
    GatedExecutor gate;
    Coordinator server(fakeOptions(gate));
    server.start();

    Reply ok = request(server.httpPort(), "GET", "/healthz");
    EXPECT_EQ(ok.status, 200);
    EXPECT_NE(ok.body.find("\"status\": \"ok\""), std::string::npos);

    EXPECT_EQ(request(server.httpPort(), "GET", "/nope").status, 404);
    EXPECT_EQ(request(server.httpPort(), "POST", "/healthz").status, 405);
    EXPECT_EQ(request(server.httpPort(), "GET", "/run").status, 405);

    server.beginDrain();
    server.waitUntilDrained();
}

TEST(Serve, RejectsBadRequestsWithoutExecuting)
{
    GatedExecutor gate;
    CoordinatorOptions opts = fakeOptions(gate);
    opts.maxRequestBytes = 2048;
    Coordinator server(opts);
    server.start();

    struct BadCase
    {
        const char *name;
        std::string body;
    };
    const BadCase cases[] = {
        {"syntax error", "{not json"},
        {"not an object", "[1, 2]"},
        {"missing workload", "{\"mode\": \"accel-spec\"}"},
        {"unknown workload", "{\"workload\": \"nope\"}"},
        {"unknown field", "{\"workload\": \"bfs\", \"frobnicate\": 1}"},
        {"zero scale", "{\"workload\": \"bfs\", \"scale\": 0}"},
        {"unknown mode",
         "{\"workload\": \"bfs\", \"mode\": \"warp-speed\"}"},
        {"duplicate key",
         "{\"workload\": \"bfs\", \"workload\": \"bfs\"}"},
        {"deep nesting",
         std::string(200, '[') + std::string(200, ']')},
    };
    for (const BadCase &c : cases) {
        Reply reply = request(server.httpPort(), "POST", "/run", c.body);
        EXPECT_EQ(reply.status, 400) << c.name << ": " << reply.body;
    }

    // Not HTTP at all, and an oversize body: rejected at the HTTP layer.
    EXPECT_EQ(rawRequest(server.httpPort(), "ribbit\r\n\r\n").status, 400);
    Reply huge = request(server.httpPort(), "POST", "/run",
                         std::string(4096, 'x'));
    EXPECT_EQ(huge.status, 413);

    EXPECT_EQ(gate.calls.load(), 0u);
    server.beginDrain();
    server.waitUntilDrained();
}

// --- Single-flight dedup --------------------------------------------------

TEST(Serve, ConcurrentSameJobRunsOnceAndAnswersAll)
{
    GatedExecutor gate;
    Coordinator server(fakeOptions(gate));
    server.start();

    // The acceptance bar: 64 concurrent clients, none dropped, none
    // answered with different bytes.
    constexpr unsigned kClients = 64;
    std::vector<std::thread> clients;
    std::vector<Reply> replies(kClients);
    for (unsigned i = 0; i < kClients; i++)
        clients.emplace_back([&, i] {
            replies[i] = request(server.httpPort(), "POST", "/run", bfsSpec());
        });

    ASSERT_TRUE(eventually([&] { return gate.calls.load() == 1; }, kWaitMs));
    gate.release();
    for (std::thread &t : clients)
        t.join();

    // One simulation; every client got the same 200 bytes.
    EXPECT_EQ(gate.calls.load(), 1u);
    for (const Reply &reply : replies) {
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(reply.body, replies[0].body);
    }
    EXPECT_EQ(server.metrics().value("dynaspam_jobs_executed_total"), 1);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- Backpressure ---------------------------------------------------------

TEST(Serve, QueueFullReturns429WithRetryAfter)
{
    GatedExecutor gate;
    CoordinatorOptions opts = fakeOptions(gate);
    opts.localWorker->threads = 1;
    opts.queueCapacity = 3;    // the running job plus two queued ones
    Coordinator server(opts);
    server.start();

    // Occupy the single worker thread, then fill both queue slots.
    std::vector<std::thread> clients;
    clients.emplace_back([&] {
        request(server.httpPort(), "POST", "/run", bfsSpec(16));
    });
    ASSERT_TRUE(eventually([&] {
        return server.metrics().value("dynaspam_jobs_inflight") == 1;
    }, kWaitMs));
    clients.emplace_back([&] {
        request(server.httpPort(), "POST", "/run", bfsSpec(24));
    });
    clients.emplace_back([&] {
        request(server.httpPort(), "POST", "/run", bfsSpec(32));
    });
    ASSERT_TRUE(eventually([&] {
        return server.metrics().value("dynaspam_queue_depth") == 2;
    }, kWaitMs));

    Reply overflow = request(server.httpPort(), "POST", "/run", bfsSpec(40));
    EXPECT_EQ(overflow.status, 429);
    EXPECT_EQ(overflow.headers.at("Retry-After"), "2");
    EXPECT_NE(overflow.body.find("admission queue full"),
              std::string::npos);

    gate.release();
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(gate.calls.load(), 3u);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- Timeouts and cancellation --------------------------------------------

TEST(Serve, TimeoutCancelsQueuedJobAndReturns503)
{
    GatedExecutor gate;
    CoordinatorOptions opts = fakeOptions(gate);
    opts.localWorker->threads = 1;
    opts.requestTimeoutMs = 100;
    Coordinator server(opts);
    server.start();

    // First job occupies the worker; the second stays queued past its
    // deadline and must be cancelled without ever executing.
    std::thread first([&] {
        request(server.httpPort(), "POST", "/run", bfsSpec(16));
    });
    ASSERT_TRUE(eventually([&] {
        return server.metrics().value("dynaspam_jobs_inflight") == 1;
    }, kWaitMs));

    Reply queued = request(server.httpPort(), "POST", "/run", bfsSpec(24));
    EXPECT_EQ(queued.status, 503);

    // The worker skips the expired batch once its thread frees up.
    gate.release();
    first.join();
    EXPECT_TRUE(eventually([&] {
        return server.metrics().value("dynaspam_jobs_cancelled_total") == 1;
    }, kWaitMs));
    server.beginDrain();
    server.waitUntilDrained();

    // The cancelled job never ran; the running one finished.
    EXPECT_EQ(gate.calls.load(), 1u);
    EXPECT_EQ(server.metrics().value("dynaspam_jobs_executed_total"), 1);
}

TEST(Serve, RunningJobSurvivesClientTimeout)
{
    TempDir cache("survive");
    GatedExecutor gate;
    CoordinatorOptions opts = fakeOptions(gate);
    opts.localWorker->threads = 1;
    opts.localWorker->cacheDir = cache.path();
    opts.requestTimeoutMs = 100;
    Coordinator server(opts);
    server.start();

    const std::string hash = Job{"BFS", SystemMode::AccelSpec, 16, 1, 1}
                                 .hashHex();

    // The client gives up at its deadline, but the simulation is
    // already running and must complete for later requests. Until it
    // lands in the result cache there is nothing to fetch.
    Reply abandoned = request(server.httpPort(), "POST", "/run", bfsSpec(16));
    EXPECT_EQ(abandoned.status, 503);
    EXPECT_EQ(request(server.httpPort(), "GET", "/results/" + hash).status,
              404);

    gate.release();
    ASSERT_TRUE(eventually([&] {
        return server.metrics().value("dynaspam_jobs_executed_total") == 1;
    }, kWaitMs));

    Reply done = request(server.httpPort(), "GET", "/results/" + hash);
    EXPECT_EQ(done.status, 200);
    EXPECT_NE(done.body.find("\"hash\": \"" + hash + "\""),
              std::string::npos);
    EXPECT_EQ(request(server.httpPort(), "GET",
                      "/results/0123456789abcdef").status, 404);
    EXPECT_EQ(request(server.httpPort(), "GET",
                      "/results/not-a-hash").status, 404);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- Sweeps ---------------------------------------------------------------

TEST(Serve, SweepExpandsNamedSweepAndDedupsJobs)
{
    GatedExecutor gate;
    gate.release();    // run immediately
    Coordinator server(fakeOptions(gate));
    server.start();

    Reply sweep = request(server.httpPort(), "POST", "/sweep",
                          "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
                          " \"trace_length\": 16}");
    EXPECT_EQ(sweep.status, 200);
    EXPECT_NE(sweep.body.find("\"sweep\": \"fig8\""), std::string::npos);
    EXPECT_NE(sweep.body.find("\"num_jobs\": 4"), std::string::npos);
    EXPECT_EQ(gate.calls.load(), 4u);

    // Same sweep again: all four results come from the worker memo, and
    // with no disk cache the bytes are those of the first pass.
    Reply again = request(server.httpPort(), "POST", "/sweep",
                          "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
                          " \"trace_length\": 16}");
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.body, sweep.body);
    EXPECT_EQ(gate.calls.load(), 4u);

    EXPECT_EQ(request(server.httpPort(), "POST", "/sweep",
                      "{\"sweep\": \"fig99\"}").status, 400);
    EXPECT_EQ(request(server.httpPort(), "POST", "/sweep",
                      "{\"jobs\": []}").status, 400);

    Reply custom = request(server.httpPort(), "POST", "/sweep",
                           "{\"jobs\": [{\"workload\": \"bfs\","
                           " \"trace_length\": 16}]}");
    EXPECT_EQ(custom.status, 200);
    EXPECT_NE(custom.body.find("\"sweep\": \"custom\""),
              std::string::npos);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- Graceful drain -------------------------------------------------------

TEST(Serve, DrainFinishesInFlightWorkThenRefusesConnections)
{
    GatedExecutor gate;
    Coordinator server(fakeOptions(gate));
    server.start();
    const unsigned port = server.httpPort();

    std::thread client([&] {
        Reply reply = request(port, "POST", "/run", bfsSpec());
        EXPECT_EQ(reply.status, 200);
    });
    ASSERT_TRUE(eventually([&] { return gate.calls.load() == 1; }, kWaitMs));

    server.beginDrain();
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.release();
    });
    server.waitUntilDrained();
    client.join();
    releaser.join();

    // The in-flight request completed; new connections are refused.
    EXPECT_EQ(server.metrics().value("dynaspam_jobs_executed_total"), 1);
    int fd = connectTo(port);
    if (fd >= 0)
        ::close(fd);
    EXPECT_LT(fd, 0);
}

// --- Metrics reconciliation ----------------------------------------------

TEST(Serve, MetricsReconcileWithServedTraffic)
{
    GatedExecutor gate;
    gate.release();
    Coordinator server(fakeOptions(gate));
    server.start();

    EXPECT_EQ(request(server.httpPort(), "POST", "/run", bfsSpec()).status,
              200);
    EXPECT_EQ(request(server.httpPort(), "POST", "/run", bfsSpec()).status,
              200);
    EXPECT_EQ(request(server.httpPort(), "GET", "/healthz").status, 200);
    EXPECT_EQ(request(server.httpPort(), "GET", "/nope").status, 404);

    Reply scrape = request(server.httpPort(), "GET", "/metrics");
    EXPECT_EQ(scrape.status, 200);
    EXPECT_NE(scrape.headers.at("Content-Type").find("text/plain"),
              std::string::npos);
    const std::string &text = scrape.body;
    EXPECT_NE(text.find("dynaspam_http_requests_total{endpoint=\"/run\","
                        "status=\"200\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("dynaspam_http_requests_total{endpoint=\"/healthz"
                        "\",status=\"200\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("dynaspam_http_requests_total{endpoint=\"other\","
                        "status=\"404\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("dynaspam_jobs_executed_total 1\n"),
              std::string::npos);
    // 4 handled requests + this scrape's connection.
    EXPECT_NE(text.find("dynaspam_http_connections_total 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("dynaspam_sim_kips_count 1\n"),
              std::string::npos);

    server.beginDrain();
    server.waitUntilDrained();
}

// --- End to end: byte-identity with the CLI report ------------------------

TEST(Serve, RunResponseIsByteIdenticalToCliReport)
{
    TempDir cache("cli-bytes");
    CoordinatorOptions opts = serveOptions();    // runs the simulator
    opts.localWorker->cacheDir = cache.path() + "/server";
    Coordinator server(opts);
    server.start();

    const std::string spec = bfsSpec(16);
    Reply cold = request(server.httpPort(), "POST", "/run", spec);
    ASSERT_EQ(cold.status, 200);
    Reply warm = request(server.httpPort(), "POST", "/run", spec);
    ASSERT_EQ(warm.status, 200);

    // What `dynaspam run --no-cache --out` writes for the same spec.
    Job job{"bfs", SystemMode::AccelSpec, 16, 1, 1};
    runner::RunnerOptions cold_opts;
    cold_opts.jobs = 1;
    runner::Runner cold_runner(cold_opts);
    std::ostringstream cold_cli;
    runner::writeSweepReport(cold_cli, "run", cold_runner.runAll({job}),
                             &cold_runner.stats());
    EXPECT_EQ(cold.body, cold_cli.str());

    // What a warm cached CLI run writes (its own cache dir, pre-warmed
    // by the run above... use a fresh runner against the server's cache).
    runner::RunnerOptions warm_opts;
    warm_opts.jobs = 1;
    warm_opts.cacheDir = opts.localWorker->cacheDir;
    runner::Runner warm_runner(warm_opts);
    std::ostringstream warm_cli;
    runner::writeSweepReport(warm_cli, "run", warm_runner.runAll({job}),
                             &warm_runner.stats());
    EXPECT_EQ(warm.body, warm_cli.str());

    server.beginDrain();
    server.waitUntilDrained();
}
