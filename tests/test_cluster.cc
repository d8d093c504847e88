/**
 * @file
 * Tests for the distributed sweep fabric: the length-prefixed wire
 * protocol (round-trip, garbage rejection, incremental decode), the
 * FNV-1a hash-space shard mapping, and the coordinator/worker system
 * end to end — report byte-identity with single-process sweeps, worker
 * death mid-sweep with batch reassignment, protocol-garbage resilience,
 * no-worker 503s, bounded admission, and HTTP keep-alive on the epoll
 * front end.
 *
 * Cluster tests run the coordinator and workers in-process: the
 * coordinator binds ephemeral ports and each worker runs Worker::run on
 * its own thread, dialing the coordinator like the real
 * `dynaspam worker` process would. A gated executeFn turns a worker
 * into a deterministic crash victim.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/coordinator.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "common/logging.hh"
#include "runner/runner.hh"
#include "support.hh"

using namespace dynaspam;
using namespace dynaspam::tests;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using cluster::Worker;
using cluster::WorkerOptions;
using runner::Job;
using sim::SystemMode;

namespace fs = std::filesystem;

namespace
{

CoordinatorOptions
quietCoordinator(unsigned slots)
{
    CoordinatorOptions opts;
    opts.httpPort = 0;
    opts.workerPort = 0;
    opts.workerSlots = slots;
    opts.retryBackoffMs = 10;    // fast reassignment in tests
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

WorkerOptions
quietWorker(const Coordinator &coordinator, const std::string &cache_dir)
{
    WorkerOptions opts;
    opts.connectPort = coordinator.workerPort();
    opts.cacheDir = cache_dir;
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

/** The fig8/bfs sweep used throughout: 4 cheap, real simulation jobs. */
const char *kSweepBody =
    "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
    " \"trace_length\": 16}";

std::vector<Job>
sweepJobsUnderTest()
{
    return runner::sweepJobs("fig8", {"bfs"}, 1, 16);
}

/** What `dynaspam sweep` writes for the same jobs and cache dir. */
std::string
cliReport(const std::string &cache_dir)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;
    opts.cacheDir = cache_dir;
    runner::Runner runner(opts);
    auto outcomes = runner.runAll(sweepJobsUnderTest());
    std::ostringstream os;
    runner::writeSweepReport(os, "fig8", outcomes, &runner.stats());
    return os.str();
}

} // namespace

// --- Wire protocol --------------------------------------------------------

TEST(ClusterWire, FrameRoundTrip)
{
    const std::string payload = "{\"id\": 7}";
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Batch, payload);

    cluster::Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Batch);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, wire.size());

    // Two concatenated frames decode one at a time.
    std::string two =
        wire + cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    EXPECT_EQ(cluster::decodeFrame(two, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Batch);
    two.erase(0, consumed);
    EXPECT_EQ(cluster::decodeFrame(two, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Ping);
    EXPECT_EQ(frame.payload, "{}");
}

TEST(ClusterWire, TruncatedFramesNeedMore)
{
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Result, "{\"id\": 1}");
    cluster::Frame frame;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < wire.size(); len++) {
        EXPECT_EQ(cluster::decodeFrame(wire.substr(0, len), frame,
                                       consumed),
                  cluster::DecodeOutcome::NeedMore)
            << "at prefix length " << len;
    }
}

TEST(ClusterWire, GarbageFramesRejected)
{
    cluster::Frame frame;
    std::size_t consumed = 0;

    // Wrong magic (an HTTP request aimed at the worker port).
    EXPECT_EQ(cluster::decodeFrame("GET / HTTP/1.1\r\n\r\n", frame,
                                   consumed),
              cluster::DecodeOutcome::Bad);

    // Wrong version byte.
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[2] = char(0x7f);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);

    // Unknown frame type.
    wire = cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[3] = char(0x42);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);

    // Length field past the payload cap: rejected before allocation.
    wire = cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[4] = char(0xff);
    wire[5] = char(0xff);
    wire[6] = char(0xff);
    wire[7] = char(0xff);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);
}

TEST(ClusterWire, RetryBackoffDelayClampedAndSafe)
{
    using cluster::retryBackoffDelayMs;
    // Attempt 0 (defensive) and 1 both mean "first retry": base delay.
    EXPECT_EQ(retryBackoffDelayMs(100, 0, 60000), 100u);
    EXPECT_EQ(retryBackoffDelayMs(100, 1, 60000), 100u);
    EXPECT_EQ(retryBackoffDelayMs(100, 2, 60000), 200u);
    EXPECT_EQ(retryBackoffDelayMs(100, 3, 60000), 400u);
    EXPECT_EQ(retryBackoffDelayMs(100, 11, 60000), 60000u);
    // Attempt counts whose naive `base << (attempts - 1)` would shift
    // past 63 bits (UB) or wrap must saturate at the cap instead.
    for (unsigned attempts : {64u, 65u, 1000u, ~0u})
        EXPECT_EQ(retryBackoffDelayMs(100, attempts, 60000), 60000u)
            << attempts << " attempts";
    // A base already above the cap clamps down; a zero base stays zero.
    EXPECT_EQ(retryBackoffDelayMs(100000, 1, 60000), 60000u);
    EXPECT_EQ(retryBackoffDelayMs(0, 50, 60000), 0u);
}

// --- Shard mapping --------------------------------------------------------

TEST(ClusterShard, OwnerSlotIsStableAndInRange)
{
    const std::vector<Job> jobs = sweepJobsUnderTest();
    for (unsigned slots : {1u, 2u, 3u, 4u, 7u}) {
        for (const Job &job : jobs) {
            unsigned slot = cluster::ownerSlot(job.hash(), slots);
            EXPECT_LT(slot, slots);
            // Same hash, same slot count -> same owner, every time.
            EXPECT_EQ(slot, cluster::ownerSlot(job.hash(), slots));
        }
    }
    // With one slot everything maps to it.
    EXPECT_EQ(cluster::ownerSlot(0, 1), 0u);
    EXPECT_EQ(cluster::ownerSlot(~0ull, 1), 0u);
}

TEST(ClusterShard, HashSpacePartitionIsRoughlyBalanced)
{
    // 4096 synthetic hashes over 4 slots: each slot should own a
    // non-trivial share (the multiply-shift map is uniform for uniform
    // hashes; FNV-1a output is well spread).
    constexpr unsigned kSlots = 4;
    std::vector<unsigned> counts(kSlots, 0);
    std::uint64_t hash = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < 4096; i++) {
        hash ^= hash >> 33;
        hash *= 0xff51afd7ed558ccdull;
        hash ^= hash >> 33;
        counts[cluster::ownerSlot(hash, kSlots)]++;
    }
    for (unsigned slot = 0; slot < kSlots; slot++)
        EXPECT_GT(counts[slot], 4096u / kSlots / 2)
            << "slot " << slot << " owns too little of the hash space";
}

// --- Cluster end to end ---------------------------------------------------

TEST(Cluster, SweepReportByteIdenticalToSingleProcess)
{
    TempDir tmp("bytes");
    Coordinator coordinator(quietCoordinator(3));
    coordinator.start();

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::unique_ptr<WorkerThread>> threads;
    for (unsigned i = 0; i < 3; i++) {
        workers.push_back(std::make_unique<Worker>(quietWorker(
            coordinator, tmp.path() + "/worker" + std::to_string(i))));
        threads.push_back(std::make_unique<WorkerThread>(*workers.back()));
    }
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 3;
    }));

    // Cold: every job simulated on some shard; report must match a cold
    // uncached single-process `dynaspam sweep`.
    Reply cold = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.body, cliReport(""));

    // Warm: all four jobs answered from shard-local caches; report must
    // match a warm single-process sweep (one runner warms, one reads).
    Reply warm = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(warm.status, 200);
    std::string warm_cache = tmp.path() + "/cli";
    (void)cliReport(warm_cache);
    EXPECT_EQ(warm.body, cliReport(warm_cache));
    EXPECT_EQ(coordinator.metrics().value("dynaspam_cache_hits_total"),
              4);

    // /run of one job behaves like a one-job sweep named "run".
    Reply run = request(coordinator.httpPort(), "POST", "/run",
                        "{\"workload\": \"bfs\", \"trace_length\": 16}");
    EXPECT_EQ(run.status, 200);
    EXPECT_NE(run.body.find("\"sweep\": \"run\""), std::string::npos);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    for (auto &t : threads)
        t->join();
}

TEST(Cluster, RunQueryStringMatchesCliReport)
{
    // /run takes ?fidelity=...&warmup_insts=..., so the coordinator must
    // route by path, not by the whole target, and apply the query.
    const std::string target = "/run?fidelity=sampled&warmup_insts=1000";
    const std::string spec = "{\"workload\": \"bfs\", \"trace_length\": 16}";

    // What `dynaspam run --fidelity sampled --warmup-insts 1000
    // --no-cache --out` writes for the same spec.
    Job job{"bfs", SystemMode::AccelSpec, 16, 1, 1};
    job.warmupInsts = 1000;
    job.fidelity = runner::Fidelity::Sampled;
    runner::RunnerOptions ropts;
    ropts.jobs = 1;
    runner::Runner cli(ropts);
    std::ostringstream expected;
    runner::writeSweepReport(expected, "run", cli.runAll({job}),
                             &cli.stats());
    EXPECT_NE(expected.str().find("\"sampled\""), std::string::npos);

    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();
    Worker worker(quietWorker(coordinator, ""));
    WorkerThread thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    Reply clustered = request(coordinator.httpPort(), "POST", target, spec);
    EXPECT_EQ(clustered.status, 200);
    EXPECT_EQ(clustered.body, expected.str());

    Reply bad = request(coordinator.httpPort(), "POST", "/run?speed=max",
                        spec);
    EXPECT_EQ(bad.status, 400);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    thread.join();
}

TEST(Cluster, BusyWorkerAnswersPingsThroughALongJob)
{
    // Liveness must not depend on how long one job runs: a worker held
    // in a job well past the ping timeout keeps its slot, and its batch
    // is never re-sent.
    CoordinatorOptions copts = quietCoordinator(1);
    copts.pingIntervalMs = 50;
    copts.pingTimeoutMs = 300;
    Coordinator coordinator(copts);
    coordinator.start();

    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<unsigned> calls{0};
    WorkerOptions wopts = quietWorker(coordinator, "");
    wopts.executeFn = [&](const Job &) {
        calls++;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
        sim::RunResult result;
        result.cycles = 1000;
        result.instsTotal = 500;
        result.functionallyCorrect = true;
        return result;
    };
    Worker worker(wopts);
    WorkerThread worker_thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    Reply reply;
    std::thread client([&] {
        reply = request(coordinator.httpPort(), "POST", "/run",
                        "{\"workload\": \"bfs\", \"trace_length\": 16}");
    });
    EXPECT_TRUE(eventually([&] { return calls.load() == 1; }));
    // Three ping timeouts with the job still running.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_workers_connected"),
              1);
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    client.join();

    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(calls.load(), 1u);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_batch_retries_total", "worker=\"0\""),
              0);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, CachelessWorkerRepeatSweepMatchesNoCacheCli)
{
    // Report bytes depend only on the disk-cache state: a worker without
    // a disk cache answers the repeat from its memo, but never calls it
    // a cache hit, exactly like `dynaspam sweep --no-cache`.
    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();
    Worker worker(quietWorker(coordinator, ""));
    WorkerThread thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    Reply first = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    Reply again = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.body, first.body);
    EXPECT_EQ(again.body, cliReport(""));

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    thread.join();
}

TEST(Cluster, WorkerKilledMidSweepStillYieldsIdenticalReport)
{
    TempDir tmp("kill");

    // Decide the victim slot up front: the slot owning the first job's
    // hash is guaranteed to receive a batch.
    constexpr unsigned kSlots = 2;
    const std::vector<Job> jobs = sweepJobsUnderTest();
    const unsigned victimSlot =
        cluster::ownerSlot(jobs[0].hash(), kSlots);

    Coordinator coordinator(quietCoordinator(kSlots));
    coordinator.start();

    // The victim's executeFn blocks until released, so the kill happens
    // deterministically mid-batch. Its (fake) results never escape: the
    // link is already shut when the batch would report.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<unsigned> victim_calls{0};
    WorkerOptions victim_opts = quietWorker(coordinator, "");
    victim_opts.executeFn = [&](const Job &) {
        victim_calls++;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
        return sim::RunResult{};
    };

    WorkerOptions healthy_opts =
        quietWorker(coordinator, tmp.path() + "/healthy");

    // Slots are granted in connection order: dial the victim first when
    // it must own slot 0.
    std::unique_ptr<Worker> first = std::make_unique<Worker>(
        victimSlot == 0 ? victim_opts : healthy_opts);
    WorkerThread first_thread(*first);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    std::unique_ptr<Worker> second = std::make_unique<Worker>(
        victimSlot == 0 ? healthy_opts : victim_opts);
    WorkerThread second_thread(*second);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 2;
    }));
    Worker &victim_worker = victimSlot == 0 ? *first : *second;
    WorkerThread &victim_thread =
        victimSlot == 0 ? first_thread : second_thread;
    WorkerThread &healthy_thread =
        victimSlot == 0 ? second_thread : first_thread;

    std::thread client([&] {
        Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                              kSweepBody);
        EXPECT_EQ(reply.status, 200);
        // Cold cluster, cold CLI: byte-identical despite the crash.
        EXPECT_EQ(reply.body, cliReport(""));
    });

    // Wait until the victim is provably mid-batch, then kill it.
    ASSERT_TRUE(eventually([&] { return victim_calls.load() >= 1; }));
    victim_worker.shutdownNow();

    client.join();

    // The batch was reassigned (and accounted), not dropped.
    std::ostringstream label;
    label << "worker=\"" << victimSlot << "\"";
    EXPECT_GE(coordinator.metrics().value(
                  "dynaspam_cluster_batch_retries_total", label.str()),
              1);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_workers_connected"),
              1);

    // Release the gated executeFn so the victim thread can exit.
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    victim_thread.join();

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    healthy_thread.join();
}

TEST(Cluster, WorkerReconnectsAfterCoordinatorCrashAndRestart)
{
    TempDir tmp("reconnect");

    // A stand-in coordinator: accept the worker, complete the
    // Hello/Welcome handshake, then vanish without a Goodbye — the
    // crash case. Its listener closes too, freeing the port for the
    // real coordinator that "restarts" in its place.
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)), 0);
    ASSERT_EQ(::listen(listener, 4), 0);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                            &addr_len), 0);
    const unsigned port = ntohs(addr.sin_port);

    WorkerOptions wopts;
    wopts.connectPort = port;
    wopts.cacheDir = tmp.path() + "/w";
    wopts.connectRetryMs = 5;    // fast redial waves in the test
    wopts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    Worker worker(wopts);
    WorkerThread worker_thread(worker);

    int conn = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    char hello[256];
    ASSERT_GT(::recv(conn, hello, sizeof(hello), 0), 0);
    ASSERT_TRUE(sendRaw(conn,
                        cluster::encodeFrame(cluster::FrameType::Welcome,
                                             "{\"slot\": 0, \"slots\": 1}")));
    ::close(conn);
    ::close(listener);

    // The real coordinator binds the same port; the worker's jittered
    // backoff redial finds it and rejoins without operator help.
    CoordinatorOptions copts = quietCoordinator(1);
    copts.workerPort = port;
    Coordinator coordinator(copts);
    coordinator.start();
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // ...and the rejoined worker serves a real sweep end to end.
    Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.body, cliReport(""));

    // An orderly drain says Goodbye: the worker exits 0 instead of
    // treating the close as another crash and redialing forever.
    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
    EXPECT_EQ(worker_thread.exitCode(), 0);
}

/** Four bfs jobs with a shared warmup: two fork groups (the baseline
 *  host pipeline warms separately from the DynaSpAM configurations). */
const char *kWarmSweepBody =
    "{\"jobs\": ["
    "{\"workload\": \"bfs\", \"mode\": \"baseline-ooo\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"mapping-only\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"accel-nospec\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"accel-spec\","
    " \"warmup_insts\": 20000}]}";

TEST(Cluster, SnapshotCacheSkipsRewarmAcrossWorkerRestart)
{
    TempDir tmp("snapshot");
    CoordinatorOptions copts = quietCoordinator(1);
    copts.pingIntervalMs = 50;    // fast warmups-gauge propagation
    Coordinator coordinator(copts);
    coordinator.start();

    const std::string snap_dir = tmp.path() + "/snaps";
    auto snapWorker = [&] {
        // No result cache: run 2 must re-execute every job, so the only
        // thing that can spare the warm pass is the snapshot cache.
        WorkerOptions opts = quietWorker(coordinator, "");
        opts.snapshotCacheDir = snap_dir;
        return opts;
    };

    // What a single process answers for the same four jobs.
    std::vector<Job> jobs;
    for (SystemMode mode :
         {SystemMode::BaselineOoo, SystemMode::MappingOnly,
          SystemMode::AccelNoSpec, SystemMode::AccelSpec}) {
        Job job{"bfs", mode, 32, 1, 1};
        job.warmupInsts = 20000;
        jobs.push_back(job);
    }
    runner::RunnerOptions ropts;
    ropts.jobs = 1;
    runner::Runner straight(ropts);
    auto outcomes = straight.runAll(jobs);
    std::ostringstream os;
    runner::writeSweepReport(os, "custom", outcomes, &straight.stats());
    const std::string expected = os.str();

    // Run 1: cold snapshot cache — the worker warms each fork group
    // once and persists the warmed state.
    Worker first(snapWorker());
    WorkerThread first_thread(first);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    Reply cold = request(coordinator.httpPort(), "POST", "/sweep",
                         kWarmSweepBody);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.body, expected);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_worker_warmups", "worker=\"0\"") == 2;
    }));
    std::size_t snap_files = 0;
    for (const auto &de : fs::directory_iterator(snap_dir))
        snap_files += de.path().extension() == ".snap";
    EXPECT_EQ(snap_files, 2u);

    // Restart: a FRESH worker process sharing only the snapshot dir.
    first.shutdownNow();
    first_thread.join();
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 0;
    }));
    Worker second(snapWorker());
    WorkerThread second_thread(second);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // Run 2: every job re-executes (no result cache), but the warmed
    // prefixes load from disk — zero warm passes, identical bytes.
    Reply warm = request(coordinator.httpPort(), "POST", "/sweep",
                         kWarmSweepBody);
    ASSERT_EQ(warm.status, 200);
    EXPECT_EQ(warm.body, expected);
    // Give the gauge a few ping cycles to reflect post-sweep state: it
    // must remain at the fresh worker's zero, proving no re-warm.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_worker_warmups", "worker=\"0\""),
              0);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    second_thread.join();
}

TEST(Cluster, SnapshotBudgetAppliesWhileServing)
{
    // Regression: a worker applied its snapshot-cache budget only when
    // its coordinator link closed, and collected on the store path only
    // with a result-cache budget. A long-lived serve without a result
    // cache therefore grew its snapshot directory until it drained.
    TempDir tmp("snapshot-budget");
    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();

    const std::string snap_dir = tmp.path() + "/snaps";
    WorkerOptions opts = quietWorker(coordinator, "");
    opts.snapshotCacheDir = snap_dir;
    opts.snapshotCacheMaxBytes = 1;    // smaller than any .snap file
    opts.threads = 4;
    Worker worker(opts);
    WorkerThread worker_thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // Eight fork groups (one per warmup length) of four members each:
    // 32 executed jobs, one full GC interval.
    constexpr unsigned kGroups = 8;
    std::string body = "{\"jobs\": [";
    for (unsigned g = 0; g < kGroups; g++)
        for (const char *mode :
             {"mapping-only", "accel-nospec", "accel-spec", "accel-naive"}) {
            if (body.back() == '}')
                body += ",";
            body += std::string("{\"workload\": \"bfs\", \"mode\": \"") +
                    mode + "\", \"trace_length\": 16, \"warmup_insts\": " +
                    std::to_string(1000 * (g + 1)) + "}";
        }
    body += "]}";
    Reply reply = request(coordinator.httpPort(), "POST", "/sweep", body);
    ASSERT_EQ(reply.status, 200) << reply.body;

    // Still connected: only a store-path collection can have run.
    std::size_t snap_files = 0;
    for (const auto &de : fs::directory_iterator(snap_dir))
        snap_files += de.path().extension() == ".snap";
    EXPECT_LT(snap_files, kGroups);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, GarbageOnWorkerPortDoesNotDisturbService)
{
    TempDir tmp("garbage");
    Coordinator coordinator(quietCoordinator(2));
    coordinator.start();

    // An HTTP request aimed at the worker port: bad magic, dropped.
    int bad = connectTo(coordinator.workerPort());
    ASSERT_GE(bad, 0);
    sendRaw(bad, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");

    // A truncated-then-abandoned frame: valid header, missing payload.
    int trunc = connectTo(coordinator.workerPort());
    ASSERT_GE(trunc, 0);
    std::string frame =
        cluster::encodeFrame(cluster::FrameType::Hello, "{\"protocol\": 1}");
    sendRaw(trunc, frame.substr(0, frame.size() - 4));

    // The coordinator keeps serving and a real worker can still join.
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/healthz").status,
              200);
    Worker worker(quietWorker(coordinator, tmp.path() + "/w"));
    WorkerThread worker_thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    ::close(bad);
    ::close(trunc);

    Reply sweep = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(sweep.status, 200);
    EXPECT_EQ(sweep.body, cliReport(""));

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, NoWorkersMeans503AndBadBodiesMean400)
{
    Coordinator coordinator(quietCoordinator(2));
    coordinator.start();

    Reply no_workers = request(coordinator.httpPort(), "POST", "/sweep",
                               kSweepBody);
    EXPECT_EQ(no_workers.status, 503);
    EXPECT_NE(no_workers.body.find("no workers connected"),
              std::string::npos);

    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/sweep",
                      "{not json").status, 400);
    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/run",
                      "{\"workload\": \"nope\"}").status, 400);
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/sweep").status,
              405);
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/nope").status,
              404);
    EXPECT_EQ(request(coordinator.httpPort(), "GET",
                      "/results/0123").status, 404);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
}

TEST(Cluster, KeepAliveServesManyRequestsOnOneConnection)
{
    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();

    // HTTP/1.1 persistence is the default on the epoll front end: many
    // requests, one connection, one connection-count increment.
    int fd = connectTo(coordinator.httpPort());
    ASSERT_GE(fd, 0);
    for (unsigned i = 0; i < 5; i++) {
        ASSERT_TRUE(sendRaw(fd, requestWire("GET", "/healthz")));
        Reply reply = readReply(fd);
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(reply.headers.at("Connection"), "keep-alive");
    }

    // Pipelined back-to-back requests also all get answered.
    ASSERT_TRUE(sendRaw(fd, requestWire("GET", "/healthz") +
                                requestWire("GET", "/metrics")));
    EXPECT_EQ(readReply(fd).status, 200);
    Reply scrape = readReply(fd);
    EXPECT_EQ(scrape.status, 200);
    EXPECT_NE(scrape.body.find("dynaspam_http_connections_total 1\n"),
              std::string::npos);

    // `Connection: close` is honored: response says close, then EOF.
    ASSERT_TRUE(sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n"));
    Reply last = readReply(fd);
    EXPECT_EQ(last.status, 200);
    EXPECT_EQ(last.headers.at("Connection"), "close");
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
}

TEST(Cluster, AdmissionBoundReturns429)
{
    CoordinatorOptions opts = quietCoordinator(1);
    opts.queueCapacity = 2;    // fig8/bfs needs 4 job slots
    Coordinator coordinator(opts);
    coordinator.start();

    // One worker so admission (not worker-absence) is the limiter; the
    // sweep is larger than the queue, so it is refused outright.
    TempDir tmp("admission");
    Worker worker(quietWorker(coordinator, tmp.path() + "/w"));
    WorkerThread worker_thread(worker);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(reply.status, 429);
    EXPECT_EQ(reply.headers.at("Retry-After"), "2");
    EXPECT_NE(reply.body.find("admission queue full"), std::string::npos);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, EnrollmentTokenGatesWorkers)
{
    TempDir tmp("token");
    CoordinatorOptions copts = quietCoordinator(2);
    copts.clusterToken = "sekrit-cluster-token";
    Coordinator coordinator(copts);
    coordinator.start();

    // A tokenless worker and a wrong-token worker are both dropped
    // before any Welcome; neither ever counts as connected.
    WorkerOptions bare = quietWorker(coordinator, "");
    bare.reconnect = false;
    Worker tokenless(bare);
    WorkerThread tokenless_thread(tokenless);

    WorkerOptions mismatched = bare;
    mismatched.clusterToken = "wrong-token";
    Worker wrong(mismatched);
    WorkerThread wrong_thread(wrong);

    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_hello_rejects_total") >= 2;
    }));
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_workers_connected"),
              0);
    tokenless_thread.join();
    wrong_thread.join();

    // The secret must never surface through the metrics endpoint.
    Reply metrics = request(coordinator.httpPort(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metrics.body.find("sekrit"), std::string::npos);
    EXPECT_NE(metrics.body.find("dynaspam_cluster_hello_rejects_total 2"),
              std::string::npos);

    // The matching token enrolls normally and the cluster serves work.
    WorkerOptions good = quietWorker(coordinator, tmp.path() + "/w");
    good.clusterToken = "sekrit-cluster-token";
    Worker enrolled(good);
    WorkerThread enrolled_thread(enrolled);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    Reply run = request(coordinator.httpPort(), "POST", "/run",
                        "{\"workload\": \"bfs\", \"trace_length\": 16}");
    EXPECT_EQ(run.status, 200);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    enrolled_thread.join();
}
