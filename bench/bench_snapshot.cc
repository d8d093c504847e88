/**
 * @file
 * Snapshot/fork sweep benchmark: wall-clock speedup of the forked
 * runner path (warm the shared prefix once, fork every configuration
 * from the warmed snapshot) over straight-through execution, plus the
 * cluster-sharded variant (2 workers, fork-group sharding, warm
 * on-disk SnapshotCache).
 *
 *   bench_snapshot [--workload W] [--scale N]
 *                  [--points N] [--repeat N] [--warmup-frac F]
 *                  [--min-speedup X] [--min-cluster-gain X]
 *                  [--out FILE] [--baseline FILE] [--tolerance FRAC]
 *
 * The job set is accel-spec x fabric pools {1..points} on one workload
 * (default pf, whose single hot trace keeps the fork-group WarmupGuard
 * quiet for the whole prefix), twice: once with a warmup prefix of
 * --warmup-frac (default 0.92) of the workload's committed instruction
 * count (probed with one untimed run) and once with 7/8 of that — two
 * distinct fork groups, nudged by a few warmup instructions so their
 * group hashes shard to different owner slots in a 2-worker cluster.
 * The straight and forked paths execute on a single worker thread with
 * the result cache disabled, so that comparison is pure serial wall
 * time; each path is timed --repeat times (default 5) and the fastest
 * run is kept.
 *
 * The cluster variant starts an in-process coordinator plus two
 * workers that share nothing but a snapshot-cache directory: one
 * untimed pass warms and persists both groups' prefixes, then the
 * timed passes re-execute every job (no result cache) with the warmed
 * state loading from disk and the two groups forking on their owner
 * shards in parallel. Its merged report must be byte-identical to the
 * single-process --no-fork report.
 *
 * The bench hard-fails (exit 1) if any report entry differs between
 * paths — forked and cluster sweeps must be byte-identical at full
 * fidelity, not just faster.
 *
 * Gates: the forked speedup must reach --min-speedup (default 2.0);
 * the warm cluster sweep must beat the in-process forked path by
 * --min-cluster-gain (default 1.0, i.e. at least parity); and with
 * --baseline both speedups must additionally stay within --tolerance
 * (default 0.25) of the checked-in baseline.
 *
 * Report schema: see EXPERIMENTS.md ("Forked sweeps & sampled
 * fidelity").
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.hh"
#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/runner.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace
{

namespace fs = std::filesystem;

/** Fresh unique directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        path_ = (fs::temp_directory_path() /
                 ("dynaspam-bench-" + tag + "-" + std::to_string(getpid())))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

int
connectTo(unsigned port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAllBytes(int fd, const std::string &wire)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += std::size_t(n);
    }
    return true;
}

/** Read one full HTTP response body (Content-Length framed). */
std::string
readBody(int fd)
{
    std::string raw;
    char chunk[8192];
    std::size_t head_end = std::string::npos;
    while ((head_end = raw.find("\r\n\r\n")) == std::string::npos) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return "";
        raw.append(chunk, std::size_t(n));
    }
    std::size_t body_len = 0;
    const std::string headers = raw.substr(0, head_end);
    std::size_t cl = headers.find("Content-Length:");
    if (cl != std::string::npos)
        body_len = std::stoul(headers.substr(cl + 15));
    std::string body = raw.substr(head_end + 4);
    while (body.size() < body_len) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        body.append(chunk, std::size_t(n));
    }
    return body;
}

/** {"jobs": [...]} sweep body for @p jobs (coordinator spec format). */
std::string
sweepBodyFor(const std::vector<Job> &jobs)
{
    std::ostringstream os;
    os << "{\"jobs\": [";
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (i)
            os << ", ";
        os << "{\"workload\": \"" << jobs[i].workload << "\","
           << " \"mode\": \"" << sim::modeName(jobs[i].mode) << "\","
           << " \"trace_length\": " << jobs[i].traceLength << ","
           << " \"num_fabrics\": " << jobs[i].numFabrics << ","
           << " \"scale\": " << jobs[i].scale << ","
           << " \"warmup_insts\": " << jobs[i].warmupInsts << "}";
    }
    os << "]}";
    return os.str();
}

/** Serial wall time of one sweep execution plus its report bytes. */
struct Timed
{
    double seconds = 0.0;
    std::vector<std::string> entries;
};

Timed
timeSweep(const std::vector<Job> &jobs, bool fork, unsigned repeat)
{
    Timed best;
    for (unsigned i = 0; i < repeat; i++) {
        runner::RunnerOptions opts;
        opts.jobs = 1;          // serial: compare work, not parallelism
        opts.forkSweeps = fork; // cache stays disabled (no cacheDir)
        runner::Runner r(opts);
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<runner::JobOutcome> outcomes = r.runAll(jobs);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        std::vector<std::string> entries;
        entries.reserve(outcomes.size());
        for (const runner::JobOutcome &outcome : outcomes)
            entries.push_back(runner::sweepEntryJson(outcome).dump());
        if (i == 0 || secs < best.seconds)
            best.seconds = secs;
        if (i == 0)
            best.entries = std::move(entries);
        else if (entries != best.entries)
            fatal("sweep reports differ between repeats (fork=", fork,
                  ") — the simulator is nondeterministic");
    }
    return best;
}

/**
 * Time the group-sharded cluster path: coordinator + 2 workers sharing
 * a snapshot-cache directory, one untimed pass to warm and persist the
 * fork-group prefixes, then @p repeat timed sweeps re-executing every
 * job from the on-disk snapshots. Every response body must equal
 * @p expected (the single-process --no-fork report).
 * @return fastest timed-sweep wall seconds
 */
double
timeClusterSweep(const std::vector<Job> &jobs, unsigned repeat,
                 const std::string &expected)
{
    TempDir snaps("snapshot");
    cluster::CoordinatorOptions copts;
    copts.httpPort = 0;
    copts.workerPort = 0;
    copts.workerSlots = 2;
    copts.verbose = false;
    cluster::Coordinator coordinator(copts);
    coordinator.start();

    std::vector<std::unique_ptr<cluster::Worker>> workers;
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < 2; i++) {
        cluster::WorkerOptions wopts;
        wopts.connectPort = coordinator.workerPort();
        wopts.snapshotCacheDir = snaps.path();
        // No result cache and no memo: every timed pass re-executes all
        // jobs, so the snapshot cache is the only thing being measured.
        wopts.memoEntries = 0;
        wopts.verbose = false;
        workers.push_back(std::make_unique<cluster::Worker>(wopts));
        threads.emplace_back([w = workers.back().get()] { w->run(); });
    }
    for (unsigned waited = 0; waited < 10000; waited++) {
        if (coordinator.metrics().value(
                "dynaspam_cluster_workers_connected") == 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const std::string wire = [&] {
        const std::string body = sweepBodyFor(jobs);
        std::ostringstream os;
        os << "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           << "Connection: keep-alive\r\n"
           << "Content-Length: " << body.size() << "\r\n\r\n" << body;
        return os.str();
    }();

    // One keep-alive connection: untimed warm pass populates the
    // snapshot files, then the timed passes load them.
    const int fd = connectTo(coordinator.httpPort());
    if (fd < 0)
        fatal("cannot reach the in-process coordinator");
    double best = 0.0;
    for (unsigned i = 0; i <= repeat; i++) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!sendAllBytes(fd, wire))
            fatal("cluster sweep request failed");
        const std::string body = readBody(fd);
        const auto t1 = std::chrono::steady_clock::now();
        if (body != expected)
            fatal("cluster sweep report diverges from the "
                  "single-process --no-fork report (pass ", i, ")");
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (std::getenv("BENCH_DEBUG"))
            std::printf("  cluster pass %u: %.4f s (warmups w0=%g w1=%g)\n",
                        i, secs,
                        coordinator.metrics().value(
                            "dynaspam_cluster_worker_warmups",
                            "worker=\"0\""),
                        coordinator.metrics().value(
                            "dynaspam_cluster_worker_warmups",
                            "worker=\"1\""));
        if (i == 1 || (i > 1 && secs < best))
            best = secs;    // pass 0 is the untimed warm pass
    }
    ::close(fd);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    for (std::thread &t : threads)
        t.join();
    return best;
}

int
usage()
{
    std::fprintf(stderr,
        "usage: bench_snapshot [--workload W]\n"
        "                      [--scale N] [--points N]\n"
        "                      [--repeat N] [--warmup-frac F]\n"
        "                      [--min-speedup X] [--min-cluster-gain X]\n"
        "                      [--out FILE]\n"
        "                      [--baseline FILE] [--tolerance FRAC]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "pf";
    unsigned scale = 2;
    unsigned points = 8;
    unsigned repeat = 5;
    // High warm fractions make the shared prefix the dominant cost, so
    // both the fork win (vs straight) and the snapshot-cache win (vs
    // re-warming) are measured where they matter.
    double warmup_frac = 0.92;
    double min_speedup = 2.0;
    double min_cluster_gain = 1.0;
    double tolerance = 0.25;
    std::string out = "BENCH_snapshot.json";
    std::string baseline;

    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing value for ", flag);
            return argv[i];
        };
        if (flag == "--workload")
            workload = workloads::canonicalWorkloadName(value());
        else if (flag == "--scale")
            scale = unsigned(std::stoul(value()));
        else if (flag == "--points")
            points = unsigned(std::stoul(value()));
        else if (flag == "--repeat")
            repeat = unsigned(std::stoul(value()));
        else if (flag == "--warmup-frac")
            warmup_frac = std::stod(value());
        else if (flag == "--min-speedup")
            min_speedup = std::stod(value());
        else if (flag == "--min-cluster-gain")
            min_cluster_gain = std::stod(value());
        else if (flag == "--out")
            out = value();
        else if (flag == "--baseline")
            baseline = value();
        else if (flag == "--tolerance")
            tolerance = std::stod(value());
        else
            return usage();
    }
    if (repeat == 0 || points < 2 || warmup_frac <= 0.0 ||
        warmup_frac >= 1.0)
        return usage();

    // Probe the workload's length (untimed) to size the shared prefixes.
    const sim::RunResult probe = runner::execute(
        Job{workload, SystemMode::AccelSpec, 32, 1, scale});
    const std::uint64_t insts_total = probe.instsTotal;
    const std::uint64_t warmup =
        std::uint64_t(double(insts_total) * warmup_frac);
    std::uint64_t warmup2 =
        std::uint64_t(double(insts_total) * warmup_frac * 7.0 / 8.0);
    // Nudge the second group's warmup until the two fork groups hash to
    // different owner slots, so a 2-worker cluster genuinely shards.
    {
        Job a{workload, SystemMode::AccelSpec, 32, 1, scale};
        a.warmupInsts = warmup;
        const unsigned slotA =
            cluster::ownerSlot(runner::forkGroupHash(a), 2);
        Job b = a;
        b.warmupInsts = warmup2;
        while (cluster::ownerSlot(runner::forkGroupHash(b), 2) == slotA &&
               b.warmupInsts + 1 < warmup)
            b.warmupInsts++;
        warmup2 = b.warmupInsts;
    }

    std::vector<Job> jobs;
    for (std::uint64_t group_warmup : {warmup, warmup2}) {
        for (unsigned f = 1; f <= points; f++) {
            Job job{workload, SystemMode::AccelSpec, 32, f, scale};
            job.warmupInsts = group_warmup;
            jobs.push_back(job);
        }
    }

    std::printf("snapshot: %s scale %u, 2 groups x %u points (accel-spec "
                "x fabrics 1..%u),\n          warmups %llu+%llu/%llu "
                "insts, best of %u run%s per path\n",
                workload.c_str(), scale, points, points,
                static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(warmup2),
                static_cast<unsigned long long>(insts_total), repeat,
                repeat == 1 ? "" : "s");

    const Timed straight = timeSweep(jobs, false, repeat);
    const Timed forked = timeSweep(jobs, true, repeat);

    // Byte-identity is the contract, not a statistic: any drift between
    // the two execution strategies invalidates every forked figure.
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (forked.entries[i] != straight.entries[i])
            fatal("forked report diverges from straight-through for ",
                  jobs[i].key());
    }

    // The exact single-process --no-fork report the cluster must emit.
    const std::string expected = [&] {
        runner::RunnerOptions opts;
        opts.jobs = 1;
        opts.forkSweeps = false;
        runner::Runner r(opts);
        std::vector<runner::JobOutcome> outcomes = r.runAll(jobs);
        std::ostringstream os;
        runner::writeSweepReport(os, "custom", outcomes, &r.stats());
        return os.str();
    }();
    const double cluster_seconds =
        timeClusterSweep(jobs, repeat, expected);

    const double speedup =
        forked.seconds > 0.0 ? straight.seconds / forked.seconds : 0.0;
    const double cluster_speedup =
        cluster_seconds > 0.0 ? straight.seconds / cluster_seconds : 0.0;
    const double cluster_gain =
        cluster_seconds > 0.0 ? forked.seconds / cluster_seconds : 0.0;
    std::printf("%-10s %10.4f s\n", "straight", straight.seconds);
    std::printf("%-10s %10.4f s\n", "forked", forked.seconds);
    std::printf("%-10s %10.4f s   (2 workers, warm snapshot cache)\n",
                "cluster", cluster_seconds);
    std::printf("%-10s %10.2fx   (reports byte-identical)\n", "speedup",
                speedup);
    std::printf("%-10s %10.2fx   over the in-process forked path\n",
                "clustergain", cluster_gain);

    json::Object report_obj;
    report_obj["schema_version"] = 2u;
    report_obj["name"] = "snapshot";
    report_obj["workload"] = workload;
    report_obj["scale"] = scale;
    report_obj["points"] = points;
    report_obj["repeat"] = repeat;
    report_obj["warmup_insts"] = warmup;
    report_obj["warmup2_insts"] = warmup2;
    report_obj["insts_total"] = insts_total;
    report_obj["straight_seconds"] = straight.seconds;
    report_obj["forked_seconds"] = forked.seconds;
    report_obj["cluster_seconds"] = cluster_seconds;
    report_obj["speedup"] = speedup;
    report_obj["cluster_speedup"] = cluster_speedup;
    report_obj["cluster_gain"] = cluster_gain;
    const json::Value report{std::move(report_obj)};

    {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write ", out);
        report.write(os, 2);
        os << "\n";
    }
    std::printf("report written to %s\n", out.c_str());

    int failed = 0;
    {
        const bool ok = speedup >= min_speedup;
        std::printf("gate: speedup %6.2fx vs required %6.2fx            "
                    "%s\n",
                    speedup, min_speedup, ok ? "ok" : "TOO SLOW");
        if (!ok)
            failed = 1;
    }
    {
        const bool ok = cluster_gain >= min_cluster_gain;
        std::printf("gate: cluster gain %6.2fx vs required %6.2fx       "
                    "%s\n",
                    cluster_gain, min_cluster_gain, ok ? "ok" : "TOO SLOW");
        if (!ok)
            failed = 1;
    }

    if (baseline.empty())
        return failed;

    // --- Regression gate against the checked-in baseline ---
    std::ifstream is(baseline);
    if (!is)
        fatal("cannot read baseline ", baseline);
    std::stringstream buf;
    buf << is.rdbuf();
    const json::Value base = json::Value::parse(buf.str());
    auto gateAgainst = [&](const char *key, double measured) {
        const json::Value *field = base.find(key);
        if (!field)
            return;    // pre-cluster baselines lack the new keys
        const double base_speedup = field->asDouble();
        // A non-positive baseline would make the floor 0 and wave every
        // regression through; fail loudly instead of gating on nothing.
        if (!(base_speedup > 0.0)) {
            fatal("baseline ", baseline, " has non-positive ", key, " ",
                  base_speedup, " — regenerate it");
        }
        const double floor = base_speedup * (1.0 - tolerance);
        const bool ok = measured >= floor;
        std::printf("gate: %s %6.2fx vs baseline %6.2fx (floor %6.2fx, "
                    "tol %.0f%%)  %s\n",
                    key, measured, base_speedup, floor, tolerance * 100.0,
                    ok ? "ok" : "REGRESSION");
        if (!ok)
            failed = 1;
    };
    gateAgainst("speedup", speedup);
    gateAgainst("cluster_speedup", cluster_speedup);
    return failed;
}
