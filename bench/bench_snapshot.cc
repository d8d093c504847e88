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
 * single-process --no-fork report. The forked and cluster paths are
 * timed in alternating rounds (forked sweep, then cluster sweep,
 * --repeat times) with the coordinator and workers kept up across
 * rounds, so host drift during the run hits both sides of the cluster
 * gain alike; each keeps its fastest round.
 *
 * The bench stops with an error (exit 2) if any report entry differs
 * between paths — forked and cluster sweeps must be byte-identical at
 * full fidelity, not just faster.
 *
 * Gates (exit 1 when one fails): the forked speedup must reach
 * --min-speedup (default 2.0); the warm cluster sweep must beat the
 * in-process forked path by --min-cluster-gain (default 1.0, i.e. at
 * least parity); and with --baseline both speedups must additionally
 * stay within --tolerance (default 0.25, in [0, 1)) of the checked-in
 * baseline. Bad usage or an unreadable baseline exits 2.
 *
 * Report schema: see EXPERIMENTS.md ("Forked sweeps & sampled
 * fidelity").
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/json.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "runner/spec.hh"
#include "tests/support.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace
{

/** Serial wall time of one sweep execution plus its report bytes. */
struct Timed
{
    double seconds = 0.0;
    std::vector<std::string> entries;
};

/** Fold one timed run into @p best: keep the fastest time, and insist
 *  every run reports the same entries. */
void
keepBest(Timed &best, bool first, double secs,
         std::vector<std::string> entries, bool fork)
{
    if (first || secs < best.seconds)
        best.seconds = secs;
    if (first)
        best.entries = std::move(entries);
    else if (entries != best.entries)
        fatal("sweep reports differ between repeats (fork=", fork,
              ") — the simulator is nondeterministic");
}

/** One serial in-process sweep of @p jobs, folded into @p best. */
void
timeSweepOnce(const std::vector<Job> &jobs, bool fork, Timed &best,
              bool first)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;          // serial: compare work, not parallelism
    opts.forkSweeps = fork; // cache stays disabled (no cacheDir)
    runner::Runner r(opts);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<runner::JobOutcome> outcomes = r.runAll(jobs);
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<std::string> entries;
    entries.reserve(outcomes.size());
    for (const runner::JobOutcome &outcome : outcomes)
        entries.push_back(runner::sweepEntryJson(outcome).dump());
    keepBest(best, first, std::chrono::duration<double>(t1 - t0).count(),
             std::move(entries), fork);
}

/**
 * The group-sharded cluster path: coordinator + 2 workers sharing a
 * snapshot-cache directory and one keep-alive client connection, up
 * from construction to destruction. The constructor runs one untimed
 * sweep that warms and persists the fork-group prefixes; each sweep()
 * after it re-executes every job from the on-disk snapshots. Every
 * response body must equal @p expected_report (the single-process
 * --no-fork report).
 */
class ClusterRig
{
  public:
    ClusterRig(const std::vector<Job> &jobs, std::string expected_report)
        : snaps("bench-snapshot"), coordinator(coordinatorOptions()),
          expected(std::move(expected_report))
    {
        coordinator.start();
        for (unsigned i = 0; i < 2; i++) {
            cluster::WorkerOptions wopts;
            wopts.connectPort = coordinator.workerPort();
            wopts.snapshotCacheDir = snaps.path();
            // No result cache and no memo: every timed pass re-executes
            // all jobs, so the snapshot cache is the only thing being
            // measured.
            wopts.memoEntries = 0;
            wopts.verbose = false;
            workers.push_back(std::make_unique<cluster::Worker>(wopts));
            threads.push_back(
                std::make_unique<tests::WorkerThread>(*workers.back()));
        }
        if (!tests::eventually([&] {
                return coordinator.metrics().value(
                           "dynaspam_cluster_workers_connected") == 2;
            }))
            fatal("the cluster workers did not connect");

        json::Array specs;
        for (const Job &job : jobs)
            specs.push_back(runner::jobToJson(job));
        json::Object body;
        body["jobs"] = std::move(specs);
        wire = tests::requestWire("POST", "/sweep", json::Value{body}.dump());

        fd = tests::connectTo(coordinator.httpPort());
        if (fd < 0)
            fatal("cannot reach the in-process coordinator");
        sweep();    // the untimed warm pass
    }

    ~ClusterRig()
    {
        if (fd >= 0)
            ::close(fd);
        coordinator.beginDrain();
        coordinator.waitUntilDrained();
        for (const std::unique_ptr<tests::WorkerThread> &t : threads)
            t->join();
    }

    ClusterRig(const ClusterRig &) = delete;
    ClusterRig &operator=(const ClusterRig &) = delete;

    /** One timed cluster sweep. @return its wall seconds. */
    double
    sweep()
    {
        const auto t0 = std::chrono::steady_clock::now();
        if (!tests::sendRaw(fd, wire))
            fatal("cluster sweep request failed");
        const tests::Reply reply = tests::readReply(fd);
        const auto t1 = std::chrono::steady_clock::now();
        if (reply.body != expected)
            fatal("cluster sweep report diverges from the "
                  "single-process --no-fork report (pass ", passes, ")");
        passes++;
        return std::chrono::duration<double>(t1 - t0).count();
    }

  private:
    static cluster::CoordinatorOptions
    coordinatorOptions()
    {
        cluster::CoordinatorOptions copts;
        copts.httpPort = 0;
        copts.workerPort = 0;
        copts.workerSlots = 2;
        copts.verbose = false;
        return copts;
    }

    tests::TempDir snaps;
    cluster::Coordinator coordinator;
    std::vector<std::unique_ptr<cluster::Worker>> workers;
    std::vector<std::unique_ptr<tests::WorkerThread>> threads;
    std::string expected;
    std::string wire;
    int fd = -1;
    unsigned passes = 0;
};

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

int
run(apps::Args &args)
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

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--workload")
            workload = workloads::canonicalWorkloadName(args.value(flag));
        else if (flag == "--scale")
            scale = args.uvalue(flag);
        else if (flag == "--points")
            points = args.uvalue(flag);
        else if (flag == "--repeat")
            repeat = args.uvalue(flag);
        else if (flag == "--warmup-frac")
            warmup_frac = args.dvalue(flag);
        else if (flag == "--min-speedup")
            min_speedup = args.dvalue(flag);
        else if (flag == "--min-cluster-gain")
            min_cluster_gain = args.dvalue(flag);
        else if (flag == "--out")
            out = args.value(flag);
        else if (flag == "--baseline")
            baseline = args.value(flag);
        else if (flag == "--tolerance")
            tolerance = args.dvalue(flag);
        else
            return usage();
    }
    if (repeat == 0 || points < 2 || warmup_frac <= 0.0 ||
        warmup_frac >= 1.0)
        return usage();
    runner::checkJob(Job{workload, SystemMode::AccelSpec, 32, points, scale});
    bench::Gates gates(baseline, tolerance, bench::Better::Higher);

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

    Timed straight;
    for (unsigned i = 0; i < repeat; i++)
        timeSweepOnce(jobs, false, straight, i == 0);

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

    // Forked and cluster sweeps in alternating rounds: the cluster gain
    // divides one by the other, so both must see the same host.
    Timed forked;
    double cluster_seconds = 0.0;
    {
        ClusterRig cluster(jobs, expected);
        for (unsigned i = 0; i < repeat; i++) {
            timeSweepOnce(jobs, true, forked, i == 0);
            const double secs = cluster.sweep();
            if (i == 0 || secs < cluster_seconds)
                cluster_seconds = secs;
        }
    }

    // Byte-identity is the contract, not a statistic: any drift between
    // the two execution strategies invalidates every forked figure.
    for (std::size_t i = 0; i < jobs.size(); i++) {
        if (forked.entries[i] != straight.entries[i])
            fatal("forked report diverges from straight-through for ",
                  jobs[i].key());
    }

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
    bench::writeReport(out, json::Value{std::move(report_obj)});

    gates.atLeast("speedup", speedup, min_speedup, {6, 2, "x"},
                  "TOO SLOW");
    gates.atLeast("cluster gain", cluster_gain, min_cluster_gain,
                  {6, 2, "x"}, "TOO SLOW");
    if (gates.hasBaseline()) {
        for (const auto &[key, measured] :
             {std::pair{"speedup", speedup},
              std::pair{"cluster_speedup", cluster_speedup}})
            gates.vsBaseline(key, measured, gates.baselineValue({key}),
                             {6, 2, "x"});
    }
    return gates.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
