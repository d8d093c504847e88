/**
 * @file
 * The `dynaspam` command-line driver.
 *
 * Front-end to the runner subsystem: executes single experiment points
 * or whole figure/table sweeps in parallel, with result caching and
 * JSON reporting (schema documented in EXPERIMENTS.md).
 *
 *   dynaspam run --workload bfs --mode accel-spec [--trace-length 32]
 *                [--fabrics 1] [--scale 1] [--out point.json]
 *   dynaspam sweep --figure 8 [--jobs N] [--out fig8.json] [--scale 1]
 *   dynaspam sweep --table 5 --jobs 4
 *   dynaspam trace bfs --mode accel-spec --cycles 1000:5000 --out t.json
 *   dynaspam serve --port 8080 --jobs 4 --cache-max-mb 256
 *   dynaspam coordinator --port 8080 --worker-port 9090 --workers 4
 *   dynaspam worker --connect 127.0.0.1:9090
 *   dynaspam list
 *
 * Caching defaults to .dynaspam-cache/ in the working directory; a
 * second run of the same sweep performs zero simulations. Disable with
 * --no-cache, redirect with --cache DIR, and bound the directory's size
 * with --cache-max-mb N (LRU eviction plus stale-epoch GC after the
 * run). SIGINT/SIGTERM mid-run unlink any half-written cache entry and
 * exit with the conventional 128+signal code.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/args.hh"
#include "check/fault_inject.hh"
#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/interrupt.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "explore/engine.hh"
#include "explore/space.hh"
#include "runner/runner.hh"
#include "runner/spec.hh"
#include "runner/thread_pool.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace dynaspam;
using apps::Args;
using apps::splitCommas;
using runner::Job;
using sim::SystemMode;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  run    simulate one experiment point\n"
        "           --workload NAME      (required; see `dynaspam list`)\n"
        "           --mode MODE          (default accel-spec)\n"
        "           --trace-length N     (default 32)\n"
        "           --fabrics N          (default 1)\n"
        "           --scale N            (default 1)\n"
        "           --warmup-insts N     detailed warmup prefix "
        "(default 0)\n"
        "           --fidelity F         full | sampled (default full)\n"
        "           --out FILE           write a JSON report\n"
        "  sweep  run a whole figure/table sweep in parallel\n"
        "           --figure {7,8,9} | --table 5 | --ablation mapper\n"
        "           --jobs N             worker threads (default: cores)\n"
        "           --out FILE           (default <sweep>.json)\n"
        "           --scale N            (default 1)\n"
        "           --workloads a,b,c    subset of workloads\n"
        "           --warmup-insts N     shared warmup prefix; jobs that\n"
        "                                agree on it fork from one warmed\n"
        "                                snapshot (default 0 = off)\n"
        "           --fidelity F         full | sampled (default full)\n"
        "           --no-fork            force straight-through runs\n"
        "  explore\n"
        "         design-space search: scout cheap, promote only\n"
        "         frontier-adjacent survivors to full fidelity, report\n"
        "         the Pareto frontier (see EXPERIMENTS.md "
        "\"Exploration\")\n"
        "           --space FILE         space + objective spec JSON\n"
        "                                (- reads stdin); streams NDJSON\n"
        "                                progress on stdout\n"
        "           --jobs N             worker threads (default: cores)\n"
        "           --out FILE           write the final frontier "
        "report\n"
        "  trace  simulate one point with event tracing and write a\n"
        "         Chrome trace-event JSON (Perfetto) plus a Konata\n"
        "         pipeline log (<out>.kanata); always uncached\n"
        "           <workload> | --workload NAME   (required)\n"
        "           --mode MODE          (default accel-spec)\n"
        "           --trace-length N     (default 32)\n"
        "           --fabrics N          (default 1)\n"
        "           --scale N            (default 1)\n"
        "           --cycles A:B         only events in cycles [A, B]\n"
        "           --out FILE           (default trace.json)\n"
        "  serve  run the HTTP/JSON simulation service: the coordinator\n"
        "         below with one in-process worker (see EXPERIMENTS.md\n"
        "         \"Serving\"); drains gracefully on SIGTERM/SIGINT\n"
        "           --port N             TCP port (default 8080; 0 = any)\n"
        "           --bind ADDR          bind address (default 127.0.0.1)\n"
        "           --jobs N             worker threads (default: cores)\n"
        "           --queue-capacity N   queued + running job bound -> "
        "429\n"
        "                                (default 64)\n"
        "           --timeout-ms N       per-request deadline "
        "(default 120000)\n"
        "           --warmup-insts N     default warmup for job specs\n"
        "                                that set none (default 0)\n"
        "  coordinator\n"
        "         run the cluster front end: epoll HTTP server that\n"
        "         shards sweeps across connected workers (see\n"
        "         EXPERIMENTS.md \"Cluster serving\")\n"
        "           --port N             client HTTP port (default 8080)\n"
        "           --worker-port N      worker wire port (default 9090)\n"
        "           --bind ADDR          bind address (default 127.0.0.1)\n"
        "           --workers N          shard slots (default 4)\n"
        "           --queue-capacity N   outstanding-job bound -> 429 "
        "(default 256)\n"
        "           --timeout-ms N       per-request deadline "
        "(default 120000)\n"
        "           --cluster-token T    require T in each worker Hello\n"
        "                                (or env DYNASPAM_CLUSTER_TOKEN)\n"
        "  worker run one shard worker; dials the coordinator and\n"
        "         executes the job batches routed to its hash slot on\n"
        "         DYNASPAM_JOBS threads (default 1)\n"
        "           --connect HOST:PORT  coordinator worker port\n"
        "                                (default 127.0.0.1:9090)\n"
        "           --cluster-token T    enrollment token to send\n"
        "                                (or env DYNASPAM_CLUSTER_TOKEN)\n"
        "  list   print workload tags and mode names\n"
        "  check-selftest\n"
        "         fault-inject every simulator invariant auditor and\n"
        "         verify each one catches its seeded violation\n"
        "\n"
        "common options:\n"
        "  --cache DIR       result-cache directory "
        "(default .dynaspam-cache)\n"
        "  --no-cache        disable the result cache\n"
        "  --cache-max-mb N  LRU-evict the cache down to N MiB "
        "(default: unbounded)\n"
        "  --snapshot-cache DIR\n"
        "                    persist warmed fork-group snapshots so\n"
        "                    repeat sweeps skip the warm pass entirely\n"
        "                    (run/sweep/serve/worker; default: off)\n"
        "  --snapshot-cache-max-mb N\n"
        "                    LRU-evict the snapshot cache down to N MiB\n",
        argv0);
    return 1;
}

/** The cache flags shared by run, sweep, explore, serve and worker. */
struct CacheFlags
{
    std::string dir = ".dynaspam-cache";
    bool use = true;
    unsigned maxMb = 0;         ///< 0 = no LRU size budget
    std::string snapshotDir;    ///< empty = snapshot cache off
    unsigned snapshotMaxMb = 0; ///< 0 = no LRU size budget

    /** Consume @p flag (and its value) if it is a cache flag. */
    bool
    parse(const std::string &flag, Args &args)
    {
        if (flag == "--cache")
            dir = args.value(flag);
        else if (flag == "--no-cache")
            use = false;
        else if (flag == "--cache-max-mb")
            maxMb = args.uvalue(flag);
        else if (flag == "--snapshot-cache")
            snapshotDir = args.value(flag);
        else if (flag == "--snapshot-cache-max-mb")
            snapshotMaxMb = args.uvalue(flag);
        else
            return false;
        return true;
    }

    /** The result-cache directory; empty under --no-cache. */
    std::string resultDir() const { return use ? dir : std::string(); }

    static std::uint64_t
    bytes(unsigned mb)
    {
        return std::uint64_t(mb) * 1024 * 1024;
    }

    /** Point a worker at these caches. */
    void
    apply(cluster::WorkerOptions &worker) const
    {
        worker.cacheDir = resultDir();
        worker.cacheMaxBytes = bytes(maxMb);
        worker.snapshotCacheDir = snapshotDir;
        worker.snapshotCacheMaxBytes = bytes(snapshotMaxMb);
    }
};

/** The job flags shared by run and trace. */
struct JobFlags
{
    Job job{"", SystemMode::AccelSpec};

    /** Consume @p flag (and its value) if it is a job flag. */
    bool
    parse(const std::string &flag, Args &args)
    {
        if (flag == "--workload")
            job.workload = args.value(flag);
        else if (flag == "--mode")
            job.mode = runner::parseMode(args.value(flag));
        else if (flag == "--trace-length")
            job.traceLength = args.uvalue(flag);
        else if (flag == "--fabrics")
            job.numFabrics = args.uvalue(flag);
        else if (flag == "--scale")
            job.scale = args.uvalue(flag);
        else
            return false;
        return true;
    }

    /** The parsed job, checked against the job schema. */
    const Job &
    checked(const char *command) const
    {
        if (job.workload.empty())
            fatal(command, ": a workload is required (--workload NAME)");
        runner::checkJob(job);
        return job;
    }
};

struct CommonOptions
{
    CacheFlags cache;
    unsigned jobs = 0;          ///< 0 = ThreadPool::defaultWorkers()
    std::string out;
};

/** GC one cache down to @p max_mb after a run; print what it removed. */
template <class Cache>
void
maintainCache(const char *label, const std::string &dir, unsigned max_mb)
{
    if (dir.empty() || !max_mb)
        return;
    runner::CacheGcStats stats = Cache(dir).gc(CacheFlags::bytes(max_mb));
    if (stats.staleEvicted || stats.lruEvicted || stats.tmpRemoved)
        std::printf("%s: %llu stale, %llu lru-evicted, %llu temp "
                    "files removed (%llu -> %llu bytes)\n",
                    label,
                    static_cast<unsigned long long>(stats.staleEvicted),
                    static_cast<unsigned long long>(stats.lruEvicted),
                    static_cast<unsigned long long>(stats.tmpRemoved),
                    static_cast<unsigned long long>(stats.bytesBefore),
                    static_cast<unsigned long long>(stats.bytesAfter));
}

/**
 * Post-run maintenance for run/sweep/explore: GC stale entries and
 * apply the --cache-max-mb / --snapshot-cache-max-mb LRU budgets.
 */
void
maintainCaches(const CacheFlags &flags)
{
    maintainCache<runner::ResultCache>("cache gc", flags.resultDir(),
                                       flags.maxMb);
    maintainCache<runner::SnapshotCache>("snapshot gc", flags.snapshotDir,
                                         flags.snapshotMaxMb);
}

/** Runner options for @p common's thread count and caches. */
runner::RunnerOptions
runnerOptions(const CommonOptions &common)
{
    runner::RunnerOptions opts;
    opts.jobs = common.jobs;
    opts.cacheDir = common.cache.resultDir();
    opts.snapshotCacheDir = common.cache.snapshotDir;
    return opts;
}

int
cmdRun(Args &args)
{
    JobFlags flags;
    CommonOptions common;

    std::string flag;
    while (args.next(flag)) {
        if (flags.parse(flag, args) || common.cache.parse(flag, args))
            continue;
        if (flag == "--warmup-insts")
            flags.job.warmupInsts = args.uvalue(flag);
        else if (flag == "--fidelity")
            flags.job.fidelity = runner::parseFidelity(args.value(flag));
        else if (flag == "--out")
            common.out = args.value(flag);
        else
            fatal("unknown option ", flag);
    }
    const Job &job = flags.checked("run");

    // A SIGINT mid-simulation unlinks any half-written cache entry and
    // exits 128+SIGINT instead of stranding a temp file.
    interrupt::installCleanupSignalHandlers();

    common.jobs = 1;
    runner::Runner r(runnerOptions(common));
    auto outcomes = r.runAll({job});
    maintainCaches(common.cache);
    const runner::JobOutcome &outcome = outcomes.at(0);
    const sim::RunResult &res = outcome.result;

    std::printf("%s @ %s (trace %u, %u fabric%s, scale %u)%s\n",
                job.workload.c_str(), sim::modeName(job.mode),
                job.traceLength, job.numFabrics,
                job.numFabrics == 1 ? "" : "s", job.scale,
                outcome.fromCache ? "  [cached]" : "");
    std::printf("  cycles              %llu\n",
                static_cast<unsigned long long>(res.cycles));
    std::printf("  ipc                 %.3f\n", res.ipc());
    std::printf("  insts total         %llu (host %llu, mapping %llu, "
                "fabric %llu)\n",
                static_cast<unsigned long long>(res.instsTotal),
                static_cast<unsigned long long>(res.instsHost),
                static_cast<unsigned long long>(res.instsMapping),
                static_cast<unsigned long long>(res.instsFabric));
    std::printf("  energy total        %.1f pJ\n", res.energyTotal());
    std::printf("  mapped/offloaded    %llu / %llu traces\n",
                static_cast<unsigned long long>(
                    res.dynaspam.distinctMappedTraces),
                static_cast<unsigned long long>(
                    res.dynaspam.distinctOffloadedTraces));
    if (res.sampled)
        std::printf("  fidelity            sampled (%llu insts / %llu "
                    "cycles detailed, total extrapolated)\n",
                    static_cast<unsigned long long>(res.sampledInsts),
                    static_cast<unsigned long long>(res.sampledCycles));
    std::printf("  functionally correct %s\n",
                res.functionallyCorrect ? "yes" : "NO");

    if (!common.out.empty()) {
        std::ofstream os(common.out);
        if (!os)
            fatal("cannot write ", common.out);
        runner::writeSweepReport(os, "run", outcomes, &r.stats());
        std::printf("report written to %s\n", common.out.c_str());
    }
    return 0;
}

int
cmdSweep(Args &args)
{
    CommonOptions common;
    bool fork_sweeps = true;
    std::string sweep;
    Job params;     ///< the per-job sweep parameters
    std::vector<std::string> names = workloads::allWorkloadNames();

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--figure")
            sweep = "fig" + args.value(flag);
        else if (flag == "--table")
            sweep = "table" + args.value(flag);
        else if (flag == "--ablation")
            sweep = "ablation-" + args.value(flag);
        else if (flag == "--jobs")
            common.jobs = args.uvalue(flag);
        else if (flag == "--out")
            common.out = args.value(flag);
        else if (flag == "--scale")
            params.scale = args.uvalue(flag);
        else if (flag == "--trace-length")
            params.traceLength = args.uvalue(flag);
        else if (flag == "--warmup-insts")
            params.warmupInsts = args.uvalue(flag);
        else if (flag == "--fidelity")
            params.fidelity = runner::parseFidelity(args.value(flag));
        else if (flag == "--no-fork")
            fork_sweeps = false;
        else if (flag == "--workloads")
            names = splitCommas(args.value(flag));
        else if (!common.cache.parse(flag, args))
            fatal("unknown option ", flag);
    }
    if (sweep.empty())
        fatal("sweep: one of --figure, --table or --ablation is required");
    if (common.out.empty())
        common.out = sweep + ".json";

    const std::vector<Job> jobs = runner::namedSweepJobs(
        sweep, names, params.scale, params.traceLength, params.warmupInsts,
        params.fidelity);

    interrupt::installCleanupSignalHandlers();

    runner::RunnerOptions opts = runnerOptions(common);
    opts.forkSweeps = fork_sweeps;
    runner::Runner r(opts);
    auto outcomes = r.runAll(jobs);
    maintainCaches(common.cache);

    std::ofstream os(common.out);
    if (!os)
        fatal("cannot write ", common.out);
    runner::writeSweepReport(os, sweep, outcomes, &r.stats());

    std::printf("%s: %zu jobs on %u worker%s, %llu simulated, "
                "%llu from cache -> %s\n",
                sweep.c_str(), jobs.size(), r.workers(),
                r.workers() == 1 ? "" : "s",
                static_cast<unsigned long long>(
                    r.stats().get("runner.jobs_executed")),
                static_cast<unsigned long long>(
                    r.stats().get("runner.cache_hits")),
                common.out.c_str());
    return 0;
}

int
cmdExplore(Args &args)
{
    CommonOptions common;
    std::string spaceFile;

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--space")
            spaceFile = args.value(flag);
        else if (flag == "--jobs")
            common.jobs = args.uvalue(flag);
        else if (flag == "--out")
            common.out = args.value(flag);
        else if (!common.cache.parse(flag, args))
            fatal("unknown option ", flag);
    }
    if (spaceFile.empty())
        fatal("explore: --space FILE is required");

    std::string text;
    if (spaceFile == "-") {
        std::stringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        std::ifstream is(spaceFile);
        if (!is)
            fatal("cannot read ", spaceFile);
        std::stringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    explore::Space space =
        explore::Space::fromJson(json::Value::parse(text));

    interrupt::installCleanupSignalHandlers();

    runner::Runner r(runnerOptions(common));

    // stdout carries ONLY the engine's NDJSON lines — byte-identical
    // to the body a POST /explore stream delivers, so the two can be
    // diffed directly. Everything human-facing goes to stderr.
    explore::Engine engine(std::move(space));
    auto emit = [](const std::vector<std::string> &lines) {
        for (const std::string &line : lines) {
            std::fputs(line.c_str(), stdout);
            std::fputc('\n', stdout);
        }
        std::fflush(stdout);
    };
    emit(engine.start());
    while (!engine.done()) {
        const std::vector<Job> &batch = engine.nextBatch();
        emit(engine.feed(r.runAll(batch)));
    }
    maintainCaches(common.cache);

    if (!common.out.empty()) {
        std::ofstream os(common.out);
        if (!os)
            fatal("cannot write ", common.out);
        engine.finalReport().write(os, 2);
        os << "\n";
        std::fprintf(stderr, "frontier report written to %s\n",
                     common.out.c_str());
    }
    std::fprintf(stderr,
                 "explore: %zu candidates, %.1f cost units "
                 "(exhaustive grid: %.1f)\n",
                 engine.candidateCount(), engine.costUnits(),
                 engine.gridCostUnits());
    return 0;
}

int
cmdTrace(Args &args)
{
    JobFlags flags;
    trace::TraceSink::Options sink_opts;
    std::string out = "trace.json";

    std::string flag;
    while (args.next(flag)) {
        if (flags.parse(flag, args)) {
            continue;
        } else if (flag == "--cycles") {
            const std::string range = args.value(flag);
            const auto colon = range.find(':');
            if (colon == std::string::npos)
                fatal("--cycles expects A:B, got ", range);
            char *end = nullptr;
            sink_opts.beginCycle =
                std::strtoull(range.c_str(), &end, 10);
            if (!end || *end != ':')
                fatal("bad --cycles begin in ", range);
            sink_opts.endCycle =
                std::strtoull(range.c_str() + colon + 1, &end, 10);
            if (!end || *end)
                fatal("bad --cycles end in ", range);
            if (sink_opts.endCycle < sink_opts.beginCycle)
                fatal("--cycles range is backwards: ", range);
        } else if (flag == "--out") {
            out = args.value(flag);
        } else if (flags.job.workload.empty() && !flag.empty() &&
                   flag[0] != '-') {
            flags.job.workload = flag;    // positional workload
        } else {
            fatal("unknown option ", flag);
        }
    }
    const Job &job = flags.checked("trace");

    // Trace runs are always uncached: a cache hit would skip the
    // simulation and record nothing.
    trace::TraceSink sink(sink_opts);
    sim::RunResult res = runner::execute(job, &sink);
    sink.writeFiles(out);

    // Self-validate: the emitted Chrome JSON must round-trip through
    // the project's own strict JSON parser.
    {
        std::ifstream is(out);
        std::stringstream buf;
        buf << is.rdbuf();
        const json::Value parsed = json::Value::parse(buf.str());
        const auto &events = parsed.at("traceEvents").asArray();
        std::printf("%s @ %s: %llu cycles, %zu instruction events, "
                    "%zu lifecycle marks (%zu JSON events)\n",
                    job.workload.c_str(), sim::modeName(job.mode),
                    static_cast<unsigned long long>(res.cycles),
                    sink.instCount(), sink.markCount(), events.size());
    }
    std::printf("chrome trace written to %s (load in Perfetto or "
                "chrome://tracing)\n", out.c_str());
    std::printf("konata log written to %s.kanata\n", out.c_str());
    return 0;
}

/** --cluster-token fallback: the environment, so the secret need not
 *  appear in process listings. */
std::string
envClusterToken()
{
    const char *env = std::getenv("DYNASPAM_CLUSTER_TOKEN");
    return env ? std::string(env) : std::string();
}

int
cmdCoordinator(Args &args)
{
    cluster::CoordinatorOptions opts;
    opts.clusterToken = envClusterToken();

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--port")
            opts.httpPort = args.uvalue(flag);
        else if (flag == "--worker-port")
            opts.workerPort = args.uvalue(flag);
        else if (flag == "--bind")
            opts.bindAddress = args.value(flag);
        else if (flag == "--workers")
            opts.workerSlots = args.uvalue(flag);
        else if (flag == "--queue-capacity")
            opts.queueCapacity = args.uvalue(flag);
        else if (flag == "--timeout-ms")
            opts.requestTimeoutMs = args.uvalue(flag);
        else if (flag == "--cluster-token")
            opts.clusterToken = args.value(flag);
        else
            fatal("unknown option ", flag);
    }
    if (opts.httpPort > 65535 || opts.workerPort > 65535)
        fatal("coordinator: ports must be <= 65535");
    if (opts.workerSlots == 0)
        fatal("coordinator: --workers must be >= 1");

    cluster::Coordinator coordinator(std::move(opts));
    return coordinator.serveForever();
}

int
cmdWorker(Args &args)
{
    cluster::WorkerOptions opts;
    opts.clusterToken = envClusterToken();
    // One shard of a fleet: DYNASPAM_JOBS threads, one by default, so
    // N workers sharing a host do not each claim every core.
    opts.threads = runner::ThreadPool::defaultWorkers(1);
    CacheFlags caches;

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--cluster-token") {
            opts.clusterToken = args.value(flag);
        } else if (flag == "--connect") {
            const std::string endpoint = args.value(flag);
            const auto colon = endpoint.rfind(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= endpoint.size())
                fatal("--connect expects HOST:PORT, got ", endpoint);
            opts.connectHost = endpoint.substr(0, colon);
            char *end = nullptr;
            long port = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
            if (!end || *end || port <= 0 || port > 65535)
                fatal("bad port in --connect ", endpoint);
            opts.connectPort = unsigned(port);
        } else if (!caches.parse(flag, args)) {
            fatal("unknown option ", flag);
        }
    }
    caches.apply(opts);

    cluster::Worker worker(std::move(opts));
    return worker.run();
}

int
cmdServe(Args &args)
{
    // One worker slot, held by an in-process worker: the coordinator's
    // front end with serve's knobs, and no worker port.
    cluster::CoordinatorOptions opts;
    opts.workerSlots = 1;
    opts.queueCapacity = 64;
    cluster::WorkerOptions worker;
    worker.verbose = false;
    CacheFlags caches;

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--port")
            opts.httpPort = args.uvalue(flag);
        else if (flag == "--bind")
            opts.bindAddress = args.value(flag);
        else if (flag == "--jobs")
            worker.threads = args.uvalue(flag);
        else if (flag == "--queue-capacity")
            opts.queueCapacity = args.uvalue(flag);
        else if (flag == "--timeout-ms")
            opts.requestTimeoutMs = args.uvalue(flag);
        else if (flag == "--warmup-insts")
            opts.defaultWarmupInsts = args.uvalue(flag);
        else if (!caches.parse(flag, args))
            fatal("unknown option ", flag);
    }
    caches.apply(worker);
    if (opts.httpPort > 65535)
        fatal("serve: --port must be <= 65535");
    opts.localWorker = std::move(worker);

    cluster::Coordinator coordinator(std::move(opts));
    return coordinator.serveForever();
}

int
cmdCheckSelftest()
{
    return check::runSelfTest(std::cout) ? 0 : 1;
}

int
cmdList()
{
    std::printf("workloads:");
    for (const std::string &name : workloads::allWorkloadNames())
        std::printf(" %s", name.c_str());
    std::printf("\nmodes:     ");
    for (SystemMode mode :
         {SystemMode::BaselineOoo, SystemMode::MappingOnly,
          SystemMode::AccelNoSpec, SystemMode::AccelSpec,
          SystemMode::AccelNaive})
        std::printf(" %s", sim::modeName(mode));
    std::printf("\nsweeps:     --figure 7 | --figure 8 | --figure 9 | "
                "--table 5 | --ablation mapper\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string command = argv[1];
    Args args(argc - 2, argv + 2);
    try {
        if (command == "run")
            return cmdRun(args);
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "explore")
            return cmdExplore(args);
        if (command == "trace")
            return cmdTrace(args);
        if (command == "serve")
            return cmdServe(args);
        if (command == "coordinator")
            return cmdCoordinator(args);
        if (command == "worker")
            return cmdWorker(args);
        if (command == "list")
            return cmdList();
        if (command == "check-selftest")
            return cmdCheckSelftest();
        if (command == "--help" || command == "-h" || command == "help")
            return usage(argv[0]);
        std::fprintf(stderr, "unknown command \"%s\"\n", command.c_str());
        return usage(argv[0]);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }
}
