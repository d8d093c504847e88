/**
 * @file
 * Serving-path benchmark: sustained RPS and latency percentiles of the
 * HTTP simulation service under mixed cached/uncached traffic, for
 * `dynaspam serve` (the coordinator with one in-process worker) and a
 * coordinator with W workers side by side.
 *
 *   bench_serve [--requests N] [--connections C] [--workers W]
 *               [--cached-pct P] [--out FILE] [--baseline FILE]
 *               [--tolerance FRAC]
 *
 * Traffic: a deterministic schedule of N requests, P% of which are a
 * repeated POST /sweep (fig8/bfs, trace 16 — 4 jobs, warm after one
 * priming pass) and the rest unique POST /run specs that must simulate.
 * C client threads each hold one keep-alive connection and pull the
 * next request index from a shared counter, so both modes face the
 * same concurrency and the TCP handshake is paid once per connection,
 * not per request. Latency is wall time from first request byte to
 * last response byte; RPS counts the whole timed phase.
 *
 * Both modes run in-process on ephemeral ports with fresh cache
 * directories, so neither inherits a warm disk cache. The "single"
 * mode is exactly what `dynaspam serve` builds; the cluster mode starts
 * one coordinator and W worker threads (the same code paths as
 * `dynaspam coordinator` / `dynaspam worker`, minus the process
 * boundary).
 *
 * With --baseline, the run fails (exit 1) if either mode's RPS drops
 * more than --tolerance (default 0.25, in [0, 1)) below the checked-in
 * report — the serving-path analogue of bench_simspeed's KIPS gate.
 * Bad usage or an unreadable baseline exits 2 (see bench_util.hh).
 *
 * Report schema: see EXPERIMENTS.md ("Serving-path benchmark").
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/json.hh"
#include "tests/support.hh"

using namespace dynaspam;

namespace
{

/** The repeated (cached-after-priming) sweep body: 4 cheap jobs. */
const char *kCachedBody =
    "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
    " \"trace_length\": 16}";

/** A unique /run spec: num_fabrics varies the FNV-1a hash, not the
 *  baseline-ooo simulation cost, so every miss costs about the same. */
std::string
uncachedWire(unsigned seq)
{
    std::ostringstream body;
    body << "{\"workload\": \"bfs\", \"mode\": \"baseline-ooo\","
         << " \"trace_length\": " << 16 + seq / 64
         << ", \"num_fabrics\": " << 1 + seq % 64 << "}";
    return tests::requestWire("POST", "/run", body.str());
}

/** Outcome of one timed load phase. */
struct LoadResult
{
    double wallSeconds = 0.0;
    std::vector<double> latencyMs;    ///< per request, unsorted
    unsigned non200 = 0;

    double rps() const
    {
        return wallSeconds > 0.0 ? double(latencyMs.size()) / wallSeconds
                                 : 0.0;
    }
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t idx = std::size_t(q * double(sorted.size()));
    return sorted[std::min(idx, sorted.size() - 1)];
}

/**
 * Drive @p schedule against @p port from @p connections keep-alive
 * client threads. Each thread owns one connection and pulls the next
 * request from a shared counter until the schedule is exhausted.
 */
LoadResult
runLoad(unsigned port, const std::vector<std::string> &schedule,
        unsigned connections)
{
    LoadResult result;
    result.latencyMs.assign(schedule.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> non200{0};

    auto client = [&] {
        int fd = tests::connectTo(port);
        std::size_t i;
        while ((i = next.fetch_add(1)) < schedule.size()) {
            if (fd < 0)
                fd = tests::connectTo(port);
            if (fd < 0) {
                non200++;
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const int status = tests::sendRaw(fd, schedule[i])
                                   ? tests::readReply(fd).status
                                   : 0;
            const auto t1 = std::chrono::steady_clock::now();
            result.latencyMs[i] =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            if (status != 200) {
                non200++;
                ::close(fd);   // resync: reconnect before the next one
                fd = -1;
            }
        }
        if (fd >= 0)
            ::close(fd);
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; c++)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();
    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    result.non200 = non200.load();
    return result;
}

/** Prime the caches: one /sweep pass so kCachedBody is warm. */
bool
prime(unsigned port)
{
    int fd = tests::connectTo(port);
    if (fd < 0)
        return false;
    bool ok = tests::sendRaw(
                  fd, tests::requestWire("POST", "/sweep", kCachedBody)) &&
              tests::readReply(fd).status == 200;
    ::close(fd);
    return ok;
}

/** The mixed schedule: every k-th request is a unique uncached /run. */
std::vector<std::string>
buildSchedule(unsigned requests, unsigned cached_pct)
{
    std::vector<std::string> schedule;
    schedule.reserve(requests);
    const std::string cached =
        tests::requestWire("POST", "/sweep", kCachedBody);
    unsigned misses = 0;
    for (unsigned i = 0; i < requests; i++) {
        // i * miss_rate crosses an integer boundary -> schedule a miss.
        const unsigned miss_pct = 100 - cached_pct;
        if ((i * miss_pct) / 100 != ((i + 1) * miss_pct) / 100)
            schedule.push_back(uncachedWire(misses++));
        else
            schedule.push_back(cached);
    }
    return schedule;
}

json::Value
loadToJson(const LoadResult &load)
{
    std::vector<double> sorted = load.latencyMs;
    std::sort(sorted.begin(), sorted.end());
    json::Object o;
    o["requests"] = std::uint64_t(load.latencyMs.size());
    o["seconds"] = load.wallSeconds;
    o["rps"] = load.rps();
    o["p50_ms"] = percentile(sorted, 0.50);
    o["p99_ms"] = percentile(sorted, 0.99);
    o["p999_ms"] = percentile(sorted, 0.999);
    o["non_200"] = std::uint64_t(load.non200);
    return o;
}

void
printRow(const char *name, const json::Value &row)
{
    std::printf("%-8s %8.1f rps %9.2f p50 %9.2f p99 %9.2f p999 %6llu "
                "non-200\n",
                name, row.at("rps").asDouble(),
                row.at("p50_ms").asDouble(), row.at("p99_ms").asDouble(),
                row.at("p999_ms").asDouble(),
                static_cast<unsigned long long>(
                    row.at("non_200").asUint()));
}

int
usage()
{
    std::fprintf(stderr,
        "usage: bench_serve [--requests N] [--connections C]\n"
        "                   [--workers W] [--cached-pct P]\n"
        "                   [--out FILE] [--baseline FILE]\n"
        "                   [--tolerance FRAC]\n");
    return 2;
}

int
run(apps::Args &args)
{
    unsigned requests = 400;
    unsigned connections = 4;
    unsigned workers = 4;
    unsigned cached_pct = 90;
    double tolerance = 0.25;
    std::string out = "BENCH_serve.json";
    std::string baseline;

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--requests")
            requests = args.uvalue(flag);
        else if (flag == "--connections")
            connections = args.uvalue(flag);
        else if (flag == "--workers")
            workers = args.uvalue(flag);
        else if (flag == "--cached-pct")
            cached_pct = args.uvalue(flag);
        else if (flag == "--out")
            out = args.value(flag);
        else if (flag == "--baseline")
            baseline = args.value(flag);
        else if (flag == "--tolerance")
            tolerance = args.dvalue(flag);
        else
            return usage();
    }
    if (requests == 0 || connections == 0 || workers == 0 ||
        cached_pct > 100)
        return usage();
    bench::Gates gates(baseline, tolerance, bench::Better::Higher);

    const std::vector<std::string> schedule =
        buildSchedule(requests, cached_pct);
    std::printf("serve: %u requests (%u%% cached), %u connections, "
                "%u-worker cluster\n",
                requests, cached_pct, connections, workers);

    // --- dynaspam serve: one in-process worker --------------------------
    json::Value single_row;
    {
        tests::TempDir cache("bench-serve-single");
        cluster::CoordinatorOptions opts;
        opts.httpPort = 0;
        opts.workerSlots = 1;
        opts.queueCapacity = 64;
        opts.verbose = false;
        cluster::WorkerOptions worker;
        worker.cacheDir = cache.path();
        worker.verbose = false;
        opts.localWorker = worker;
        cluster::Coordinator server(opts);
        server.start();
        if (!prime(server.httpPort()))
            fatal("single-process priming request failed");
        single_row = loadToJson(
            runLoad(server.httpPort(), schedule, connections));
        server.beginDrain();
        server.waitUntilDrained();
    }
    printRow("single", single_row);

    // --- Coordinator + W workers ---------------------------------------
    json::Value cluster_row;
    {
        tests::TempDir cache("bench-serve-cluster");
        cluster::CoordinatorOptions copts;
        copts.httpPort = 0;
        copts.workerPort = 0;
        copts.workerSlots = workers;
        copts.verbose = false;
        cluster::Coordinator coordinator(copts);
        coordinator.start();

        std::vector<std::unique_ptr<cluster::Worker>> fleet;
        std::vector<std::unique_ptr<tests::WorkerThread>> fleet_threads;
        for (unsigned w = 0; w < workers; w++) {
            cluster::WorkerOptions wopts;
            wopts.connectPort = coordinator.workerPort();
            wopts.cacheDir = cache.path() + "/worker-" +
                             std::to_string(w);
            wopts.verbose = false;
            fleet.push_back(
                std::make_unique<cluster::Worker>(wopts));
            fleet_threads.push_back(
                std::make_unique<tests::WorkerThread>(*fleet.back()));
        }
        if (!tests::eventually([&] {
                return coordinator.metrics().value(
                           "dynaspam_cluster_workers_connected") == workers;
            }))
            fatal("the cluster workers did not connect");

        if (!prime(coordinator.httpPort()))
            fatal("cluster priming request failed");
        cluster_row = loadToJson(
            runLoad(coordinator.httpPort(), schedule, connections));
        coordinator.beginDrain();
        coordinator.waitUntilDrained();
        for (const std::unique_ptr<tests::WorkerThread> &t : fleet_threads)
            t->join();
    }
    printRow("cluster", cluster_row);

    const double single_rps = single_row.at("rps").asDouble();
    const double cluster_rps = cluster_row.at("rps").asDouble();
    const double ratio = single_rps > 0.0 ? cluster_rps / single_rps : 0.0;
    std::printf("cluster/single RPS ratio: %.2fx\n", ratio);

    json::Object report_obj;
    report_obj["schema_version"] = 1u;
    report_obj["name"] = "serve";
    report_obj["requests"] = requests;
    report_obj["connections"] = connections;
    report_obj["workers"] = workers;
    report_obj["cached_pct"] = cached_pct;
    json::Object configs;
    configs["single"] = std::move(single_row);
    configs["cluster"] = std::move(cluster_row);
    report_obj["configs"] = std::move(configs);
    report_obj["cluster_vs_single_rps"] = ratio;
    bench::writeReport(out, json::Value{std::move(report_obj)});

    if (!gates.hasBaseline())
        return 0;
    for (const auto &[config, rps] :
         {std::pair{"single", single_rps},
          std::pair{"cluster", cluster_rps}}) {
        char label[32];
        std::snprintf(label, sizeof(label), "%-8s", config);
        gates.vsBaseline(label, rps,
                         gates.baselineValue({"configs", config, "rps"}),
                         {8, 1}, " rps");
    }
    return gates.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
