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
 * more than --tolerance (default 0.25) below the checked-in report —
 * the serving-path analogue of bench_simspeed's KIPS gate.
 *
 * Report schema: see EXPERIMENTS.md ("Serving-path benchmark").
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
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

#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/json.hh"
#include "common/logging.hh"

using namespace dynaspam;

namespace fs = std::filesystem;

namespace
{

/** The repeated (cached-after-priming) sweep body: 4 cheap jobs. */
const char *kCachedBody =
    "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
    " \"trace_length\": 16}";

/** Fresh unique directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<unsigned> next{0};
        path_ = (fs::temp_directory_path() /
                 ("dynaspam-bench-serve-" + tag + "-" +
                  std::to_string(getpid()) + "-" +
                  std::to_string(next++)))
                    .string();
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

/**
 * Read exactly one HTTP response (headers + Content-Length body)
 * without waiting for EOF, so it works on keep-alive connections.
 * @return the status code, or 0 on a broken connection
 */
int
readStatus(int fd)
{
    std::string raw;
    char chunk[8192];
    std::size_t head_end = std::string::npos;
    while ((head_end = raw.find("\r\n\r\n")) == std::string::npos) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return 0;
        raw.append(chunk, std::size_t(n));
    }
    int status = 0;
    std::sscanf(raw.c_str(), "HTTP/1.1 %d", &status);

    std::size_t body_len = 0;
    const std::string headers = raw.substr(0, head_end);
    std::size_t cl = headers.find("Content-Length:");
    if (cl != std::string::npos)
        body_len = std::stoul(headers.substr(cl + 15));
    std::size_t have = raw.size() - head_end - 4;
    while (have < body_len) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return 0;
        have += std::size_t(n);
    }
    return status;
}

std::string
requestWire(const std::string &method, const std::string &target,
            const std::string &body)
{
    std::ostringstream os;
    os << method << ' ' << target << " HTTP/1.1\r\n"
       << "Host: 127.0.0.1\r\n"
       << "Connection: keep-alive\r\n"
       << "Content-Length: " << body.size() << "\r\n\r\n"
       << body;
    return os.str();
}

/** A unique /run spec: num_fabrics varies the FNV-1a hash, not the
 *  baseline-ooo simulation cost, so every miss costs about the same. */
std::string
uncachedWire(unsigned seq)
{
    std::ostringstream body;
    body << "{\"workload\": \"bfs\", \"mode\": \"baseline-ooo\","
         << " \"trace_length\": " << 16 + seq / 64
         << ", \"num_fabrics\": " << 1 + seq % 64 << "}";
    return requestWire("POST", "/run", body.str());
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
        int fd = connectTo(port);
        std::size_t i;
        while ((i = next.fetch_add(1)) < schedule.size()) {
            if (fd < 0)
                fd = connectTo(port);
            if (fd < 0) {
                non200++;
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            int status =
                sendAllBytes(fd, schedule[i]) ? readStatus(fd) : 0;
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
    int fd = connectTo(port);
    if (fd < 0)
        return false;
    bool ok = sendAllBytes(
                  fd, requestWire("POST", "/sweep", kCachedBody)) &&
              readStatus(fd) == 200;
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
        requestWire("POST", "/sweep", kCachedBody);
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

} // namespace

int
main(int argc, char **argv)
{
    unsigned requests = 400;
    unsigned connections = 4;
    unsigned workers = 4;
    unsigned cached_pct = 90;
    double tolerance = 0.25;
    std::string out = "BENCH_serve.json";
    std::string baseline;

    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing value for ", flag);
            return argv[i];
        };
        if (flag == "--requests")
            requests = unsigned(std::stoul(value()));
        else if (flag == "--connections")
            connections = unsigned(std::stoul(value()));
        else if (flag == "--workers")
            workers = unsigned(std::stoul(value()));
        else if (flag == "--cached-pct")
            cached_pct = unsigned(std::stoul(value()));
        else if (flag == "--out")
            out = value();
        else if (flag == "--baseline")
            baseline = value();
        else if (flag == "--tolerance")
            tolerance = std::stod(value());
        else
            return usage();
    }
    if (requests == 0 || connections == 0 || workers == 0 ||
        cached_pct > 100)
        return usage();

    const std::vector<std::string> schedule =
        buildSchedule(requests, cached_pct);
    std::printf("serve: %u requests (%u%% cached), %u connections, "
                "%u-worker cluster\n",
                requests, cached_pct, connections, workers);

    // --- dynaspam serve: one in-process worker --------------------------
    json::Value single_row;
    {
        TempDir cache("single");
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
        TempDir cache("cluster");
        cluster::CoordinatorOptions copts;
        copts.httpPort = 0;
        copts.workerPort = 0;
        copts.workerSlots = workers;
        copts.verbose = false;
        cluster::Coordinator coordinator(copts);
        coordinator.start();

        std::vector<std::unique_ptr<cluster::Worker>> fleet;
        std::vector<std::thread> fleet_threads;
        for (unsigned w = 0; w < workers; w++) {
            cluster::WorkerOptions wopts;
            wopts.connectPort = coordinator.workerPort();
            wopts.cacheDir = cache.path() + "/worker-" +
                             std::to_string(w);
            wopts.verbose = false;
            fleet.push_back(
                std::make_unique<cluster::Worker>(wopts));
            fleet_threads.emplace_back(
                [worker = fleet.back().get()] { worker->run(); });
        }
        for (unsigned waited = 0; waited < 10000; waited++) {
            if (coordinator.metrics().value(
                    "dynaspam_cluster_workers_connected") == workers)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        if (!prime(coordinator.httpPort()))
            fatal("cluster priming request failed");
        cluster_row = loadToJson(
            runLoad(coordinator.httpPort(), schedule, connections));
        coordinator.beginDrain();
        coordinator.waitUntilDrained();
        for (std::thread &t : fleet_threads)
            t.join();
    }
    printRow("cluster", cluster_row);

    const double ratio =
        single_row.at("rps").asDouble() > 0.0
            ? cluster_row.at("rps").asDouble() /
                  single_row.at("rps").asDouble()
            : 0.0;
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
    const json::Value report{std::move(report_obj)};

    {
        std::ofstream os(out);
        if (!os)
            fatal("cannot write ", out);
        report.write(os, 2);
        os << "\n";
    }
    std::printf("report written to %s\n", out.c_str());

    if (baseline.empty())
        return 0;

    // --- Regression gate against the checked-in baseline ---------------
    std::ifstream is(baseline);
    if (!is)
        fatal("cannot read baseline ", baseline);
    std::stringstream buf;
    buf << is.rdbuf();
    const json::Value base = json::Value::parse(buf.str());

    int failed = 0;
    for (const char *config : {"single", "cluster"}) {
        const double base_rps =
            base.at("configs").at(config).at("rps").asDouble();
        // A non-positive baseline would gate against nothing; fail
        // loudly instead (same policy as bench_simspeed).
        if (!(base_rps > 0.0))
            fatal("baseline ", baseline, " has non-positive ", config,
                  " rps ", base_rps, " — regenerate it");
        const double cur_rps =
            report.at("configs").at(config).at("rps").asDouble();
        const double floor = base_rps * (1.0 - tolerance);
        const bool ok = cur_rps >= floor;
        std::printf("gate: %-8s %8.1f rps vs baseline %8.1f "
                    "(floor %8.1f, tol %.0f%%)  %s\n",
                    config, cur_rps, base_rps, floor, tolerance * 100.0,
                    ok ? "ok" : "REGRESSION");
        if (!ok)
            failed = 1;
    }
    return failed;
}
