/**
 * @file
 * serve-mixed and cluster-mixed: a closed loop over two keep-alive
 * connections, each sending its next request from the seeded schedule
 * only when the previous one has answered. Ninety percent of requests
 * repeat a primed hot-set /sweep body (cache hits: HTTP front end, JSON,
 * job table, report rendering or fragment splicing); ten percent are
 * unique /run specs that simulate and store.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cluster/wire.hh"
#include "common/json.hh"
#include "http_client.hh"
#include "process.hh"
#include "schedule.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
namespace json = dynaspam::json;

/** Client connections (and client threads) of the closed loop. */
constexpr unsigned kConnections = 2;

/** Requests per wall-time block (wall_s is the median block). */
constexpr std::size_t kWallBlock = 250;

/** Seconds a process gets to become ready. */
constexpr double kReadyTimeout = 60.0;

/** Set-ups per run: each spawns, readies and primes a fresh fleet. */
constexpr unsigned kSetupReps = 5;

/** Encode/decode repetitions over the hot-set fragments. */
constexpr unsigned kWireReps = 20;

/** Server processes of one serving workload. */
struct Fleet
{
    std::vector<std::unique_ptr<Child>> procs;
    unsigned port = 0;

    double
    peakRssMb() const
    {
        double sum = 0.0;
        for (const auto &p : procs)
            sum += p->peakRssMb();
        return sum;
    }

    /** Stop every process; @return true when all drained and exited 0. */
    bool
    stop()
    {
        bool clean = true;
        // The server (or coordinator) first: a coordinator's drain says
        // goodbye to its workers, which then exit by themselves.
        for (std::size_t i = 0; i < procs.size(); i++) {
            if (i > 0)
                procs[i]->waitExit(kReadyTimeout / 10);
            clean = procs[i]->stop() == 0 && clean;
        }
        procs.clear();
        return clean;
    }
};

/** Poll GET @p target until @p ready accepts the body. */
void
waitUntil(Fleet &fleet, const std::string &target,
          const std::function<bool(const std::string &)> &ready)
{
    const auto deadline = secondsFromNow(kReadyTimeout);
    std::string body;
    while (Clock::now() < deadline) {
        if (httpGet(fleet.port, target, body) == 200 && ready(body))
            return;
        for (const auto &p : fleet.procs)
            if (!p->running())
                throw std::runtime_error("a server process exited early");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("server not ready: GET " + target);
}

Fleet
startFleet(const RunConfig &cfg, bool cluster, const std::string &dir)
{
    fs::create_directories(dir);
    const std::string &bin = cfg.dynaspamBin;
    Fleet fleet;
    fleet.port = freePort();
    if (!cluster) {
        fleet.procs.push_back(std::make_unique<Child>(
            std::vector<std::string>{bin, "serve", "--port",
                                     std::to_string(fleet.port), "--jobs", "2",
                                     "--cache", dir + "/cache"},
            std::vector<std::string>{}, dir + "/serve.log"));
    } else {
        const std::string workerPort = std::to_string(freePort());
        fleet.procs.push_back(std::make_unique<Child>(
            std::vector<std::string>{bin, "coordinator", "--port",
                                     std::to_string(fleet.port),
                                     "--worker-port", workerPort, "--workers",
                                     "2"},
            std::vector<std::string>{}, dir + "/coordinator.log"));
        // Workers that find no coordinator back off before retrying, so
        // start them only once it answers.
        waitUntil(fleet, "/healthz", [](const std::string &) { return true; });
        for (unsigned w = 0; w < 2; w++) {
            const std::string tag = "worker-" + std::to_string(w);
            fleet.procs.push_back(std::make_unique<Child>(
                std::vector<std::string>{bin, "worker", "--connect",
                                         "127.0.0.1:" + workerPort, "--cache",
                                         dir + "/" + tag},
                std::vector<std::string>{"DYNASPAM_JOBS=1"},
                dir + "/" + tag + ".log"));
        }
        waitUntil(fleet, "/metrics", [](const std::string &text) {
            return prometheusSum(text, "dynaspam_cluster_workers_connected") >=
                   2;
        });
    }
    waitUntil(fleet, "/healthz", [](const std::string &) { return true; });
    return fleet;
}

/** Every results[] entry of a sweep report is functionally correct;
 *  adds the simulated instructions to @p insts. */
bool
reportCorrect(const std::string &body, std::uint64_t *insts)
{
    try {
        const json::Value report = json::Value::parse(body);
        const auto &results = report.at("results").asArray();
        bool ok = !results.empty();
        for (const json::Value &entry : results) {
            const json::Value &r = entry.at("result");
            ok = ok && r.at("functionally_correct").asBool();
            if (insts)
                *insts += r.at("insts").at("total").asUint();
        }
        return ok;
    } catch (const std::exception &) {
        return false;
    }
}

/** Send every hot body once, over both connections. */
void
prime(unsigned port, const ServeSchedule &sched, Ledger &ledger)
{
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; c++) {
        threads.emplace_back([&, c] {
            HttpConnection conn(port);
            std::string resp;
            for (std::size_t h = c; h < sched.hotBodies.size(); h += kConnections) {
                const int status =
                    conn.exchange("POST", "/sweep", sched.hotBodies[h], resp);
                checkResponse(ledger, status,
                              status == 200 && reportCorrect(resp, nullptr),
                              "priming /sweep " + sched.hotBodies[h]);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/** One finished request. */
struct Sample
{
    bool done = false;
    bool hit = false;
    bool traced = false;
    double startS = 0.0, endS = 0.0;    ///< from the load phase's start
    double latencyMs = 0.0;
    std::size_t bytes = 0;
    std::uint64_t insts = 0;
};

/** First hit response per hot body: later hits must match it. */
class HitReferences
{
  public:
    explicit HitReferences(std::size_t n) : bodies(n) {}

    bool
    check(unsigned hot, const std::string &body)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!bodies[hot]) {
            bodies[hot] = body;
            return reportCorrect(body, nullptr);
        }
        return *bodies[hot] == body;
    }

    std::vector<std::optional<std::string>>
    all() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return bodies;
    }

  private:
    mutable std::mutex mutex;
    std::vector<std::optional<std::string>> bodies;
};

/** Time cluster::encodeResultRaw/decodeResultRaw on the hot-set
 *  fragments; check they round-trip. */
void
measureWire(Tracer &tracer, const HitReferences &refs, RunOutput &out)
{
    std::vector<std::vector<dynaspam::cluster::RawEntry>> batches;
    for (const auto &body : refs.all()) {
        if (!body)
            continue;
        std::vector<dynaspam::cluster::RawEntry> entries;
        const json::Value report = json::Value::parse(*body);
        for (const json::Value &e : report.at("results").asArray())
            entries.push_back(dynaspam::cluster::RawEntry{
                e.at("from_cache").asBool(),
                e.dumpAt(dynaspam::cluster::kReportIndent,
                         dynaspam::cluster::kEntryFragmentDepth)});
        batches.push_back(std::move(entries));
    }
    double bytes = 0.0;
    std::vector<std::uint64_t> roots;
    for (unsigned rep = 0; rep < kWireReps; rep++) {
        auto root = tracer.root("wire.hot_set");
        roots.push_back(root.trace());
        for (std::size_t b = 0; b < batches.size(); b++) {
            std::string payload;
            {
                auto s = tracer.span("wire.encode");
                payload = dynaspam::cluster::encodeResultRaw(b, batches[b]);
            }
            std::uint64_t id = 0;
            std::vector<dynaspam::cluster::RawEntry> decoded;
            bool ok;
            {
                auto s = tracer.span("wire.decode");
                ok = dynaspam::cluster::decodeResultRaw(payload, id, decoded);
            }
            ok = ok && id == b && decoded.size() == batches[b].size();
            for (std::size_t i = 0; ok && i < decoded.size(); i++)
                ok = decoded[i].fragment == batches[b][i].fragment &&
                     decoded[i].fromCache == batches[b][i].fromCache;
            out.ledger.record(ok, "wire round trip of hot-set fragments");
            if (rep == 0)
                bytes += double(payload.size());
        }
    }
    std::vector<Span> spans;
    for (const Span &s : tracer.spans())
        if (std::find(roots.begin(), roots.end(), s.trace) != roots.end())
            spans.push_back(s);
    const auto totals = layerTotals(spans);
    auto perPass = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfSeconds / kWireReps;
    };
    out.set("wire.encode_s", perPass("wire.encode"));
    out.set("wire.decode_s", perPass("wire.decode"));
    out.set("wire.bytes", bytes);
}

} // namespace

void
runServing(const RunConfig &cfg, bool cluster, Tracer &tracer, RunOutput &out)
{
    const ServeSchedule sched = makeServeSchedule(cfg.seed);

    // Set-up: processes spawned, /healthz answering, workers connected,
    // hot set primed. The last fleet stays up for the measurement.
    std::vector<double> setupTimes;
    Fleet fleet;
    for (unsigned k = 0; k < kSetupReps; k++) {
        if (!fleet.stop())
            out.ledger.record(false, "server did not drain cleanly");
        const std::string dir = cfg.workDir + "/fleet-" + std::to_string(k);
        const auto t0 = Clock::now();
        fleet = startFleet(cfg, cluster, dir);
        prime(fleet.port, sched, out.ledger);
        setupTimes.push_back(secondsSince(t0));
    }

    std::vector<Sample> samples(sched.requests.size());
    std::atomic<std::size_t> next{0};
    HitReferences refs(sched.hotBodies.size());
    const auto start = Clock::now();
    const auto deadline = secondsFromNow(cfg.seconds);
    auto client = [&] {
        HttpConnection conn(fleet.port);
        std::string resp;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= sched.requests.size() || Clock::now() >= deadline)
                return;
            const Request &r = sched.requests[i];
            Sample &s = samples[i];
            s.hit = r.hit;
            s.traced = cfg.trace && (i / kWallBlock) % 2 == 1;
            std::optional<Tracer::Scope> span;
            if (s.traced) {
                span.emplace(tracer.root("http.request"));
                auto p = tracer.span("json.parse");
                const json::Value parsed = json::Value::parse(r.body);
            }
            const auto t0 = Clock::now();
            const int status = conn.exchange("POST", r.target, r.body, resp);
            const auto t1 = Clock::now();
            span.reset();
            s.startS = std::chrono::duration<double>(t0 - start).count();
            s.endS = std::chrono::duration<double>(t1 - start).count();
            s.latencyMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
            s.bytes = resp.size();
            const bool bodyOk =
                status == 200 && (r.hit ? refs.check(r.hot, resp)
                                        : reportCorrect(resp, &s.insts));
            checkResponse(out.ledger, status, bodyOk, r.target + " " + r.body);
            s.done = true;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; c++)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
    const double window = secondsSince(start);

    std::vector<double> all, hits, misses, walls, tracedWalls;
    double bytes = 0.0, insts = 0.0;
    std::size_t done = 0;
    for (std::size_t b = 0; b * kWallBlock < samples.size(); b++) {
        double lo = 1e300, hi = 0.0;
        bool complete = true, traced = false;
        for (std::size_t i = b * kWallBlock;
             i < std::min(samples.size(), (b + 1) * kWallBlock); i++) {
            const Sample &s = samples[i];
            if (!s.done) {
                complete = false;
                continue;
            }
            done++;
            all.push_back(s.latencyMs);
            (s.hit ? hits : misses).push_back(s.latencyMs);
            bytes += double(s.bytes);
            insts += double(s.insts);
            lo = std::min(lo, s.startS);
            hi = std::max(hi, s.endS);
            traced = s.traced;
        }
        if (complete)
            (traced ? tracedWalls : walls).push_back(hi - lo);
    }
    if (next.load() >= sched.requests.size())
        out.info["schedule"] = "exhausted before the deadline";

    std::string metrics;
    httpGet(fleet.port, "/metrics", metrics);
    out.set("peak_rss_mb", fleet.peakRssMb());

    out.set("setup_s", median(setupTimes));
    out.set("wall_s", median(walls));
    out.set("sim_kips", insts / window / 1e3);
    out.set("rps", double(done) / window);
    out.set("latency_p50_ms", median(all));
    const Tail tail = tailPercentile(all, 0.99);
    out.set("latency_p99_ms", tail.value);

    out.set("http.hit_p50_ms", median(hits));
    const Tail hitTail = tailPercentile(hits, 0.99);
    const Tail missTail = tailPercentile(misses, 0.90);
    out.set("http.hit_p99_ms", hitTail.value);
    out.set("http.miss_p50_ms", median(misses));
    out.set("http.miss_p90_ms", missTail.value);
    out.set("http.response_bytes", done ? bytes / double(done) : 0.0);
    out.set("serve.cache_hit_ratio",
            prometheusSum(metrics, "dynaspam_cache_hit_ratio"));
    out.set("serve.hot_set_jobs", sched.hotJobs);
    out.set("cluster.batch_retries_total",
            prometheusSum(metrics, "dynaspam_cluster_batch_retries_total"));
    out.ledger.record(
        prometheusSum(metrics, "dynaspam_cluster_batch_retries_total") == 0,
        "cluster batches were retried");

    out.info["requests"] = std::to_string(done) + " (" +
                           std::to_string(misses.size()) + " misses)";
    out.info["latency_p99_ms"] = tailLabel(tail, all.size(), "requests");
    out.info["http.hit_p99_ms"] = tailLabel(hitTail, hits.size(), "hits");
    out.info["http.miss_p90_ms"] = tailLabel(missTail, misses.size(), "misses");
    out.info["hot_set"] =
        std::to_string(sched.hotBodies.size()) + " /sweep bodies, " +
        std::to_string(sched.hotJobs) +
        " jobs: fits the smallest in-memory tier (1024 retained jobs)";
    out.info["hit_digest"] = [&] {
        std::string concat;
        for (const auto &body : refs.all())
            concat += body.value_or("");
        return digestHex(concat);
    }();

    if (cfg.trace) {
        std::vector<Span> requestSpans;
        for (const Span &s : tracer.spans())
            if (s.name == "json.parse")
                requestSpans.push_back(s);
        const auto totals = layerTotals(requestSpans);
        const auto &parse = totals.find("json.parse");
        out.set("json.parse_s",
                parse == totals.end()
                    ? 0.0
                    : parse->second.selfSeconds / double(parse->second.count));
        measureWire(tracer, refs, out);
        out.tracingOverheadSeconds = median(tracedWalls) - median(walls);
    }
    out.ledger.record(fleet.stop(), "server did not drain cleanly");
}

} // namespace perfbench
