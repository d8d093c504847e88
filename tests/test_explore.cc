/**
 * @file
 * Tests for the design-space-exploration engine and its transports:
 * space validation strictness, Pareto-frontier math (ties included),
 * byte-determinism of the NDJSON stream, the successive-halving
 * guarantee that pruning never discards a true frontier point when the
 * scouts are exact, byte-identity across thread counts with the real
 * simulator, and byte-identity of the chunked /explore stream — through
 * `dynaspam serve` (the coordinator with one in-process worker) and
 * through a two-worker cluster — against an in-process engine drive.
 *
 * Transport tests use the executeFn seam with a hand-shaped,
 * deterministic objective landscape so they are fast and the expected
 * bytes can be produced locally; one engine test runs real simulations.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "explore/engine.hh"
#include "explore/space.hh"
#include "runner/runner.hh"
#include "serve/http.hh"
#include "support.hh"

using namespace dynaspam;
using namespace dynaspam::tests;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using cluster::Worker;
using cluster::WorkerOptions;
using runner::Job;

namespace
{

explore::Space
parseSpace(const std::string &text)
{
    return explore::Space::fromJson(json::Value::parse(text));
}

/**
 * Deterministic fake objective landscape. Accelerated modes trade
 * energy for cycles; longer traces and more fabrics buy speed at an
 * energy premium, so two-objective frontiers are non-trivial. Sampled
 * scouts report the exact full-fidelity numbers (perfect scouting) at
 * a tenth of the cost, which makes exhaustive-vs-pruned frontier
 * comparisons sound: any margin-pruned candidate really is dominated.
 */
sim::RunResult
fakeResult(const Job &job)
{
    std::uint64_t cycles = 0;
    double energy = 0.0;
    switch (job.mode) {
    case sim::SystemMode::BaselineOoo:
        cycles = 100000;
        energy = 1000.0;
        break;
    case sim::SystemMode::MappingOnly:
        cycles = 96000;
        energy = 900.0;
        break;
    case sim::SystemMode::AccelNoSpec:
        // Longer traces amortize dispatch energy, so short-trace points
        // are dominated; fabrics trade energy for cycles.
        cycles = 80000 - 200 * job.traceLength - 4000 * job.numFabrics;
        energy = 950.0 + 30.0 * job.numFabrics - job.traceLength;
        break;
    case sim::SystemMode::AccelSpec:
        cycles = 70000 - 250 * job.traceLength - 5000 * job.numFabrics;
        energy = 1050.0 + 45.0 * job.numFabrics - 2.0 * job.traceLength;
        break;
    case sim::SystemMode::AccelNaive:
        cycles = 120000;
        energy = 1400.0;
        break;
    }
    cycles += 1000 * (job.workload.size() % 4) + 500 * job.scale;

    sim::RunResult result;
    result.cycles = cycles;
    result.instsTotal = 200000;
    result.instsHost = 200000;
    result.functionallyCorrect = true;
    result.energy.component["fake"] = energy;
    if (job.fidelity == runner::Fidelity::Sampled) {
        result.sampled = true;
        result.sampledInsts = 2000;
        result.sampledCycles = cycles / 100;
    }
    return result;
}

/** Drive @p engine to completion against fakeResult; all lines. */
std::vector<std::string>
driveEngine(explore::Engine &engine)
{
    std::vector<std::string> lines = engine.start();
    while (!engine.done()) {
        const std::vector<Job> &batch = engine.nextBatch();
        std::vector<runner::JobOutcome> outcomes;
        outcomes.reserve(batch.size());
        for (const Job &job : batch)
            outcomes.push_back(
                runner::JobOutcome{job, fakeResult(job), false});
        std::vector<std::string> fed = engine.feed(outcomes);
        lines.insert(lines.end(), fed.begin(), fed.end());
    }
    return lines;
}

/** The stream body a transport should deliver for the same space. */
std::string
streamBody(const std::vector<std::string> &lines)
{
    std::string body;
    for (const std::string &line : lines)
        body += line + "\n";
    return body;
}

/** (problem, job hash) identity of every final-frontier point. */
std::set<std::string>
frontierKeys(const json::Value &report)
{
    std::set<std::string> keys;
    for (const json::Value &problem : report.at("problems").asArray()) {
        for (const json::Value &entry :
             problem.at("frontier").asArray()) {
            keys.insert(problem.at("workload").asString() + "/" +
                        std::to_string(problem.at("scale").asUint()) +
                        "#" + entry.at("job").at("hash").asString());
        }
    }
    return keys;
}

std::string
lineType(const std::string &line)
{
    return json::Value::parse(line).at("type").asString();
}

/** A small fig8-shaped space shared by the transport tests. */
const char *kSpaceBody =
    "{\"name\": \"tspace\", \"workloads\": [\"bfs\", \"km\"],"
    " \"trace_lengths\": [16, 32], \"num_fabrics\": [1, 2],"
    " \"objectives\": [\"speedup\", \"energy\"],"
    " \"generation_size\": 4, \"seed\": 7}";

} // namespace

// --- Space validation ----------------------------------------------------

TEST(ExploreSpace, RejectsMalformedDescriptions)
{
    EXPECT_THROW(parseSpace("{}"), FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": []}"), FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"\"]}"), FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\", \"bfs\"]}"),
                 FatalError);
    // Workload tags are case-insensitive, so this is one kernel twice.
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\", \"BFS\"]}"),
                 FatalError);
    EXPECT_THROW(
        parseSpace("{\"workloads\": [\"bfs\"], \"bogus\": 1}"),
        FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"objectives\": []}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"objectives\": [\"speedup\","
                            " \"speedup\"]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"objectives\": [\"speedup\", \"cycles\","
                            " \"energy\", \"edp\"]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"objectives\": [\"watts\"]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"scout_fidelity\": \"half\"}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"trace_lengths\": [0]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"trace_lengths\": [16, 16]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"modes\": [\"warp-drive\"]}"),
                 FatalError);
    EXPECT_THROW(parseSpace("{\"workloads\": [\"bfs\"],"
                            " \"generation_size\": 0}"),
                 FatalError);
}

TEST(ExploreSpace, OutOfRangeAxisValueIsNamed)
{
    // A double past the unsigned range used to be cast unchecked, and
    // the error named the wrapped value (0) instead of the input.
    try {
        parseSpace("{\"workloads\": [\"bfs\"], \"scales\": [1e30]}");
        FAIL() << "1e30 accepted as a scale";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1e+30"), std::string::npos)
            << e.what();
    }
}

TEST(ExploreSpace, DefaultsAndJsonRoundTrip)
{
    explore::Space space = parseSpace("{\"workloads\": [\"bfs\"]}");
    EXPECT_EQ(space.modes.size(), 4u);
    EXPECT_EQ(space.objectives.size(), 2u);
    EXPECT_EQ(space.generationSize, 8u);
    EXPECT_FALSE(space.exhaustive);

    // toJson is a fixed point: parsing the canonical echo reproduces
    // the exact same echo.
    explore::Space again = explore::Space::fromJson(space.toJson());
    EXPECT_EQ(space.toJson().dump(2), again.toJson().dump(2));
}

// --- Pareto frontier -----------------------------------------------------

TEST(ExplorePareto, KeepsNonDominatedPointsAndTies)
{
    const std::vector<bool> maxBoth = {true, true};
    // (2,1) and (1,2) trade off; (0,0) is dominated; the duplicate of
    // (2,1) is mutually non-dominated with it and kept.
    EXPECT_EQ(explore::paretoFrontier({{2, 1}, {1, 2}, {0, 0}, {2, 1}},
                                      maxBoth),
              (std::vector<std::size_t>{0, 1, 3}));

    const std::vector<bool> minBoth = {false, false};
    EXPECT_EQ(explore::paretoFrontier({{1, 1}, {2, 2}}, minBoth),
              (std::vector<std::size_t>{0}));

    // Mixed directions: maximize first, minimize second. (4,5) beats
    // both others.
    const std::vector<bool> mixed = {true, false};
    EXPECT_EQ(explore::paretoFrontier({{3, 5}, {4, 6}, {4, 5}}, mixed),
              (std::vector<std::size_t>{2}));

    EXPECT_TRUE(explore::paretoFrontier({}, maxBoth).empty());
}

// --- Engine --------------------------------------------------------------

TEST(ExploreEngine, SyntheticDriveIsByteDeterministic)
{
    explore::Engine a(parseSpace(kSpaceBody));
    explore::Engine b(parseSpace(kSpaceBody));
    const std::vector<std::string> la = driveEngine(a);
    const std::vector<std::string> lb = driveEngine(b);
    EXPECT_EQ(la, lb);
    EXPECT_EQ(a.finalReport().dump(2), b.finalReport().dump(2));

    ASSERT_FALSE(la.empty());
    EXPECT_EQ(lineType(la.front()), "header");
    EXPECT_EQ(lineType(la.back()), "frontier");

    // Every problem reports a non-empty frontier and exact
    // (full-fidelity) numbers.
    const json::Value &report = a.finalReport();
    EXPECT_EQ(report.at("schema_version").asUint(),
              explore::kExploreSchemaVersion);
    ASSERT_EQ(report.at("problems").asArray().size(), 2u);
    for (const json::Value &problem :
         report.at("problems").asArray()) {
        EXPECT_FALSE(problem.at("frontier").asArray().empty());
        for (const json::Value &entry :
             problem.at("frontier").asArray())
            EXPECT_FALSE(entry.at("result").find("sampled"));
    }
}

TEST(ExploreEngine, SeedReordersScoutingButNotTheFrontier)
{
    const std::string other =
        "{\"name\": \"tspace\", \"workloads\": [\"bfs\", \"km\"],"
        " \"trace_lengths\": [16, 32], \"num_fabrics\": [1, 2],"
        " \"objectives\": [\"speedup\", \"energy\"],"
        " \"generation_size\": 4, \"seed\": 8}";
    explore::Engine a(parseSpace(kSpaceBody));
    explore::Engine b(parseSpace(other));
    driveEngine(a);
    driveEngine(b);
    // The landscape is fixed, so whatever order the scouts go out in,
    // the surviving frontier must be the same set of points.
    EXPECT_EQ(frontierKeys(a.finalReport()),
              frontierKeys(b.finalReport()));
}

TEST(ExploreEngine, PruningNeverDropsTrueFrontierPoints)
{
    // fig8-shaped grid: the four comparison modes crossed with trace
    // lengths and fabric counts. Perfect scouts (fakeResult reports
    // identical numbers at both fidelities) mean any candidate the
    // margin logic prunes or declines to promote is genuinely
    // dominated, so the pruned frontier must equal the exhaustive one.
    const std::string base =
        "\"workloads\": [\"bfs\"],"
        " \"trace_lengths\": [8, 16, 32], \"num_fabrics\": [1, 2, 4],"
        " \"objectives\": [\"speedup\", \"energy\"],"
        " \"generation_size\": 4, \"seed\": 3";
    explore::Engine pruned(parseSpace("{" + base + "}"));
    explore::Engine exact(
        parseSpace("{" + base + ", \"exhaustive\": true}"));
    driveEngine(pruned);
    driveEngine(exact);

    EXPECT_EQ(frontierKeys(pruned.finalReport()),
              frontierKeys(exact.finalReport()));

    // The adaptive search must actually be cheaper than the grid it
    // matched (the ≤50% gate on a realistic grid lives in
    // bench/bench_explore.cc; this landscape only proves safety).
    EXPECT_LT(pruned.costUnits(), exact.costUnits());
    EXPECT_EQ(exact.costUnits(), exact.gridCostUnits());
}

TEST(ExploreEngine, FeedValidatesOutcomeShape)
{
    explore::Engine engine(parseSpace("{\"workloads\": [\"bfs\"]}"));
    engine.start();
    const std::vector<Job> &batch = engine.nextBatch();
    ASSERT_FALSE(batch.empty());

    EXPECT_THROW(engine.feed({}), FatalError);

    std::vector<runner::JobOutcome> wrong;
    for (const Job &job : batch) {
        Job twisted = job;
        twisted.traceLength += 1;
        wrong.push_back(
            runner::JobOutcome{twisted, fakeResult(twisted), false});
    }
    EXPECT_THROW(engine.feed(wrong), FatalError);
}

TEST(ExploreEngine, RealRunnerByteIdenticalAcrossThreadCounts)
{
    const char *spaceBody =
        "{\"name\": \"threads\", \"workloads\": [\"bfs\"],"
        " \"trace_lengths\": [16, 32],"
        " \"objectives\": [\"speedup\", \"energy\"],"
        " \"generation_size\": 4, \"seed\": 1}";
    auto drive = [&](unsigned jobs) {
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        runner::Runner runner(opts);
        explore::Engine engine(parseSpace(spaceBody));
        std::vector<std::string> lines = engine.start();
        while (!engine.done()) {
            std::vector<std::string> fed =
                engine.feed(runner.runAll(engine.nextBatch()));
            lines.insert(lines.end(), fed.begin(), fed.end());
        }
        return std::make_pair(streamBody(lines),
                              engine.finalReport().dump(2));
    };
    const auto serial = drive(1);
    const auto parallel = drive(8);
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.second, parallel.second);
}

// --- serve transport -----------------------------------------------------

namespace
{

/** `dynaspam serve`'s stack over the fake objective landscape. */
CoordinatorOptions
fakeServeOptions()
{
    CoordinatorOptions opts;
    opts.httpPort = 0;
    opts.workerSlots = 1;
    opts.verbose = false;
    WorkerOptions worker;
    worker.verbose = false;
    worker.executeFn = fakeResult;
    opts.localWorker = worker;
    return opts;
}

} // namespace

TEST(ExploreServe, StreamIsChunkedAndByteIdenticalToInProcess)
{
    Coordinator server(fakeServeOptions());
    server.start();
    Reply reply = request(server.httpPort(), "POST", "/explore", kSpaceBody);
    ASSERT_EQ(reply.status, 200);
    EXPECT_EQ(reply.headers["Transfer-Encoding"], "chunked");
    EXPECT_EQ(reply.headers["Content-Type"], "application/x-ndjson");

    std::string body;
    ASSERT_TRUE(serve::decodeChunkedBody(reply.body, body));

    explore::Engine engine(parseSpace(kSpaceBody));
    EXPECT_EQ(body, streamBody(driveEngine(engine)));

    // Every reassembled line is standalone JSON with a type tag.
    std::istringstream is(body);
    std::string line;
    while (std::getline(is, line))
        EXPECT_FALSE(lineType(line).empty());
}

TEST(ExploreServe, RejectsMalformedSpacesAndMethods)
{
    Coordinator server(fakeServeOptions());
    server.start();
    EXPECT_EQ(request(server.httpPort(), "GET", "/explore").status, 405);
    EXPECT_EQ(request(server.httpPort(), "POST", "/explore", "ribbit")
                  .status,
              400);
    EXPECT_EQ(request(server.httpPort(), "POST", "/explore", "{}").status,
              400);
    EXPECT_EQ(request(server.httpPort(), "POST", "/explore",
                      "{\"workloads\": [\"bfs\"], \"bogus\": 1}")
                  .status,
              400);
}

// --- cluster transport ---------------------------------------------------

namespace
{

CoordinatorOptions
quietCoordinator(unsigned slots)
{
    CoordinatorOptions opts;
    opts.httpPort = 0;
    opts.workerPort = 0;
    opts.workerSlots = slots;
    opts.retryBackoffMs = 10;
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

WorkerOptions
quietFakeWorker(const Coordinator &coordinator)
{
    WorkerOptions opts;
    opts.connectPort = coordinator.workerPort();
    opts.executeFn = fakeResult;
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

} // namespace

TEST(ExploreCluster, StreamByteIdenticalToInProcess)
{
    Coordinator coordinator(quietCoordinator(2));
    coordinator.start();

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::unique_ptr<WorkerThread>> threads;
    for (unsigned i = 0; i < 2; i++) {
        workers.push_back(
            std::make_unique<Worker>(quietFakeWorker(coordinator)));
        threads.push_back(std::make_unique<WorkerThread>(*workers.back()));
    }
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 2;
    }));

    Reply reply =
        request(coordinator.httpPort(), "POST", "/explore", kSpaceBody);
    ASSERT_EQ(reply.status, 200);
    EXPECT_EQ(reply.headers["Transfer-Encoding"], "chunked");
    std::string body;
    ASSERT_TRUE(serve::decodeChunkedBody(reply.body, body));

    explore::Engine engine(parseSpace(kSpaceBody));
    EXPECT_EQ(body, streamBody(driveEngine(engine)));

    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/explore").status,
              405);
    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/explore", "{}")
                  .status,
              400);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    for (auto &t : threads)
        t->join();
}
