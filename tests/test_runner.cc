/**
 * @file
 * Tests for the experiment-runner subsystem: JSON round-trips, the
 * FIFO thread pool, job hashing, result-cache hit/miss and
 * corruption recovery, and the headline determinism guarantee — a sweep
 * executed on 1 thread and on 8 threads produces byte-identical
 * reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>

#include <sys/wait.h>
#include <unistd.h>

#include "common/interrupt.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "explore/space.hh"
#include "runner/runner.hh"
#include "runner/spec.hh"
#include "support.hh"

using namespace dynaspam;
using namespace dynaspam::tests;
using runner::Job;
using sim::SystemMode;

namespace fs = std::filesystem;

namespace
{

/** The documented 20-point determinism sweep: 5 workloads x 4 modes. */
std::vector<Job>
determinismSweep()
{
    std::vector<Job> jobs;
    for (const char *wl : {"BP", "BFS", "HS", "KM", "PF"})
        for (SystemMode mode :
             {SystemMode::BaselineOoo, SystemMode::MappingOnly,
              SystemMode::AccelNoSpec, SystemMode::AccelSpec})
            jobs.push_back(Job{wl, mode, 32, 1, 1});
    return jobs;
}

/** Runner options with @p jobs threads and the cache at @p cache_dir
 *  (empty: off); the other fields keep their defaults. */
runner::RunnerOptions
runnerOptions(unsigned jobs, const std::string &cache_dir = "")
{
    runner::RunnerOptions opts;
    opts.jobs = jobs;
    opts.cacheDir = cache_dir;
    return opts;
}

std::string
reportFor(const std::vector<runner::JobOutcome> &outcomes,
          const StatRegistry *stats)
{
    std::ostringstream os;
    runner::writeSweepReport(os, "test", outcomes, stats);
    return os.str();
}

} // namespace

// --- JSON ----------------------------------------------------------------

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(json::Value(std::uint64_t(18446744073709551615ULL)).dump(),
              "18446744073709551615");
    EXPECT_EQ(json::Value(std::int64_t(-42)).dump(), "-42");
    EXPECT_EQ(json::Value(true).dump(), "true");
    EXPECT_EQ(json::Value(nullptr).dump(), "null");
    EXPECT_EQ(json::Value("a\"b\n").dump(), "\"a\\\"b\\n\"");
    // Integral doubles keep a visible fraction so they re-parse as
    // doubles.
    EXPECT_EQ(json::Value(2.0).dump(), "2.0");
    EXPECT_EQ(json::Value(0.25).dump(), "0.25");
}

TEST(Json, ParseRoundTrip)
{
    const std::string text =
        R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})";
    json::Value v = json::Value::parse(text);
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.at("a").asArray()[0].asUint(), 1u);
    EXPECT_DOUBLE_EQ(v.at("a").asArray()[1].asDouble(), 2.5);
    EXPECT_EQ(v.at("a").asArray()[2].asString(), "x");
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_TRUE(v.at("b").at("d").isNull());
    // Dump -> parse -> dump is a fixed point.
    EXPECT_EQ(json::Value::parse(v.dump()).dump(), v.dump());
    EXPECT_EQ(json::Value::parse(v.dump(2)).dump(2), v.dump(2));
}

TEST(Json, LargeCountersSurviveExactly)
{
    const std::uint64_t big = (1ULL << 62) + 12345;
    json::Value v = json::Value::parse(json::Value(big).dump());
    EXPECT_EQ(v.asUint(), big);
}

TEST(Json, OutOfRangeIntegersThrow)
{
    // Doubles outside the integer range used to be cast unchecked,
    // which is undefined behaviour (1e30 read back as 0).
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(json::Value::parse("1e30").asUint(), FatalError);
    EXPECT_THROW(json::Value::parse("1e400").asInt(), FatalError);
    EXPECT_THROW(json::Value::parse("18446744073709551616").asUint(),
                 FatalError);
    EXPECT_THROW(json::Value::parse("-1e19").asInt(), FatalError);
    EXPECT_THROW(json::Value(inf).asUint(), FatalError);
    EXPECT_THROW(json::Value(-inf).asInt(), FatalError);
    try {
        json::Value::parse("1e30").asUint();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1e+30"), std::string::npos)
            << e.what();
    }

    // The largest doubles inside the range still convert.
    EXPECT_EQ(json::Value(0x1p64 - 0x1p11).asUint(),
              std::numeric_limits<std::uint64_t>::max() - 2047);
    EXPECT_EQ(json::Value(-0x1p63).asInt(),
              std::numeric_limits<std::int64_t>::min());
}

TEST(Json, NonFiniteDoublesRoundTrip)
{
    // Non-finite doubles used to serialize as null, which every numeric
    // reader rejected on the way back in; they now round-trip through
    // the string literals "NaN" / "Infinity" / "-Infinity".
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    EXPECT_EQ(json::Value(nan).dump(), "\"NaN\"");
    EXPECT_EQ(json::Value(inf).dump(), "\"Infinity\"");
    EXPECT_EQ(json::Value(-inf).dump(), "\"-Infinity\"");

    EXPECT_TRUE(std::isnan(json::Value::parse("\"NaN\"").asDouble()));
    EXPECT_EQ(json::Value::parse("\"Infinity\"").asDouble(), inf);
    EXPECT_EQ(json::Value::parse("\"-Infinity\"").asDouble(), -inf);

    // Ordinary strings still refuse to read as numbers.
    EXPECT_THROW(json::Value("banana").asDouble(), FatalError);
}

TEST(Json, ParseErrorsThrow)
{
    EXPECT_THROW(json::Value::parse(""), FatalError);
    EXPECT_THROW(json::Value::parse("{"), FatalError);
    EXPECT_THROW(json::Value::parse("{\"a\": }"), FatalError);
    EXPECT_THROW(json::Value::parse("[1,]2"), FatalError);
    EXPECT_THROW(json::Value::parse("truex"), FatalError);
    EXPECT_THROW(json::Value::parse("{} garbage"), FatalError);
}

// --- Stats registry JSON -------------------------------------------------

TEST(StatRegistryJson, DumpsCountersAndEmptyLegacyBlocks)
{
    StatRegistry reg;
    reg.counter("beta").inc(2);
    reg.counter("alpha").inc(7);

    // Sorted counters, then the empty accums and histograms blocks that
    // keep report and cache-file bytes unchanged.
    EXPECT_EQ(reg.toJson().dump(),
              "{\"accums\":{},\"counters\":{\"alpha\":7,\"beta\":2},"
              "\"histograms\":{}}");
}

// --- Thread pool ---------------------------------------------------------

TEST(ThreadPool, ExecutesEveryIndexOnce)
{
    for (unsigned workers : {1u, 2u, 8u}) {
        runner::ThreadPool pool(workers);
        std::vector<std::atomic<int>> seen(1000);
        pool.parallelFor(seen.size(),
                         [&](std::size_t i) { seen[i]++; });
        for (const auto &count : seen)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    runner::ThreadPool pool(4);
    for (int round = 0; round < 5; round++) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    runner::ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.parallelFor(50,
                                  [&](std::size_t i) {
                                      if (i == 13)
                                          fatal("boom");
                                      completed++;
                                  }),
                 FatalError);
    // The batch drains even after a failure.
    EXPECT_EQ(completed.load(), 49);
    // ...and the pool remains usable.
    std::atomic<int> after{0};
    pool.parallelFor(10, [&](std::size_t) { after++; });
    EXPECT_EQ(after.load(), 10);
}

// --- Job -----------------------------------------------------------------

TEST(Job, KeyAndHashAreStable)
{
    Job job{"BFS", SystemMode::AccelSpec, 32, 1, 1};
    EXPECT_EQ(job.key(), "BFS|accel-spec|32|1|1|0|full");
    EXPECT_EQ(job.hash(), Job(job).hash());
    EXPECT_EQ(job.hashHex().size(), 16u);

    // Workload tags are canonicalized: same point, same cache entry.
    Job lower{"bfs", SystemMode::AccelSpec, 32, 1, 1};
    EXPECT_EQ(lower.hash(), job.hash());

    Job other = job;
    other.traceLength = 16;
    EXPECT_NE(other.hash(), job.hash());

    // Warmup and fidelity are part of the simulation point identity.
    Job warmed = job;
    warmed.warmupInsts = 10000;
    EXPECT_NE(warmed.hash(), job.hash());
    Job sampled = job;
    sampled.fidelity = runner::Fidelity::Sampled;
    EXPECT_EQ(sampled.key(), "BFS|accel-spec|32|1|1|0|sampled");
    EXPECT_NE(sampled.hash(), job.hash());
}

TEST(Job, ParseModeRejectsUnknown)
{
    EXPECT_EQ(runner::parseMode("accel-spec"), SystemMode::AccelSpec);
    EXPECT_EQ(runner::parseMode("baseline-ooo"), SystemMode::BaselineOoo);
    EXPECT_THROW(runner::parseMode("warp-drive"), FatalError);
}

// --- Result round-trip ---------------------------------------------------

TEST(ResultJson, FullRoundTrip)
{
    sim::RunResult original =
        runner::execute(Job{"BP", SystemMode::AccelSpec, 32, 1, 1});
    json::Value v = runner::resultToJson(original);
    sim::RunResult restored = runner::resultFromJson(v);

    EXPECT_EQ(restored.cycles, original.cycles);
    EXPECT_EQ(restored.instsTotal, original.instsTotal);
    EXPECT_EQ(restored.instsFabric, original.instsFabric);
    EXPECT_EQ(restored.functionallyCorrect, original.functionallyCorrect);
    EXPECT_EQ(restored.pipeline.committedInsts,
              original.pipeline.committedInsts);
    EXPECT_EQ(restored.dynaspam.distinctMappedTraces,
              original.dynaspam.distinctMappedTraces);
    EXPECT_DOUBLE_EQ(restored.energy.total(), original.energy.total());
    // Byte-identical re-serialization proves nothing was lost.
    EXPECT_EQ(runner::resultToJson(restored).dump(2), v.dump(2));
}

// --- Determinism ---------------------------------------------------------

TEST(RunnerDeterminism, OneThreadAndEightThreadsMatchByteForByte)
{
    const std::vector<Job> jobs = determinismSweep();
    ASSERT_EQ(jobs.size(), 20u);

    runner::Runner serial(runnerOptions(1));
    runner::Runner parallel(runnerOptions(8));
    auto serial_outcomes = serial.runAll(jobs);
    auto parallel_outcomes = parallel.runAll(jobs);

    ASSERT_EQ(serial_outcomes.size(), parallel_outcomes.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(serial_outcomes[i].result.cycles,
                  parallel_outcomes[i].result.cycles)
            << "cycle mismatch for " << jobs[i].key();
        EXPECT_EQ(serial_outcomes[i].result.stats.toJson().dump(),
                  parallel_outcomes[i].result.stats.toJson().dump())
            << "stat dump mismatch for " << jobs[i].key();
    }

    EXPECT_EQ(reportFor(serial_outcomes, &serial.stats()),
              reportFor(parallel_outcomes, &parallel.stats()));
}

// --- Result cache --------------------------------------------------------

TEST(ResultCache, WarmRerunPerformsZeroSimulations)
{
    TempDir dir("cache");
    std::vector<Job> jobs = {
        Job{"BP", SystemMode::BaselineOoo, 32, 1, 1},
        Job{"BP", SystemMode::AccelSpec, 32, 1, 1},
        Job{"PF", SystemMode::BaselineOoo, 32, 1, 1},
        Job{"PF", SystemMode::AccelSpec, 32, 1, 1},
    };

    runner::Runner cold(runnerOptions(2, dir.path()));
    auto cold_outcomes = cold.runAll(jobs);
    EXPECT_EQ(cold.stats().get("runner.cache_hits"), 0u);
    EXPECT_EQ(cold.stats().get("runner.cache_misses"), jobs.size());
    EXPECT_EQ(cold.stats().get("runner.jobs_executed"), jobs.size());
    for (const auto &outcome : cold_outcomes)
        EXPECT_FALSE(outcome.fromCache);

    runner::Runner warm(runnerOptions(2, dir.path()));
    auto warm_outcomes = warm.runAll(jobs);
    EXPECT_EQ(warm.stats().get("runner.cache_hits"), jobs.size());
    EXPECT_EQ(warm.stats().get("runner.jobs_executed"), 0u);
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_TRUE(warm_outcomes[i].fromCache);
        EXPECT_EQ(warm_outcomes[i].result.cycles,
                  cold_outcomes[i].result.cycles);
        EXPECT_EQ(runner::resultToJson(warm_outcomes[i].result).dump(),
                  runner::resultToJson(cold_outcomes[i].result).dump());
    }
}

TEST(ResultCache, DistinctJobsGetDistinctEntries)
{
    TempDir dir("cache-distinct");
    runner::ResultCache cache(dir.path());
    Job a{"BP", SystemMode::BaselineOoo, 32, 1, 1};
    Job b{"BP", SystemMode::AccelSpec, 32, 1, 1};
    EXPECT_NE(cache.pathFor(a), cache.pathFor(b));
    EXPECT_FALSE(cache.load(a).has_value());
}

TEST(ResultCache, CorruptEntryFallsBackToSimulation)
{
    TempDir dir("cache-corrupt");
    const Job job{"BP", SystemMode::BaselineOoo, 32, 1, 1};
    const sim::RunResult reference = runner::execute(job);

    runner::ResultCache cache(dir.path());
    const std::string path = cache.pathFor(job);

    // Truncated garbage, invalid JSON, and valid JSON with the wrong
    // shape must all read as a miss, never crash.
    for (const char *content :
         {"", "not json at all {{{", "{\"epoch\": \"dynaspam-sim-1\"",
          "{\"unexpected\": []}", "[1, 2, 3]"}) {
        {
            std::ofstream os(path);
            os << content;
        }
        EXPECT_FALSE(cache.load(job).has_value()) << content;

        runner::Runner r(runnerOptions(1, dir.path()));
        auto outcomes = r.runAll({job});
        EXPECT_FALSE(outcomes[0].fromCache) << content;
        EXPECT_EQ(outcomes[0].result.cycles, reference.cycles);
        fs::remove(path);
    }
}

TEST(ResultCache, EpochMismatchInvalidates)
{
    TempDir dir("cache-epoch");
    const Job job{"PF", SystemMode::BaselineOoo, 32, 1, 1};
    const sim::RunResult result = runner::execute(job);

    runner::ResultCache old_epoch(dir.path(), "old-epoch");
    old_epoch.store(job, result);
    EXPECT_TRUE(old_epoch.load(job).has_value());

    // A cache reading with the current epoch must treat it as a miss...
    runner::ResultCache current(dir.path());
    EXPECT_FALSE(current.load(job).has_value());

    // ...and a run through the Runner re-simulates and repairs it.
    runner::Runner r(runnerOptions(1, dir.path()));
    auto outcomes = r.runAll({job});
    EXPECT_FALSE(outcomes[0].fromCache);
    EXPECT_TRUE(current.load(job).has_value());
}

TEST(ResultCache, DisabledCacheNeverStores)
{
    runner::ResultCache cache("");
    EXPECT_FALSE(cache.enabled());
    const Job job{"BP", SystemMode::BaselineOoo, 32, 1, 1};
    cache.store(job, sim::RunResult{});
    EXPECT_FALSE(cache.load(job).has_value());
}

TEST(ResultCache, NonFiniteStatsSurviveTheRoundTrip)
{
    // Pre-fix behaviour: a NaN or infinite double serialized as JSON
    // null, the numeric reader rejected it on load, and the whole entry
    // silently degenerated to a permanent cache miss.
    TempDir dir("cache-nonfinite");
    const Job job{"BP", SystemMode::BaselineOoo, 32, 1, 1};
    sim::RunResult result = runner::execute(job);
    result.energy.component["test.poisoned"] =
        std::numeric_limits<double>::quiet_NaN();
    result.energy.component["test.hot"] =
        std::numeric_limits<double>::infinity();

    runner::ResultCache cache(dir.path());
    cache.store(job, result);

    auto loaded = cache.load(job);
    ASSERT_TRUE(loaded.has_value()) << "non-finite stat corrupted entry";
    EXPECT_TRUE(std::isnan(loaded->energy.component.at("test.poisoned")));
    EXPECT_EQ(loaded->energy.component.at("test.hot"),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(loaded->cycles, result.cycles);
}

TEST(ResultCache, NonEmptyAccumsOrHistogramsAreAMiss)
{
    // The registry holds counters only and always writes the accums and
    // histograms blocks empty; an entry with content there was not
    // written by this code, so it reads as a miss.
    TempDir dir("cache-legacy-stats");
    const Job job{"BP", SystemMode::BaselineOoo, 32, 1, 1};
    runner::ResultCache cache(dir.path());
    cache.store(job, runner::execute(job));
    const std::string path = cache.pathFor(job);
    std::ostringstream original;
    original << std::ifstream(path).rdbuf();
    ASSERT_TRUE(cache.load(job).has_value());

    for (const char *block : {"accums", "histograms"}) {
        const std::string empty = std::string("\"") + block + "\": {}";
        std::string text = original.str();
        const std::size_t at = text.find(empty);
        ASSERT_NE(at, std::string::npos) << block;
        text.replace(at, empty.size(),
                     std::string("\"") + block + "\": {\"x\": 1}");
        std::ofstream(path) << text;
        EXPECT_FALSE(cache.load(job).has_value()) << block;
    }
}

// --- JSON hardening (network-boundary strictness) -------------------------

TEST(Json, RejectsMalformedInputTable)
{
    struct BadCase
    {
        const char *name;
        std::string text;
    };
    const BadCase cases[] = {
        {"duplicate object key", "{\"a\": 1, \"a\": 2}"},
        {"nested duplicate key", "{\"o\": {\"x\": 1, \"x\": 1}}"},
        {"truncated escape", "\"ab\\"},
        {"bad escape letter", "\"\\q\""},
        {"truncated unicode escape", "\"\\u12\""},
        {"unescaped control char", std::string("\"a\tb\"")},
        {"unterminated string", "\"never ends"},
        {"bare minus", "[-]"},
        {"leading plus", "+1"},
        {"lonely surrogate text", "{\"k\": tru}"},
        {"array depth bomb",
         std::string(json::kMaxParseDepth + 1, '[') +
             std::string(json::kMaxParseDepth + 1, ']')},
        {"object depth bomb",
         [] {
             std::string s;
             for (unsigned i = 0; i <= json::kMaxParseDepth; i++)
                 s += "{\"k\":";
             s += "1";
             for (unsigned i = 0; i <= json::kMaxParseDepth; i++)
                 s += "}";
             return s;
         }()},
    };
    for (const BadCase &c : cases)
        EXPECT_THROW(json::Value::parse(c.text), FatalError) << c.name;
}

TEST(Json, AcceptsInputAtTheDepthLimit)
{
    const std::string ok = std::string(json::kMaxParseDepth, '[') +
                           std::string(json::kMaxParseDepth, ']');
    EXPECT_NO_THROW(json::Value::parse(ok));
}

TEST(Json, ParseErrorsReportLineAndColumn)
{
    try {
        json::Value::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
        FAIL() << "duplicate key accepted";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    }
}

// --- Thread pool: persistent submit() front end ---------------------------

TEST(ThreadPool, SubmitRunsEveryTaskExactlyOnce)
{
    std::atomic<int> ran{0};
    {
        runner::ThreadPool pool(4);
        for (int i = 0; i < 200; i++)
            pool.submit([&ran] { ran++; });
        // Destructor drains: every submitted task runs before join.
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SubmitAndParallelForShareTheWorkers)
{
    runner::ThreadPool pool(4);
    std::atomic<int> submitted{0}, batched{0};
    for (int i = 0; i < 50; i++)
        pool.submit([&submitted] { submitted++; });
    pool.parallelFor(50, [&batched](std::size_t) { batched++; });
    EXPECT_EQ(batched.load(), 50);
    // parallelFor returning does not imply the submits finished; the
    // destructor drain does.
    while (submitted.load() < 50)
        std::this_thread::yield();
    EXPECT_EQ(submitted.load(), 50);
}

// --- Shared sweep expansion ----------------------------------------------

TEST(SweepJobs, ExpandsNamedSweepsAndRejectsUnknown)
{
    const std::vector<std::string> wl = {"BFS", "PF"};
    EXPECT_EQ(runner::sweepJobs("fig7", wl, 1, 32).size(), 8u);
    EXPECT_EQ(runner::sweepJobs("fig8", wl, 1, 32).size(), 8u);
    EXPECT_EQ(runner::sweepJobs("fig9", wl, 1, 32).size(), 4u);
    EXPECT_EQ(runner::sweepJobs("table5", wl, 1, 32).size(), 8u);
    EXPECT_EQ(runner::sweepJobs("ablation-mapper", wl, 1, 32).size(), 4u);
    EXPECT_THROW(runner::sweepJobs("fig99", wl, 1, 32), FatalError);

    // fig7 sweeps trace length, so the given length is not used there.
    auto fig8 = runner::sweepJobs("fig8", {"BFS"}, 2, 24);
    ASSERT_EQ(fig8.size(), 4u);
    for (const Job &job : fig8) {
        EXPECT_EQ(job.traceLength, 24u);
        EXPECT_EQ(job.scale, 2u);
    }

    // The checked expansion behind `dynaspam sweep` and POST /sweep
    // checks every parameter as a job field, also those a sweep ignores.
    EXPECT_EQ(runner::namedSweepJobs("fig8", {"bfs"}, 1, 32).size(), 4u);
    EXPECT_THROW(runner::namedSweepJobs("fig8", {"bfs"}, 0, 32),
                 FatalError);
    EXPECT_THROW(runner::namedSweepJobs("fig7", {"bfs"}, 1, 0),
                 FatalError);
    EXPECT_THROW(runner::namedSweepJobs("fig8", {"nope"}, 1, 32),
                 FatalError);
    EXPECT_THROW(runner::namedSweepJobs("fig8", {}, 1, 32), FatalError);
}

// --- The job schema: one decoder and one bounds check --------------------

/** @return false when @p decode throws FatalError. */
template <class Fn>
bool
accepts(Fn &&decode)
{
    try {
        decode();
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

TEST(JobSpec, EveryFrontEndAgreesOnEveryBound)
{
    struct Case
    {
        const char *field;      ///< job spec key
        const char *spaceKey;   ///< the explore space key
        const char *value;      ///< JSON literal
        bool valid;
    };
    const Case cases[] = {
        {"trace_length", "trace_lengths", "0", false},
        {"trace_length", "trace_lengths", "1", true},
        {"trace_length", "trace_lengths", "4096", true},
        {"trace_length", "trace_lengths", "4097", false},
        {"num_fabrics", "num_fabrics", "0", false},
        {"num_fabrics", "num_fabrics", "1", true},
        {"num_fabrics", "num_fabrics", "64", true},
        {"num_fabrics", "num_fabrics", "65", false},
        {"scale", "scales", "0", false},
        {"scale", "scales", "1", true},
        {"scale", "scales", "64", true},
        {"scale", "scales", "65", false},
        {"warmup_insts", "warmup_insts", "-1", false},
        {"warmup_insts", "warmup_insts", "0", true},
        {"warmup_insts", "warmup_insts", "1000000000", true},
        {"warmup_insts", "warmup_insts", "1000000001", false},
    };
    for (const Case &c : cases) {
        const std::string field = c.field;
        const std::string value = c.value;
        SCOPED_TRACE(field + " = " + value);

        // POST /run, /sweep jobs[], the wire and the result cache.
        EXPECT_EQ(accepts([&] {
                      runner::jobFromJson(json::Value::parse(
                          "{\"workload\": \"bfs\", \"" + field +
                          "\": " + value + "}"));
                  }),
                  c.valid);

        // explore: a one-value axis (warmup_insts is a scalar there).
        const bool axis = field != "warmup_insts";
        EXPECT_EQ(accepts([&] {
                      explore::Space::fromJson(json::Value::parse(
                          "{\"workloads\": [\"bfs\"], \"" +
                          std::string(c.spaceKey) + "\": " +
                          (axis ? "[" + value + "]" : value) + "}"));
                  }),
                  c.valid);

        // The /run query string carries warmup_insts.
        if (!axis) {
            EXPECT_EQ(accepts([&] {
                          Job job{"bfs", SystemMode::AccelSpec};
                          runner::applyRunQuery(
                              job, "/run?warmup_insts=" + value);
                      }),
                      c.valid);
        }
    }

    // explore once capped trace lengths at 1024 while /run took 4096.
    EXPECT_TRUE(accepts([] {
        explore::Space::fromJson(json::Value::parse(
            "{\"workloads\": [\"bfs\"], \"trace_lengths\": [2048]}"));
    }));
}

TEST(JobSpec, DecodesWhatItEncodesAndChecksTheHash)
{
    Job job{"BFS", SystemMode::AccelNoSpec, 16, 2, 3, 3000};
    job.fidelity = runner::Fidelity::Sampled;
    EXPECT_EQ(runner::jobFromJson(runner::jobToJson(job)), job);

    // Missing fields take the defaults; a "hash" must match the job.
    const Job defaults{"BFS", SystemMode::AccelSpec};
    auto withHash = [](const std::string &hash) {
        return json::Value::parse(
            "{\"workload\": \"bfs\", \"hash\": \"" + hash + "\"}");
    };
    EXPECT_EQ(runner::jobFromJson(withHash(defaults.hashHex())), defaults);
    EXPECT_THROW(runner::jobFromJson(withHash("0123456789abcdef")),
                 FatalError);
}

TEST(JobSpec, OutOfRangeCacheEntryIsAMiss)
{
    TempDir dir("cache-bad-job");
    runner::ResultCache cache(dir.path());
    const Job bad{"BFS", SystemMode::AccelSpec, 16, 1, 0};
    cache.store(bad, {});
    EXPECT_FALSE(cache.loadByHash(bad.hashHex()).has_value());
}

// --- Result cache: hash lookup and growth control ------------------------

TEST(ResultCache, LoadByHashRoundTripsJobAndResult)
{
    TempDir dir("cache-byhash");
    runner::ResultCache cache(dir.path());
    const Job job{"BFS", SystemMode::AccelSpec, 16, 1, 1};
    sim::RunResult result;
    result.cycles = 4242;
    result.instsTotal = 999;
    cache.store(job, result);

    auto hit = cache.loadByHash(job.hashHex());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->first, job);
    EXPECT_EQ(hit->second.cycles, 4242u);

    EXPECT_FALSE(cache.loadByHash("0123456789abcdef").has_value());
    EXPECT_FALSE(cache.loadByHash("not-a-hash").has_value());
    EXPECT_FALSE(cache.loadByHash("../../etc/passwd").has_value());
}

// --- Cache entry lifecycle, run against both caches -----------------------

/** How the lifecycle tests store and probe entry @p i of each cache. */
struct ResultCacheCase
{
    using Cache = runner::ResultCache;
    static constexpr const char *kExt = ".json";
    static Job
    job(int i)
    {
        return Job{"BFS", SystemMode::AccelSpec, 8u * unsigned(i + 1), 1, 1};
    }
    static void store(const Cache &c, int i) { c.store(job(i), {}); }
    static bool has(const Cache &c, int i)
    {
        return c.load(job(i)).has_value();
    }
};

struct SnapshotCacheCase
{
    using Cache = runner::SnapshotCache;
    static constexpr const char *kExt = ".snap";
    static std::string key(int i) { return "group-" + std::to_string(i); }
    static void store(const Cache &c, int i) { c.store(key(i), 1, "body"); }
    static bool has(const Cache &c, int i)
    {
        return c.load(key(i), 1).has_value();
    }
};

template <class Case>
class CacheLifecycle : public ::testing::Test
{};

struct CacheCaseNames
{
    template <class Case>
    static std::string
    GetName(int)
    {
        return std::is_same_v<Case, ResultCacheCase> ? "ResultCache"
                                                     : "SnapshotCache";
    }
};

using CacheCases = ::testing::Types<ResultCacheCase, SnapshotCacheCase>;
TYPED_TEST_SUITE(CacheLifecycle, CacheCases, CacheCaseNames);

TYPED_TEST(CacheLifecycle, GcRemovesStaleEpochsAndTempLitter)
{
    using Case = TypeParam;
    TempDir dir("cache-gc-stale");
    typename Case::Cache current(dir.path());
    Case::store(current, 0);
    typename Case::Cache old_epoch(dir.path(), "ancient-epoch");
    Case::store(old_epoch, 1);
    const std::string litter_path =
        dir.path() + "/deadbeef" + Case::kExt + ".tmp.1234";
    {
        std::ofstream litter(litter_path);
        litter << "half-written";
    }
    // Orphaned litter is reaped only once it is older than the grace
    // window (a crashed writer's leavings), so backdate its mtime.
    fs::last_write_time(
        litter_path,
        fs::file_time_type::clock::now() -
            std::chrono::seconds(runner::kCacheTmpGraceSeconds + 5));

    runner::CacheGcStats stats = current.gc();
    EXPECT_EQ(stats.scanned, 2u);
    EXPECT_EQ(stats.staleEvicted, 1u);
    EXPECT_EQ(stats.tmpRemoved, 1u);
    EXPECT_EQ(stats.lruEvicted, 0u);
    EXPECT_FALSE(fs::exists(litter_path));
    EXPECT_TRUE(Case::has(current, 0));
    EXPECT_FALSE(Case::has(old_epoch, 1));
}

TYPED_TEST(CacheLifecycle, GcSparesFreshTempFiles)
{
    // A temp file younger than the grace window belongs to a live
    // writer racing the gc pass: reaping it would yank a half-written
    // entry out from under the rename. Regression test — gc used to
    // remove ALL temp litter unconditionally.
    using Case = TypeParam;
    TempDir dir("cache-gc-fresh-tmp");
    typename Case::Cache cache(dir.path());
    const std::string fresh_tmp =
        dir.path() + "/cafecafe" + Case::kExt + ".tmp.9999";
    {
        std::ofstream litter(fresh_tmp);
        litter << "being-written-right-now";
    }

    runner::CacheGcStats stats = cache.gc();
    EXPECT_EQ(stats.tmpRemoved, 0u);
    EXPECT_TRUE(fs::exists(fresh_tmp));
}

TEST(SnapshotCache, DisabledCacheIsInert)
{
    runner::SnapshotCache cache("");
    EXPECT_FALSE(cache.enabled());
    cache.store("group", 1, "body");
    bool rejected = true;
    EXPECT_FALSE(cache.load("group", 1, &rejected).has_value());
    EXPECT_FALSE(rejected);
    EXPECT_EQ(cache.gc().scanned, 0u);
}

TEST(SnapshotCache, StoreLoadRoundTrip)
{
    TempDir dir("snap-roundtrip");
    runner::SnapshotCache cache(dir.path());
    const std::string body("warmed-simulator-state\0with-nul", 31);

    bool rejected = true;
    EXPECT_FALSE(cache.load("groupA", 42, &rejected).has_value());
    EXPECT_FALSE(rejected) << "absent file is a plain miss";

    cache.store("groupA", 42, body);
    std::optional<std::string> loaded = cache.load("groupA", 42, &rejected);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, body);
    EXPECT_FALSE(rejected);

    // Same key, different input identity: the frame exists but must not
    // bind warmed state to the wrong input — a reject, not a hit.
    EXPECT_FALSE(cache.load("groupA", 43, &rejected).has_value());
    EXPECT_TRUE(rejected);

    // Different key hashes to a different file: plain miss.
    EXPECT_FALSE(cache.load("groupB", 42, &rejected).has_value());
    EXPECT_FALSE(rejected);

    // Overwrites replace atomically.
    cache.store("groupA", 42, "second-body");
    loaded = cache.load("groupA", 42);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "second-body");
}

TEST(SnapshotCache, RejectsTamperedFrames)
{
    TempDir dir("snap-tamper");
    runner::SnapshotCache cache(dir.path());
    cache.store("group", 7, "snapshot-body-bytes");
    const std::string path = cache.pathFor("group");
    ASSERT_TRUE(fs::exists(path));

    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string pristine = buf.str();
    in.close();

    const auto rewrite = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    };
    bool rejected = false;

    // Truncated mid-frame.
    rewrite(pristine.substr(0, pristine.size() / 2));
    EXPECT_FALSE(cache.load("group", 7, &rejected).has_value());
    EXPECT_TRUE(rejected);

    // Flipped body byte: checksum mismatch.
    std::string corrupt = pristine;
    corrupt.back() ^= 0x5a;
    rewrite(corrupt);
    EXPECT_FALSE(cache.load("group", 7, &rejected).has_value());
    EXPECT_TRUE(rejected);

    // Wrong magic.
    corrupt = pristine;
    corrupt[0] = 'X';
    rewrite(corrupt);
    EXPECT_FALSE(cache.load("group", 7, &rejected).has_value());
    EXPECT_TRUE(rejected);

    // A file written under a different epoch (old binary's cache) is
    // rejected by the current epoch and vice versa.
    runner::SnapshotCache old_epoch(dir.path(), "ancient-epoch");
    old_epoch.store("group", 7, "snapshot-body-bytes");
    EXPECT_FALSE(cache.load("group", 7, &rejected).has_value());
    EXPECT_TRUE(rejected);

    // Restore a valid frame: loads again.
    rewrite(pristine);
    EXPECT_TRUE(cache.load("group", 7, &rejected).has_value());
    EXPECT_FALSE(rejected);
}

TEST(SnapshotCache, GcReapsInvalidEntriesAndAppliesLruBudget)
{
    TempDir dir("snap-gc");
    runner::SnapshotCache cache(dir.path());
    cache.store("keep-me", 1, std::string(64, 'a'));
    // An entry from a previous epoch fails frame validation -> evicted.
    runner::SnapshotCache old_epoch(dir.path(), "ancient-epoch");
    old_epoch.store("stale-entry", 2, std::string(64, 'b'));
    {
        std::ofstream junk(dir.path() + "/feedface.snap",
                           std::ios::binary);
        junk << "not a snapshot frame";
    }

    runner::CacheGcStats stats = cache.gc();
    EXPECT_EQ(stats.scanned, 3u);
    EXPECT_EQ(stats.staleEvicted, 2u);
    EXPECT_EQ(stats.lruEvicted, 0u);
    EXPECT_TRUE(cache.load("keep-me", 1).has_value());

    // LRU budget: store several entries, age the older ones, then gc to
    // a budget that only fits the newest.
    for (int i = 0; i < 4; i++) {
        const std::string key = "entry-" + std::to_string(i);
        cache.store(key, 1, std::string(512, char('a' + i)));
        if (i < 3)
            fs::last_write_time(cache.pathFor(key),
                                fs::file_time_type::clock::now() -
                                    std::chrono::seconds(100 - i));
    }
    stats = cache.gc(1024);
    EXPECT_GE(stats.lruEvicted, 1u);
    EXPECT_LE(stats.bytesAfter, 1024u);
    EXPECT_TRUE(cache.load("entry-3", 1).has_value())
        << "most recently written entry survives the LRU pass";
}

TEST(ResultCache, GcEnforcesLruSizeBudget)
{
    TempDir dir("cache-gc-lru");
    runner::ResultCache cache(dir.path());

    std::vector<Job> jobs;
    for (unsigned len : {8u, 16u, 24u, 32u})
        jobs.push_back(Job{"BFS", SystemMode::AccelSpec, len, 1, 1});
    for (const Job &job : jobs)
        cache.store(job, sim::RunResult{});

    // Entries are near-identical in size; budget for roughly one.
    const std::uint64_t one_entry =
        fs::file_size(cache.pathFor(jobs[0]));

    // Touch the first-stored entry so it is the most recently used.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(cache.load(jobs[0]).has_value());

    runner::CacheGcStats stats = cache.gc(one_entry + one_entry / 2);
    EXPECT_EQ(stats.lruEvicted, 3u);
    EXPECT_LE(stats.bytesAfter, one_entry + one_entry / 2);
    EXPECT_TRUE(cache.load(jobs[0]).has_value())
        << "LRU evicted the most recently used entry";
    EXPECT_FALSE(cache.load(jobs[1]).has_value());
    EXPECT_FALSE(cache.load(jobs[2]).has_value());
    EXPECT_FALSE(cache.load(jobs[3]).has_value());

    // Unlimited budget (0) never LRU-evicts.
    cache.store(jobs[1], sim::RunResult{});
    EXPECT_EQ(cache.gc(0).lruEvicted, 0u);
    EXPECT_TRUE(cache.load(jobs[1]).has_value());
}

// --- Interrupt cleanup registry ------------------------------------------

TEST(Interrupt, RegistryUnlinksActiveSlotsOnly)
{
    TempDir dir("interrupt-reg");
    const std::string keep = dir.path() + "/keep.tmp";
    const std::string drop = dir.path() + "/drop.tmp";
    std::ofstream(keep) << "keep";
    std::ofstream(drop) << "drop";

    int keep_slot = interrupt::registerCleanupFile(keep.c_str());
    int drop_slot = interrupt::registerCleanupFile(drop.c_str());
    ASSERT_GE(keep_slot, 0);
    ASSERT_GE(drop_slot, 0);
    interrupt::unregisterCleanupFile(keep_slot);

    EXPECT_EQ(interrupt::cleanupRegisteredFiles(), 1u);
    EXPECT_TRUE(fs::exists(keep));
    EXPECT_FALSE(fs::exists(drop));
    interrupt::unregisterCleanupFile(drop_slot);

    // Oversized paths are rejected, not truncated.
    const std::string huge(interrupt::kMaxCleanupPath + 10, 'x');
    EXPECT_LT(interrupt::registerCleanupFile(huge.c_str()), 0);
    EXPECT_EQ(interrupt::exitCodeFor(SIGINT), 130);
    EXPECT_EQ(interrupt::exitCodeFor(SIGTERM), 143);
}

TEST(Interrupt, SignalHandlerUnlinksAndExitsWithSignalCode)
{
    TempDir dir("interrupt-sig");
    const std::string victim = dir.path() + "/halfwritten.tmp";
    std::ofstream(victim) << "partial cache entry";

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the handler exactly as cmdRun/cmdSweep do, then
        // deliver the signal to ourselves.
        interrupt::installCleanupSignalHandlers();
        interrupt::registerCleanupFile(victim.c_str());
        raise(SIGINT);
        _exit(99);    // not reached: the handler _exits first
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);
    EXPECT_FALSE(fs::exists(victim));
}

TEST(Runner, ForkGroupSnapshotKeyIgnoresJobListOrder)
{
    // The warmed-snapshot cache key is derived from the fork group's
    // representative job, which used to be whichever group member the
    // caller listed first — so reordering a job list silently turned
    // cache hits into fresh warmups. Misses are now partitioned in
    // canonical (hash-sorted) order, so a reversed job list must reuse
    // the snapshot the original order persisted.
    TempDir tmp("orderkey");
    std::vector<Job> jobs = {
        {"bfs", SystemMode::MappingOnly, 16, 1, 1, 3000},
        {"bfs", SystemMode::AccelNoSpec, 16, 1, 1, 3000},
        {"bfs", SystemMode::AccelSpec, 16, 1, 1, 3000},
    };

    // The plan itself, shared by the runner and the cluster worker:
    // the same units with the same member order for either list order.
    const auto plannedKeys = [](const std::vector<Job> &list) {
        std::vector<std::vector<std::string>> keys;
        for (const auto &unit :
             runner::planUnits(list, {2, 0, 1}, /*fork=*/true)) {
            keys.emplace_back();
            for (std::size_t i : unit)
                keys.back().push_back(list[i].key());
        }
        return keys;
    };
    const auto forward = plannedKeys(jobs);
    ASSERT_EQ(forward.size(), 1u);
    EXPECT_EQ(forward.front().size(), 3u);
    EXPECT_EQ(plannedKeys({jobs.rbegin(), jobs.rend()}), forward);

    runner::RunnerOptions opts;
    opts.jobs = 1;
    opts.snapshotCacheDir = tmp.path();

    runner::Runner first(opts);
    first.runAll(jobs);
    EXPECT_EQ(first.forkStats().warmups.load(), 1u);
    EXPECT_EQ(first.forkStats().snapshotMisses.load(), 1u);

    std::reverse(jobs.begin(), jobs.end());
    runner::Runner second(opts);
    const auto outcomes = second.runAll(jobs);
    EXPECT_EQ(second.forkStats().snapshotHits.load(), 1u);
    EXPECT_EQ(second.forkStats().warmups.load(), 0u);
    for (const auto &outcome : outcomes)
        EXPECT_TRUE(outcome.result.functionallyCorrect);
}

TEST(Runner, LoneWarmupUnitForksOnlyWithASnapshotCache)
{
    // A one-member warmup unit has nothing to share a warm pass with:
    // it runs straight unless a snapshot cache can persist the prefix.
    // Either way the result is the same bytes.
    TempDir tmp("lone-warmup");
    const std::vector<Job> jobs = {
        {"bfs", SystemMode::AccelSpec, 16, 1, 1, 3000}};
    std::vector<runner::JobOutcome> straight(1), forked(1);
    runner::ForkGroupStats stats;
    runner::runUnit(jobs, {0}, straight, nullptr, nullptr, &stats);
    EXPECT_EQ(stats.warmups.load(), 0u);

    const runner::SnapshotCache snaps(tmp.path());
    runner::runUnit(jobs, {0}, forked, nullptr, &snaps, &stats);
    EXPECT_EQ(stats.warmups.load(), 1u);
    EXPECT_EQ(reportFor(forked, nullptr), reportFor(straight, nullptr));
}
