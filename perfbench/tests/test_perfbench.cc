/**
 * @file
 * The benchmark's own tests: seeded inputs, span self time, the
 * percentile rule, failure accounting, and the metric manifest.
 */

#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "ledger.hh"
#include "metrics.hh"
#include "schedule.hh"
#include "spans.hh"
#include "workloads/workload.hh"

using namespace perfbench;

namespace
{

std::string
jobListBytes(const std::vector<dynaspam::runner::Job> &jobs)
{
    std::string out;
    for (const auto &job : jobs)
        out += job.key() + "\n";
    return out;
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end)
{
    Span s;
    s.name = parent ? "child" : "parent";
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

} // namespace

TEST(Schedule, SameSeedSameBytes)
{
    EXPECT_EQ(scheduleBytes(makeServeSchedule(42)),
              scheduleBytes(makeServeSchedule(42)));
    EXPECT_EQ(jobListBytes(coldSweepJobs(42)), jobListBytes(coldSweepJobs(42)));
    const std::vector<std::uint64_t> warm(11, 1000);
    EXPECT_EQ(jobListBytes(forkSweepJobs(warm, 42)),
              jobListBytes(forkSweepJobs(warm, 42)));
}

TEST(Schedule, OtherSeedOtherOrderSameContent)
{
    EXPECT_NE(scheduleBytes(makeServeSchedule(1)),
              scheduleBytes(makeServeSchedule(2)));

    const auto a = coldSweepJobs(1), b = coldSweepJobs(2);
    EXPECT_NE(jobListBytes(a), jobListBytes(b));
    std::multiset<std::string> ka, kb;
    for (const auto &job : a)
        ka.insert(job.key());
    for (const auto &job : b)
        kb.insert(job.key());
    EXPECT_EQ(ka, kb);
    EXPECT_EQ(a.size(), 44u);

    // canonicalOrder maps either permutation back to the same list.
    const auto canonical = dynaspam::runner::sweepJobs(
        "fig8", dynaspam::workloads::allWorkloadNames(), kSweepScale, 32);
    std::string ca, cb;
    for (std::size_t i : canonicalOrder(a, canonical))
        ca += a[i].key() + "\n";
    for (std::size_t i : canonicalOrder(b, canonical))
        cb += b[i].key() + "\n";
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(ca, jobListBytes(canonical));
}

TEST(Schedule, OneUniqueMissPerBlock)
{
    const ServeSchedule s = makeServeSchedule(3);
    ASSERT_EQ(s.requests.size() % kBlockRequests, 0u);
    std::set<std::string> misses;
    for (std::size_t b = 0; b < s.requests.size(); b += kBlockRequests) {
        unsigned blockMisses = 0;
        for (std::size_t i = b; i < b + kBlockRequests; i++) {
            if (!s.requests[i].hit) {
                blockMisses++;
                EXPECT_TRUE(misses.insert(s.requests[i].body).second);
            }
        }
        EXPECT_EQ(blockMisses, 1u);
    }
    EXPECT_LE(s.hotJobs, 1024u);
}

TEST(Spans, SelfTimeIsDurationMinusUnionOfChildren)
{
    // Children overlap each other and one runs past its parent's end:
    // covered = [10, 50) + [90, 100) = 50 of the parent's 100.
    const std::vector<Span> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 1, 90, 120)};
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 50e-9);
    EXPECT_DOUBLE_EQ(self[1], 20e-9);
    EXPECT_DOUBLE_EQ(self[2], 30e-9);
    EXPECT_DOUBLE_EQ(self[3], 30e-9);

    const auto totals = layerTotals(spans);
    EXPECT_EQ(totals.at("child").count, 3u);
    EXPECT_DOUBLE_EQ(totals.at("child").selfSeconds, 80e-9);
    EXPECT_DOUBLE_EQ(totals.at("parent").totalSeconds, 100e-9);
}

TEST(Spans, ScopesNestPerThread)
{
    Tracer tracer(true);
    {
        auto root = tracer.root("sweep");
        auto child = tracer.span("oracle");
        auto grandchild = tracer.span("workloads.build");
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    // Destroyed innermost first.
    EXPECT_EQ(spans[0].name, "workloads.build");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, spans[2].id);
    EXPECT_EQ(spans[2].parent, 0u);
    for (const Span &s : spans)
        EXPECT_EQ(s.trace, spans[2].id);

    Tracer off(false);
    {
        auto s = off.root("sweep");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    std::vector<double> xs;
    for (int i = 1; i <= 999; i++)
        xs.push_back(i);
    EXPECT_FALSE(percentile(xs, 0.99).has_value());     // 9 beyond
    xs.push_back(1000);
    ASSERT_TRUE(percentile(xs, 0.99).has_value());      // 10 beyond
    EXPECT_DOUBLE_EQ(*percentile(xs, 0.99), 990.0);

    EXPECT_FALSE(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5));
    EXPECT_FALSE(percentile({}, 0.5));
    EXPECT_DOUBLE_EQ(median({3, 1, 2, 4}), 2.5);

    // The tail falls back to the highest percentile that has ten
    // samples beyond it, then to the median.
    EXPECT_DOUBLE_EQ(tailPercentile(xs, 0.99).q, 0.99);
    xs.resize(100);
    const Tail t = tailPercentile(xs, 0.99);
    EXPECT_DOUBLE_EQ(t.q, 0.9);
    EXPECT_DOUBLE_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile({4, 1, 3, 2}, 0.99).value, 2.5);
}

TEST(Ledger, FailuresRaiseErrorFrac)
{
    using dynaspam::runner::Job;
    using dynaspam::runner::JobOutcome;
    Ledger ledger;
    std::vector<JobOutcome> sweep(2);
    sweep[0].job = Job{"bfs", dynaspam::sim::SystemMode::AccelSpec};
    sweep[1].job = Job{"nw", dynaspam::sim::SystemMode::AccelNoSpec};
    for (JobOutcome &o : sweep)
        o.result.functionallyCorrect = true;
    checkSweep(ledger, sweep, "report", "", "sweep");
    checkResponse(ledger, 200, true, "/sweep");
    EXPECT_EQ(ledger.attempted(), 3u);
    EXPECT_EQ(ledger.errorFrac(), 0.0);

    // A non-200 response.
    checkResponse(ledger, 503, false, "/run");
    EXPECT_EQ(ledger.failed(), 1u);
    EXPECT_DOUBLE_EQ(ledger.errorFrac(), 1.0 / 4.0);

    // An incorrect job, and report bytes that differ from the reference.
    sweep[1].result.functionallyCorrect = false;
    checkSweep(ledger, sweep, "report", "report", "sweep");
    EXPECT_DOUBLE_EQ(ledger.errorFrac(), 2.0 / 6.0);
    sweep[1].result.functionallyCorrect = true;
    checkSweep(ledger, sweep, "report", "other", "replay");
    EXPECT_DOUBLE_EQ(ledger.errorFrac(), 4.0 / 8.0);

    // A 200 whose body fails its check.
    checkResponse(ledger, 200, false, "/sweep");
    EXPECT_EQ(ledger.failed(), 5u);

    const auto failures = ledger.failures();
    ASSERT_EQ(failures.size(), 5u);
    EXPECT_NE(failures[0].find("503"), std::string::npos);
    EXPECT_NE(failures[1].find("not functionally correct"), std::string::npos);
    EXPECT_NE(failures[2].find("report bytes differ"), std::string::npos);
    EXPECT_NE(failures[4].find("wrong body"), std::string::npos);
}

TEST(Manifest, BenchmarkJsonListsEveryPrintedMetric)
{
    std::ifstream is(PERFBENCH_MANIFEST);
    ASSERT_TRUE(is) << PERFBENCH_MANIFEST;
    std::stringstream buf;
    buf << is.rdbuf();
    const auto manifest = dynaspam::json::Value::parse(buf.str());

    auto check = [&](const char *key, const std::vector<MetricSpec> &specs) {
        const auto &listed = manifest.at(key).asArray();
        ASSERT_EQ(listed.size(), specs.size()) << key;
        for (std::size_t i = 0; i < specs.size(); i++) {
            EXPECT_EQ(listed[i].at("name").asString(), specs[i].name);
            EXPECT_EQ(listed[i].at("unit").asString(), specs[i].unit);
            EXPECT_EQ(listed[i].at("better").asString(),
                      specs[i].higherIsBetter ? "higher" : "lower");
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
}
