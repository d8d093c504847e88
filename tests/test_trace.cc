/**
 * @file
 * Tests for the event-tracing layer (src/trace): the zero-cost
 * contract (an unattached or fully-filtered sink buffers nothing and
 * allocates nothing), timing non-perturbation (stat reports are
 * byte-identical with and without a sink), Chrome-JSON validity via
 * the repo's own parser, Konata header/retire structure, and the
 * headline determinism guarantee — the same job traces to the same
 * bytes on any thread.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "common/json.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "trace/trace.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace
{

/** Both renderings of @p sink, Chrome JSON then the Konata log. */
std::pair<std::string, std::string>
render(const trace::TraceSink &sink)
{
    std::ostringstream chrome, konata;
    sink.writeChromeJson(chrome);
    sink.writeKonata(konata);
    return {chrome.str(), konata.str()};
}

} // namespace

// --- Zero-cost contract --------------------------------------------------

TEST(TraceSink, UntouchedSinkHoldsNoHeap)
{
    trace::TraceSink sink;
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.instCount(), 0u);
    EXPECT_EQ(sink.markCount(), 0u);
    EXPECT_EQ(sink.bufferedBytes(), 0u);
}

TEST(TraceSink, WindowFilterDropsEventsWithoutAllocating)
{
    // A window past the end of the run: every hook still fires, but
    // nothing may be buffered — and since filtering happens before the
    // push, the vectors must never have grown.
    trace::TraceSink::Options window;
    window.beginCycle = std::numeric_limits<Cycle>::max() - 1;
    trace::TraceSink sink(window);

    sim::RunResult res =
        runner::execute(Job{"BP", SystemMode::AccelSpec, 32, 1, 1}, &sink);
    EXPECT_GT(res.instsTotal, 0u);
    EXPECT_EQ(sink.eventCount(), 0u);
    EXPECT_EQ(sink.bufferedBytes(), 0u);
}

TEST(TraceSink, WindowKeepsOnlyOverlappingEvents)
{
    trace::TraceSink::Options window;
    window.beginCycle = 100;
    window.endCycle = 200;
    trace::TraceSink sink(window);

    trace::InstEvent inside;
    inside.fetch = 150;
    inside.retire = 160;
    sink.instRetired(inside);

    trace::InstEvent before;
    before.fetch = 10;
    before.retire = 20;
    sink.instRetired(before);

    trace::InstEvent straddling;
    straddling.fetch = 90;
    straddling.retire = 110;
    sink.instRetired(straddling);

    sink.mark(trace::Mark::TCacheHit, 50);   // outside
    sink.mark(trace::Mark::TCacheHit, 150);  // inside
    sink.span(trace::Mark::Invocation, 190, 250);  // straddles the end

    EXPECT_EQ(sink.instCount(), 2u);
    EXPECT_EQ(sink.markCount(), 2u);
}

// --- Non-perturbation ----------------------------------------------------

TEST(TraceRunner, AttachedSinkDoesNotPerturbResults)
{
    for (SystemMode mode :
         {SystemMode::BaselineOoo, SystemMode::AccelSpec}) {
        const Job job{"BFS", mode, 32, 1, 1};
        const sim::RunResult plain = runner::execute(job, nullptr);
        trace::TraceSink sink;
        const sim::RunResult traced = runner::execute(job, &sink);
        // Byte-identical serialized reports: tracing observed the run
        // without changing a single cycle or statistic.
        EXPECT_EQ(runner::resultToJson(plain).dump(2),
                  runner::resultToJson(traced).dump(2))
            << "tracing perturbed " << job.key();
        EXPECT_GT(sink.eventCount(), 0u);
    }
}

// --- Rendering -----------------------------------------------------------

TEST(TraceSink, ChromeJsonParsesAndHasPipelineSpans)
{
    trace::TraceSink sink;
    runner::execute(Job{"BFS", SystemMode::AccelSpec, 32, 1, 1}, &sink);
    ASSERT_GT(sink.instCount(), 0u);
    ASSERT_GT(sink.markCount(), 0u);

    std::ostringstream os;
    sink.writeChromeJson(os);
    const json::Value doc = json::Value::parse(os.str());

    const json::Array &events = doc.at("traceEvents").asArray();
    ASSERT_FALSE(events.empty());

    std::size_t host_spans = 0, invocation_spans = 0, counters = 0;
    for (const json::Value &ev : events) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "X" && ev.at("pid").asUint() == 0) {
            host_spans++;
            // Every pipeline span carries its program counter.
            EXPECT_NO_THROW(ev.at("args").at("pc").asUint());
        }
        if (ph == "X" && ev.at("pid").asUint() == 1 &&
            ev.at("name").asString() == "invocation") {
            invocation_spans++;
        }
        if (ph == "C")
            counters++;
    }
    EXPECT_GT(host_spans, 0u);
    // accel-spec offloads traces: the control plane must show
    // invocation spans and in-flight FIFO counter samples.
    EXPECT_GT(invocation_spans, 0u);
    EXPECT_GT(counters, 0u);
}

TEST(TraceSink, KonataLogHasHeaderAndRetires)
{
    trace::TraceSink sink;
    runner::execute(Job{"BP", SystemMode::BaselineOoo, 32, 1, 1}, &sink);

    std::ostringstream os;
    sink.writeKonata(os);
    const std::string log = os.str();
    EXPECT_EQ(log.rfind("Kanata\t0004\n", 0), 0u) << "missing header";
    EXPECT_NE(log.find("\nI\t"), std::string::npos) << "no inst records";
    EXPECT_NE(log.find("\nR\t"), std::string::npos) << "no retirements";
}

// --- Determinism across threads ------------------------------------------

TEST(TraceRunner, SameJobTracesToSameBytes)
{
    const Job job{"BFS", SystemMode::AccelSpec, 16, 1, 1};

    trace::TraceSink here;
    runner::execute(job, &here);

    // The second run happens on a pool worker: a trace depends on the
    // job alone, not on the thread that simulates it.
    trace::TraceSink pooled;
    runner::ThreadPool pool(1);
    pool.parallelFor(1, [&](std::size_t) { runner::execute(job, &pooled); });

    ASSERT_GT(here.eventCount(), 0u);
    const auto [chrome_a, konata_a] = render(here);
    const auto [chrome_b, konata_b] = render(pooled);
    EXPECT_EQ(chrome_a, chrome_b) << "Chrome JSON differs";
    EXPECT_EQ(konata_a, konata_b) << "Konata log differs";
}
