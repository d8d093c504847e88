/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses, and the
 * one harness of the four gated benches.
 *
 * Each bench binary reproduces one table or figure from the paper's
 * evaluation section: it runs the 11 workloads through the relevant
 * system configurations and prints the same rows/series the paper
 * reports. Absolute numbers differ from the paper (the substrate is this
 * repository's simulator, not the authors' gem5 testbed); the *shape* —
 * who wins, by roughly what factor, where the crossovers fall — is the
 * reproduction target. See EXPERIMENTS.md.
 *
 * Since the runner subsystem landed, benches are two-phase: build the
 * full job list up front, execute it through runner::Runner (parallel
 * across worker threads, optionally cached), then print rows from the
 * in-order result vector. Knobs, via environment variables so the
 * figure binaries stay argument-free:
 *
 *   DYNASPAM_JOBS=N     worker threads (default: hardware concurrency)
 *   DYNASPAM_CACHE=DIR  enable the on-disk result cache at DIR
 *
 * The gated benches (bench_simspeed, bench_snapshot, bench_serve,
 * bench_explore) take flags instead, and share one harness here:
 * guardedMain parses argv with the CLI's checked apps::Args, Gates
 * holds their absolute and baseline gates, and writeReport writes the
 * --out JSON. Exit codes: 0 every gate passed, 1 a gate failed, 2 bad
 * usage, an unreadable or incomplete baseline, or a run that could not
 * complete (an "error:" line says why). The two that drive servers use
 * the HTTP client, TempDir and WorkerThread of tests/support.hh.
 * calibrationMops() times a fixed, program-independent loop, so a
 * throughput gate can divide out the speed of the host it ran on.
 */

#ifndef DYNASPAM_BENCH_BENCH_UTIL_HH
#define DYNASPAM_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/runner.hh"
#include "workloads/workload.hh"

namespace dynaspam::bench
{

/** Runner options honoring the bench environment knobs. */
inline runner::RunnerOptions
benchRunnerOptions()
{
    runner::RunnerOptions opts;
    opts.jobs = 0;      // DYNASPAM_JOBS / hardware concurrency
    if (const char *dir = std::getenv("DYNASPAM_CACHE"))
        opts.cacheDir = dir;
    return opts;
}

/**
 * Execute @p jobs through a fresh Runner and return the results in job
 * order. Results are independent of the worker count.
 */
inline std::vector<sim::RunResult>
runJobs(const std::vector<runner::Job> &jobs)
{
    runner::Runner r(benchRunnerOptions());
    std::vector<runner::JobOutcome> outcomes = r.runAll(jobs);
    std::vector<sim::RunResult> results;
    results.reserve(outcomes.size());
    for (runner::JobOutcome &outcome : outcomes)
        results.push_back(std::move(outcome.result));
    return results;
}

/**
 * The jobs of the figure sweep @p sweep over every workload at scale 1
 * and trace length 32, grouped by workload in runner::sweepJobs order.
 * sweepJobs owns the grids, so the CLI, the service and the benches run
 * the same points.
 */
inline std::vector<runner::Job>
figureJobs(const std::string &sweep)
{
    return runner::sweepJobs(sweep, workloads::allWorkloadNames(), 1, 32);
}

/** Print a horizontal rule sized for @p width columns of 10 chars. */
inline void
rule(unsigned width)
{
    for (unsigned i = 0; i < width * 10 + 14; i++)
        std::putchar('-');
    std::putchar('\n');
}

/**
 * Host speed in millions of calibration steps per second, the best of
 * @p repeat timed passes. One step is a dependent load along a random
 * cycle through a 256 KiB table (an L2-resident pointer chase, as the
 * cycle loop's structure walks are) plus a multiply-xor mix and a
 * data-dependent branch; the result does not depend on anything in this
 * repository. Divide a throughput by it measured nearby in time and the
 * host's drift cancels: both slow down together when the host is busy
 * or throttled.
 */
inline double
calibrationMops(unsigned repeat)
{
    constexpr std::uint32_t kSlots = 1u << 15;     // 32Ki x 8 bytes
    constexpr std::uint32_t kSteps = 1u << 21;
    // One cycle through every slot: Sattolo's shuffle, from a fixed LCG.
    std::vector<std::uint64_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; i++)
        next[i] = i;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kSlots - 1; i > 0; i--) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(next[i], next[(lcg >> 33) % i]);
    }

    double best = 0.0;
    std::uint64_t sink = 0;
    for (unsigned r = 0; r < repeat; r++) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t at = 0, mix = r;
        for (std::uint32_t step = 0; step < kSteps; step++) {
            at = next[at];
            mix = (mix ^ at) * 0xff51afd7ed558ccdULL;
            if (mix & 0x100)
                mix += step;
        }
        const auto t1 = std::chrono::steady_clock::now();
        sink += mix;
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || secs < best)
            best = secs;
    }
    if (sink == 1)  // keeps the loop observable; practically never true
        std::printf("calibration sink %llu\n",
                    static_cast<unsigned long long>(sink));
    return best > 0.0 ? double(kSteps) / 1e6 / best : 0.0;
}

// --- The gated benches' harness ------------------------------------------

/**
 * Run a gated bench's @p body on argv after the program name. A
 * FatalError (a bad flag or value, an unreadable baseline, a run that
 * cannot complete) prints "error: ..." and exits 2, as the CLI does;
 * otherwise the body's code stands (0 pass, 1 a gate failed, 2 usage).
 */
inline int
guardedMain(int argc, char **argv, int (*body)(apps::Args &))
{
    apps::Args args(argc - 1, argv + 1);
    try {
        return body(args);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }
}

/** Write @p report as indented JSON to @p path and say so. */
inline void
writeReport(const std::string &path, const json::Value &report)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write ", path);
    report.write(os, 2);
    os << "\n";
    if (!os.flush())
        fatal("cannot write ", path);
    std::printf("report written to %s\n", path.c_str());
}

/** Which way a gated metric improves. */
enum class Better
{
    Higher,    ///< the baseline gate is a floor: base * (1 - tol)
    Lower,     ///< the baseline gate is a ceiling: base * (1 + tol)
};

/** How a gated number prints: printf width, decimals, a unit suffix. */
struct Format
{
    int width;
    int precision;
    const char *suffix = "";
};

/**
 * The pass/fail gates of one bench run: absolute gates against fixed
 * thresholds, and regression gates against a checked-in baseline
 * report. Each gate prints one "gate: ... ok" line (or the gate's
 * failure word) and a failed gate makes exitCode() 1.
 */
class Gates
{
  public:
    /**
     * Check @p tolerance and read the baseline report at @p baseline
     * (empty: absolute gates only) now, so bad usage stops the bench
     * before it measures anything. A floor gate (@p better Higher)
     * needs a tolerance in [0, 1); a ceiling gate any non-negative one.
     */
    Gates(const std::string &baseline, double tolerance, Better better)
        : path_(baseline), tolerance_(tolerance), better_(better)
    {
        if (!(tolerance >= 0.0) ||
            (better == Better::Higher && tolerance >= 1.0)) {
            fatal("bad value for --tolerance: ", tolerance,
                  better == Better::Higher ? " (a floor needs [0, 1))"
                                           : " (needs >= 0)");
        }
        if (baseline.empty())
            return;
        std::ifstream is(baseline);
        if (!is)
            fatal("cannot read baseline ", baseline);
        std::stringstream buf;
        buf << is.rdbuf();
        base_ = json::Value::parse(buf.str());
    }

    bool hasBaseline() const { return base_.has_value(); }

    /**
     * The number at @p keys in the baseline. A missing key or a
     * non-positive number is an error: a gate against it would check
     * nothing, so the baseline must be regenerated.
     */
    double
    baselineValue(std::initializer_list<std::string> keys) const
    {
        const json::Value *v = base_ ? &*base_ : nullptr;
        std::string where;
        for (const std::string &key : keys) {
            where += (where.empty() ? "" : ".") + key;
            v = v ? v->find(key) : nullptr;
        }
        if (!v || !v->isNumber())
            fatal("baseline ", path_, " has no number at ", where,
                  " — regenerate it");
        const double value = v->asDouble();
        if (!(value > 0.0))
            fatal("baseline ", path_, " has non-positive ", where, " ",
                  value, " — regenerate it");
        return value;
    }

    /** Gate @p measured against the baseline value @p base. */
    void
    vsBaseline(const std::string &label, double measured, double base,
               Format fmt, const char *unit = "")
    {
        const bool higher = better_ == Better::Higher;
        const double bound =
            base * (higher ? 1.0 - tolerance_ : 1.0 + tolerance_);
        char tol[32];
        std::snprintf(tol, sizeof(tol), "%.0f%%", tolerance_ * 100.0);
        gate(label + " " + num(measured, fmt) + unit + " vs baseline " +
                 num(base, fmt) + (higher ? " (floor " : " (ceiling ") +
                 num(bound, fmt) + ", tol " + tol + ")",
             higher ? measured >= bound : measured <= bound,
             "REGRESSION");
    }

    /** Gate @p measured >= @p required. */
    void
    atLeast(const std::string &label, double measured, double required,
            Format fmt, const char *fail)
    {
        gate(label + " " + num(measured, fmt) + " vs required " +
                 num(required, fmt),
             measured >= required, fail);
    }

    /** Gate @p measured <= @p allowed. */
    void
    atMost(const std::string &label, double measured, double allowed,
           Format fmt, const char *fail)
    {
        gate(label + " " + num(measured, fmt) + " vs allowed " +
                 num(allowed, fmt),
             measured <= allowed, fail);
    }

    /** Print one gate line: @p ok passes, else @p fail fails the run. */
    void
    gate(const std::string &description, bool ok, const char *fail)
    {
        std::printf("gate: %-45s  %s\n", description.c_str(),
                    ok ? "ok" : fail);
        if (!ok)
            failed_ = true;
    }

    /** 0 when every gate passed, else 1. */
    int exitCode() const { return failed_ ? 1 : 0; }

  private:
    static std::string
    num(double value, Format fmt)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%*.*f%s", fmt.width,
                      fmt.precision, value, fmt.suffix);
        return buf;
    }

    std::string path_;
    double tolerance_;
    Better better_;
    std::optional<json::Value> base_;
    bool failed_ = false;
};

} // namespace dynaspam::bench

#endif // DYNASPAM_BENCH_BENCH_UTIL_HH
