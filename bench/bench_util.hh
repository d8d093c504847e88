/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
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
 * binaries stay argument-free:
 *
 *   DYNASPAM_JOBS=N     worker threads (default: hardware concurrency)
 *   DYNASPAM_CACHE=DIR  enable the on-disk result cache at DIR
 */

#ifndef DYNASPAM_BENCH_BENCH_UTIL_HH
#define DYNASPAM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

} // namespace dynaspam::bench

#endif // DYNASPAM_BENCH_BENCH_UTIL_HH
