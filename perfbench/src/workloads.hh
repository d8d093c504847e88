/**
 * @file
 * The four benchmark workloads. Each runs set-up several times (set-up
 * time is the median), measures for the configured seconds, checks every
 * output it produced, and fills a RunOutput with end-to-end metrics
 * (untraced) and, when tracing, the per-layer metrics derived from spans
 * around its calls into the program.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "ledger.hh"
#include "spans.hh"

namespace perfbench
{

struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for caches and logs (emptied by the caller). */
    std::string workDir;
    /** Host processors; sweeps run nproc - 1 runner threads. */
    unsigned nproc = 1;
    /** The `dynaspam` binary driven by the serving workloads. */
    std::string dynaspamBin;
};

/** Fig8 over 11 kernels from an empty result cache via Runner::runAll. */
void runSweepCold(const RunConfig &cfg, Tracer &tracer, RunOutput &out);

/** Table5-shaped forked sweep: a cold then a warm snapshot-cache pass. */
void runSweepFork(const RunConfig &cfg, Tracer &tracer, RunOutput &out);

/** Mixed hit/miss traffic against `dynaspam serve` (@p cluster false) or
 *  `dynaspam coordinator` plus two workers (@p cluster true). */
void runServing(const RunConfig &cfg, bool cluster, Tracer &tracer,
                RunOutput &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
