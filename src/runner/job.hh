/**
 * @file
 * Experiment job specification.
 *
 * A Job names one simulation point of the evaluation space: a workload,
 * a named system configuration, and the sweep parameters (trace length,
 * fabric count, problem scale). Jobs are plain values so they can be
 * queued on the thread pool, hashed for the on-disk result cache, and
 * serialized into sweep reports.
 *
 * The content hash is FNV-1a over the canonical key string, so it is
 * stable across processes, platforms and standard-library versions —
 * a requirement for the cache file naming scheme.
 */

#ifndef DYNASPAM_RUNNER_JOB_HH
#define DYNASPAM_RUNNER_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/trace.hh"

namespace dynaspam::sim
{
class Simulation;
} // namespace dynaspam::sim

namespace dynaspam::runner
{

/**
 * Result fidelity tier. Full simulates every oracle record in detail;
 * Sampled simulates a detailed warmup prefix plus one measurement
 * window and extrapolates total cycles from the window CPI
 * (SimPoint-style single-interval sampling). Sampled results carry the
 * RunResult::sampled marker; full-fidelity results are byte-identical
 * to what the simulator always produced.
 */
enum class Fidelity : std::uint8_t
{
    Full,
    Sampled,
};

/** @return "full" or "sampled". */
const char *fidelityName(Fidelity fidelity);

/**
 * Parse a fidelity token as printed by fidelityName.
 * @throws FatalError on an unknown token
 */
Fidelity parseFidelity(const std::string &token);

/** Detailed commits in the sampled-fidelity measurement window. */
inline constexpr std::uint64_t kSampledWindowInsts = 50000;

/** One schedulable simulation point. */
struct Job
{
    std::string workload;                ///< registry tag ("bfs", ...)
    sim::SystemMode mode = sim::SystemMode::BaselineOoo;
    unsigned traceLength = 32;
    unsigned numFabrics = 1;
    unsigned scale = 1;

    /**
     * Detailed warmup prefix in committed instructions. 0 means no
     * warmup phase: full-fidelity jobs run straight through and
     * sampled jobs start their window at cycle 0. A non-zero warmup
     * also makes the job eligible for forked-sweep execution (the
     * runner simulates the shared prefix once per group and forks each
     * configuration from the warmed snapshot).
     */
    std::uint64_t warmupInsts = 0;

    Fidelity fidelity = Fidelity::Full;

    /** Canonical key: `workload|mode|trace|fabrics|scale|warmup|fidelity`. */
    std::string key() const;

    /** Stable 64-bit FNV-1a content hash of key(). */
    std::uint64_t hash() const;

    /** hash() as a fixed-width lowercase hex string (cache file stem). */
    std::string hashHex() const;

    bool operator==(const Job &other) const = default;
};

/**
 * Parse a mode token as printed by sim::modeName ("baseline-ooo",
 * "mapping-only", "accel-nospec", "accel-spec", "accel-naive").
 * @throws FatalError on an unknown token
 */
sim::SystemMode parseMode(const std::string &token);

/**
 * Fork-group key: jobs fork together when they agree on everything the
 * warmup prefix can observe — the input (workload, scale), the
 * trace-detection geometry (traceLength), controller presence, and the
 * stop rule (warmupInsts, fidelity). Mode and numFabrics may differ
 * within a group; the WarmupGuard catches the first prefix decision
 * that would notice the difference. Shared by the in-process runner,
 * the snapshot cache, and the cluster coordinator's sharding.
 */
std::string forkGroupKey(const Job &job);

/**
 * Sharding hash for the cluster: the FNV-1a of forkGroupKey for
 * warmup-eligible jobs (so every member of a fork group maps to the
 * same worker slot and the group warms exactly once), and the plain
 * per-job hash otherwise (keeping non-warmup sharding unchanged).
 */
std::uint64_t forkGroupHash(const Job &job);

/**
 * Build the job list for one named sweep — "fig7", "fig8", "fig9",
 * "table5" or "ablation-mapper" — over @p workloads. Unchecked: the
 * CLI (`dynaspam sweep`) and POST /sweep both expand through
 * runner::namedSweepJobs (runner/spec.hh), which checks the parameters
 * first, so both expand a sweep name to the exact same points.
 * @throws FatalError on an unknown sweep name
 */
std::vector<Job> sweepJobs(const std::string &sweep,
                           const std::vector<std::string> &workloads,
                           unsigned scale, unsigned trace_length);

/**
 * Execute @p job: build the workload, construct a fresh Simulation and
 * run it. Thread-safe — every call uses only job-local state.
 *
 * @p sink, when not null, is attached for the timing pass; the caller
 * owns it and renders it (`dynaspam trace` is the front end). Nothing
 * is written to disk, and a traced run's result is byte-identical to
 * an untraced one.
 */
sim::RunResult execute(const Job &job, trace::TraceSink *sink = nullptr);

/**
 * Drive an already-constructed (possibly snapshot-restored) simulation
 * to @p job's stop point and assemble its result. Full fidelity runs
 * to completion; sampled fidelity runs the detailed warmup + window
 * prefix and extrapolates total cycles from the window CPI. The forked
 * sweep path in Runner calls this on restored forks so both paths
 * share one stop/collect rule.
 */
sim::RunResult finishSimulation(const Job &job, sim::Simulation &simu);

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_JOB_HH
