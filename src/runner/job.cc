#include "runner/job.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

namespace dynaspam::runner
{

const char *
fidelityName(Fidelity fidelity)
{
    return fidelity == Fidelity::Sampled ? "sampled" : "full";
}

Fidelity
parseFidelity(const std::string &token)
{
    if (token == "full")
        return Fidelity::Full;
    if (token == "sampled")
        return Fidelity::Sampled;
    fatal("unknown fidelity \"", token, "\" (expected full or sampled)");
}

std::string
Job::key() const
{
    // The workload tag is canonicalized so "bfs" and "BFS" are the same
    // cache entry. Appends rather than a stream: every job decode checks
    // its hash, so key() is on the request path.
    return workloads::canonicalWorkloadName(workload) + "|" +
           sim::modeName(mode) + "|" + std::to_string(traceLength) + "|" +
           std::to_string(numFabrics) + "|" + std::to_string(scale) + "|" +
           std::to_string(warmupInsts) + "|" + fidelityName(fidelity);
}

std::uint64_t
Job::hash() const
{
    // FNV-1a, 64-bit: stable across platforms, good enough dispersion
    // for cache file naming (collisions additionally guarded by storing
    // the full key inside the cache file).
    const std::string k = key();
    return bits::fnv1a(k.data(), k.size());
}

std::string
Job::hashHex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash()));
    return std::string(buf);
}

std::string
forkGroupKey(const Job &job)
{
    std::ostringstream os;
    os << workloads::canonicalWorkloadName(job.workload) << "|"
       << job.scale << "|" << job.traceLength << "|"
       << (job.mode != sim::SystemMode::BaselineOoo) << "|"
       << job.warmupInsts << "|" << fidelityName(job.fidelity);
    return os.str();
}

std::uint64_t
forkGroupHash(const Job &job)
{
    if (job.warmupInsts == 0)
        return job.hash();
    const std::string k = forkGroupKey(job);
    return bits::fnv1a(k.data(), k.size());
}

sim::SystemMode
parseMode(const std::string &token)
{
    for (sim::SystemMode mode :
         {sim::SystemMode::BaselineOoo, sim::SystemMode::MappingOnly,
          sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec,
          sim::SystemMode::AccelNaive}) {
        if (token == sim::modeName(mode))
            return mode;
    }
    fatal("unknown system mode \"", token,
          "\" (expected baseline-ooo, mapping-only, accel-nospec, "
          "accel-spec or accel-naive)");
}

std::vector<Job>
sweepJobs(const std::string &sweep,
          const std::vector<std::string> &workloads, unsigned scale,
          unsigned trace_length)
{
    std::vector<Job> jobs;
    auto add = [&](const std::string &wl, sim::SystemMode mode,
                   unsigned len, unsigned fabrics) {
        jobs.push_back(Job{wl, mode, len, fabrics, scale});
    };

    for (const std::string &wl : workloads) {
        if (sweep == "fig7") {
            for (unsigned len : {16u, 24u, 32u, 40u})
                add(wl, sim::SystemMode::AccelSpec, len, 1);
        } else if (sweep == "fig8") {
            for (sim::SystemMode mode :
                 {sim::SystemMode::BaselineOoo, sim::SystemMode::MappingOnly,
                  sim::SystemMode::AccelNoSpec, sim::SystemMode::AccelSpec})
                add(wl, mode, trace_length, 1);
        } else if (sweep == "fig9") {
            for (sim::SystemMode mode :
                 {sim::SystemMode::BaselineOoo, sim::SystemMode::AccelSpec})
                add(wl, mode, trace_length, 1);
        } else if (sweep == "table5") {
            for (unsigned fabrics : {1u, 2u, 4u, 8u})
                add(wl, sim::SystemMode::AccelSpec, trace_length, fabrics);
        } else if (sweep == "ablation-mapper") {
            for (sim::SystemMode mode :
                 {sim::SystemMode::AccelSpec, sim::SystemMode::AccelNaive})
                add(wl, mode, trace_length, 1);
        } else {
            fatal("unknown sweep \"", sweep, "\"");
        }
    }
    return jobs;
}

sim::RunResult
finishSimulation(const Job &job, sim::Simulation &simu)
{
    if (job.fidelity == Fidelity::Full) {
        simu.runToCompletion();
        return simu.collectResult();
    }

    // Sampled: detailed warmup prefix (a restored fork may already be
    // past it), then one detailed measurement window.
    while (!simu.done() && simu.committedInsts() < job.warmupInsts)
        simu.tick();
    const std::uint64_t warmInsts = simu.committedInsts();
    const Cycle warmCycles = simu.now();

    const std::uint64_t target = warmInsts + kSampledWindowInsts;
    while (!simu.done() && simu.committedInsts() < target)
        simu.tick();

    sim::RunResult result = simu.collectResult();
    result.sampled = true;
    result.sampledInsts = simu.committedInsts();
    result.sampledCycles = simu.now();
    if (!simu.done()) {
        // Extrapolate the rest of the trace at the window CPI. Pure
        // integer arithmetic (round-to-nearest) keeps the result
        // deterministic across platforms.
        const std::uint64_t winInsts = simu.committedInsts() - warmInsts;
        const std::uint64_t winCycles = simu.now() - warmCycles;
        const std::uint64_t total = simu.simInput().trace().size();
        const std::uint64_t rest = total - simu.committedInsts();
        const std::uint64_t div = winInsts ? winInsts : 1;
        result.cycles =
            simu.now() + (rest * winCycles + div / 2) / div;
        result.instsTotal = total;
    }
    return result;
}

sim::RunResult
execute(const Job &job, trace::TraceSink *sink)
{
    workloads::Workload wl = workloads::makeWorkload(job.workload,
                                                     job.scale);
    sim::SystemConfig cfg = sim::SystemConfig::make(job.mode,
                                                    job.traceLength,
                                                    job.numFabrics);
    cfg.traceSink = sink;
    // finishSimulation owns the sampled stop rule for straight and
    // forked execution alike.
    sim::Simulation simu(cfg,
                         sim::SimInput::make(wl.program, wl.initialMemory));
    return finishSimulation(job, simu);
}

} // namespace dynaspam::runner
