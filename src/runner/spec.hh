/**
 * @file
 * The job schema: the one place that knows a runner::Job's fields,
 * defaults and bounds (tabled in EXPERIMENTS.md, "Serving").
 *
 * The CLI, POST /run and its query string, POST /sweep, explore
 * spaces, the cluster wire and the result cache all build jobs through
 * this module, so they accept exactly the same jobs. A rejection
 * throws FatalError naming the field and its CLI flag: 400 over HTTP,
 * exit 2 on the CLI.
 */

#ifndef DYNASPAM_RUNNER_SPEC_HH
#define DYNASPAM_RUNNER_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/job.hh"

namespace dynaspam::runner
{

/**
 * Check @p job: a registered workload, trace_length in [1, 4096],
 * num_fabrics and scale in [1, 64], warmup_insts at most 1e9.
 * @throws FatalError naming the first bad field
 */
void checkJob(const Job &job);

/**
 * Decode and check one job object, as clients send it and as jobToJson
 * writes it. "workload" is required; a missing field takes its default
 * (mode accel-spec, the rest Job's). A "hash" must equal hashHex().
 * @throws FatalError on an unknown field, a bad value or a wrong hash
 */
Job jobFromJson(const json::Value &value);

/** Encode every field of @p job plus its hash (reports, wire, cache). */
json::Value jobToJson(const Job &job);

/**
 * The checked named-sweep expansion behind `dynaspam sweep` and POST
 * /sweep: checks every parameter as a job field (also those a sweep
 * ignores, like fig7's trace length), then expands through sweepJobs
 * with canonical @p tags and @p warmup_insts, @p fidelity on each job.
 * @throws FatalError on a bad parameter, tag list or sweep name
 */
std::vector<Job> namedSweepJobs(const std::string &sweep,
                                const std::vector<std::string> &tags,
                                unsigned scale, unsigned trace_length,
                                std::uint64_t warmup_insts = 0,
                                Fidelity fidelity = Fidelity::Full);

/** Parsed form of a POST /sweep request body. */
struct SweepRequest
{
    std::string name;               ///< sweep name ("custom" for jobs[])
    std::vector<Job> jobs;
};

/**
 * Parse + validate a POST /sweep body: either a named sweep
 * ({"sweep": "fig8", "workloads": [...], "scale": N, ...}) or an
 * explicit {"jobs": [...]} list.
 * @throws FatalError with a descriptive message -> 400
 */
SweepRequest parseSweepBody(const std::string &body);

/**
 * Apply the query parameters of a /run request target
 * ("/run?fidelity=sampled&warmup_insts=N") on top of the body spec,
 * then checkJob. The query wins over the body, so a client can
 * select the fidelity tier per request without rewriting its specs. A
 * target without a query leaves @p job unchanged.
 * @throws FatalError on an unknown parameter or a bad value -> 400
 */
void applyRunQuery(Job &job, const std::string &target);

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_SPEC_HH
