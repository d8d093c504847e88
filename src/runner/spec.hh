/**
 * @file
 * Job specs as clients send them: strict parsing and validation of the
 * JSON bodies of POST /run and POST /sweep, and of the /run query
 * string.
 *
 * Both HTTP front ends (the single-process daemon and the cluster
 * coordinator) parse through these functions, so they accept and
 * reject exactly the same inputs. Every rejection throws FatalError
 * with a descriptive message, which the front ends answer with 400.
 */

#ifndef DYNASPAM_RUNNER_SPEC_HH
#define DYNASPAM_RUNNER_SPEC_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/job.hh"

namespace dynaspam::runner
{

/**
 * Parse + strictly validate one job-spec JSON object
 * ({"workload": ..., "mode": ..., "trace_length": ..., ...}).
 * @throws FatalError with a descriptive message -> 400
 */
Job jobFromSpecJson(const json::Value &value);

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
 * ("/run?fidelity=sampled&warmup_insts=N") on top of the body spec.
 * The query wins over the body, so a client can select the fidelity
 * tier per request without rewriting its specs. A target without a
 * query leaves @p job unchanged.
 * @throws FatalError on an unknown parameter or a bad value -> 400
 */
void applyRunQuery(Job &job, const std::string &target);

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_SPEC_HH
