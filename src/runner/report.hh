/**
 * @file
 * JSON serialization of experiment results and sweep reports.
 *
 * Two layers:
 *  - resultToJson / resultFromJson round-trip a complete sim::RunResult
 *    (cycle count, pipeline/DynaSpAM stats, energy breakdown, stat
 *    registry, instruction split) — this is the on-disk format of the
 *    ResultCache.
 *  - writeSweepReport emits the documented sweep schema: a top-level
 *    object with schema_version, sweep metadata, runner stats, and one
 *    entry per job. See EXPERIMENTS.md ("Sweep JSON schema").
 *
 * Everything here is deterministic: keys are sorted, doubles use
 * shortest-round-trip formatting, and no timestamps are emitted, so the
 * same jobs produce byte-identical reports regardless of thread count.
 */

#ifndef DYNASPAM_RUNNER_REPORT_HH
#define DYNASPAM_RUNNER_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/job.hh"
#include "sim/system.hh"

namespace dynaspam::runner
{

/** The result of one executed (or cache-served) job. */
struct JobOutcome
{
    Job job;
    sim::RunResult result;
    bool fromCache = false;
};

/** Serialize a full RunResult (cache round-trip format, version 1). */
json::Value resultToJson(const sim::RunResult &result);

/**
 * Rebuild a RunResult from resultToJson output.
 * @throws FatalError on schema mismatch
 */
sim::RunResult resultFromJson(const json::Value &value);

/**
 * One sweep-report results[] entry:
 * {"job": ..., "from_cache": ..., "result": ...}. Exposed so a cluster
 * worker can serialize its shard's entries and the coordinator can
 * splice them into a combined report that is byte-identical to a
 * single-process one.
 */
json::Value sweepEntryJson(const JobOutcome &outcome);

/**
 * Assemble the sweep-report root document from already-serialized
 * results[] entries (in job order). Dumping this value with indent 2
 * plus a trailing newline reproduces writeSweepReport's bytes exactly.
 * @param runner_stats may be null (the "runner" key is then omitted)
 */
json::Value sweepReportJson(const std::string &name,
                            std::vector<json::Value> entries,
                            const StatRegistry *runner_stats = nullptr);

/**
 * The per-request stat registry a Runner would have produced for a
 * batch of @p total jobs of which @p hits came from the cache — used by
 * the serve daemon and the cluster coordinator so their report bytes
 * match the CLI's for the same cache state.
 */
StatRegistry sweepRequestStats(std::size_t total, std::size_t hits);

/**
 * Write a sweep report: one JSON document covering all @p outcomes.
 * @param name sweep name recorded in the report (e.g. "fig8")
 * @param runner_stats the runner's stat registry (cache hits etc.);
 *        may be null for reports produced without a Runner
 */
void writeSweepReport(std::ostream &os, const std::string &name,
                      const std::vector<JobOutcome> &outcomes,
                      const StatRegistry *runner_stats = nullptr);

/** Current sweep report schema version. */
inline constexpr unsigned kSweepSchemaVersion = 1;

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_REPORT_HH
