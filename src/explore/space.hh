/**
 * @file
 * Design-space specification for the exploration engine.
 *
 * A Space describes a grid of candidate configurations — axes over
 * everything runner::Job encodes (workload, system mode, trace length,
 * fabric count, problem scale) — plus the objectives to optimize and
 * the knobs of the adaptive search (seed, generation size, scouting
 * fidelity, pruning margins). It is parsed from JSON strictly: unknown
 * keys, duplicate axis values, out-of-range numbers and malformed
 * objective lists are all fatal, so a request either describes exactly
 * the space the caller intended or is rejected up front with a clear
 * message. Every candidate must pass runner::checkJob, the same job
 * schema POST /run applies.
 *
 * The candidate grid groups into *problems* — one per (workload, scale)
 * pair. Pareto frontiers, scouting decisions and region pruning are all
 * tracked per problem: objective values (energy above all) are only
 * commensurable between configurations solving the same problem.
 */

#ifndef DYNASPAM_EXPLORE_SPACE_HH
#define DYNASPAM_EXPLORE_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/job.hh"
#include "sim/system.hh"

namespace dynaspam::explore
{

/** What a candidate is scored on. */
enum class ObjectiveKind : std::uint8_t
{
    Speedup, ///< baseline-ooo cycles / candidate cycles (maximize)
    Cycles,  ///< total cycles (minimize)
    Energy,  ///< energy-model total in pJ (minimize)
    Edp,     ///< energy * cycles (minimize)
};

/** @return "speedup", "cycles", "energy" or "edp". */
const char *objectiveName(ObjectiveKind kind);

/** @return true when larger values of @p kind are better. */
bool objectiveMaximize(ObjectiveKind kind);

/**
 * Parse an objective token as printed by objectiveName.
 * @throws FatalError on an unknown token
 */
ObjectiveKind parseObjective(const std::string &token);

/** Maximum number of simultaneous objectives. */
inline constexpr std::size_t kMaxObjectives = 3;

/** Maximum candidate-grid size a single explore request may describe. */
inline constexpr std::size_t kMaxGridCandidates = 4096;

/** A validated design-space description. */
struct Space
{
    /** Report name echoed into the stream header and final report. */
    std::string name = "explore";

    /** Workload axis (required, unique, registered tags). */
    std::vector<std::string> workloads;

    /** Mode axis; defaults to the fig8 four-point comparison. */
    std::vector<sim::SystemMode> modes;

    /** Trace-length axis (sorted ascending, unique). */
    std::vector<unsigned> traceLengths = {32};

    /** Fabric-count axis (sorted ascending, unique). */
    std::vector<unsigned> numFabrics = {1};

    /** Problem-scale axis (sorted ascending, unique). */
    std::vector<unsigned> scales = {1};

    /** Objectives, 1..kMaxObjectives, unique. */
    std::vector<ObjectiveKind> objectives;

    /** Candidate-ordering seed (wall-clock-free determinism). */
    std::uint64_t seed = 0;

    /** Scouts dispatched per generation. */
    unsigned generationSize = 8;

    /**
     * Promotion slack: a scout is promoted to full fidelity unless some
     * scout-frontier point beats it by more than this relative margin
     * in every objective. Larger margins promote more candidates and
     * absorb more sampling error.
     */
    double promoteMargin = 0.02;

    /**
     * Region-kill threshold: an (axis, value) region is abandoned only
     * when every scouted member is beaten by at least this relative
     * margin in every objective.
     */
    double pruneMargin = 0.10;

    /** Minimum scouts in a region before it may be pruned. */
    unsigned minRegionScouts = 2;

    /** Fidelity scouts run at (full turns scouting into full evals). */
    runner::Fidelity scoutFidelity = runner::Fidelity::Sampled;

    /** Detailed warmup prefix applied to every generated job. */
    std::uint64_t warmupInsts = 0;

    /**
     * Skip scouting entirely and evaluate every grid candidate at full
     * fidelity. The provably exact reference the adaptive search is
     * benchmarked against.
     */
    bool exhaustive = false;

    /**
     * Parse and validate a space description.
     * @throws FatalError on unknown keys, bad types, out-of-range or
     *         duplicate values, or an over-large grid
     */
    static Space fromJson(const json::Value &value);

    /** Canonical JSON echo (used in the stream header / final report). */
    json::Value toJson() const;
};

} // namespace dynaspam::explore

#endif // DYNASPAM_EXPLORE_SPACE_HH
