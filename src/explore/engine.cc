#include "explore/engine.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/types.hh"
#include "runner/spec.hh"

namespace dynaspam::explore
{
namespace
{

/**
 * True when @p a beats @p b by at least the relative @p margin in every
 * objective. With margin 0 this degenerates to weak componentwise
 * dominance (exact ties count as beaten), which is why the engine never
 * applies it to frontier members themselves.
 */
bool
relMarginDominates(const std::vector<double> &a,
                   const std::vector<double> &b,
                   const std::vector<bool> &maximize, double margin)
{
    for (std::size_t i = 0; i < a.size(); i++) {
        if (maximize[i]) {
            if (a[i] < b[i] * (1.0 + margin))
                return false;
        } else {
            if (a[i] > b[i] * (1.0 - margin))
                return false;
        }
    }
    return true;
}

/** Detailed-instruction fraction a result actually simulated. */
double
costFraction(const sim::RunResult &result)
{
    if (!result.sampled || result.instsTotal == 0)
        return 1.0;
    double frac =
        double(result.sampledInsts) / double(result.instsTotal);
    return std::min(frac, 1.0);
}

} // namespace

std::vector<std::size_t>
paretoFrontier(const std::vector<std::vector<double>> &points,
               const std::vector<bool> &maximize)
{
    auto dominates = [&](const std::vector<double> &a,
                         const std::vector<double> &b) {
        bool strict = false;
        for (std::size_t i = 0; i < a.size(); i++) {
            double ai = maximize[i] ? a[i] : -a[i];
            double bi = maximize[i] ? b[i] : -b[i];
            if (ai < bi)
                return false;
            if (ai > bi)
                strict = true;
        }
        return strict;
    };
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); i++) {
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; j++)
            dominated = j != i && dominates(points[j], points[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

Engine::Engine(Space space_) : space(std::move(space_))
{
    for (ObjectiveKind kind : space.objectives)
        maximize.push_back(objectiveMaximize(kind));
    const bool wantSpeedup =
        std::count(space.objectives.begin(), space.objectives.end(),
                   ObjectiveKind::Speedup) > 0;

    // Problems in (workload, scale) grid order; candidates per problem
    // in (mode, trace, fabrics) grid order. Both orders are what every
    // report and frontier listing uses, so they must not depend on
    // anything but the validated space.
    for (const std::string &workload : space.workloads) {
        for (unsigned scale : space.scales) {
            Problem problem;
            problem.workload = workload;
            problem.scale = scale;
            problem.baselineJob =
                runner::Job{workload, sim::SystemMode::BaselineOoo,
                            space.traceLengths.front(),
                            space.numFabrics.front(), scale,
                            space.warmupInsts, runner::Fidelity::Full};
            std::size_t problemIdx = problems.size();
            for (sim::SystemMode mode : space.modes) {
                // The baseline pipeline has no trace-detection or
                // fabric hardware: its point collapses onto the first
                // value of those axes (see Space::fromJson's grid cap).
                const bool baseline = mode == sim::SystemMode::BaselineOoo;
                for (unsigned trace : space.traceLengths) {
                    if (baseline && trace != space.traceLengths.front())
                        continue;
                    for (unsigned fabrics : space.numFabrics) {
                        if (baseline &&
                            fabrics != space.numFabrics.front())
                            continue;
                        Candidate cand;
                        cand.job = runner::Job{
                            workload, mode, trace, fabrics, scale,
                            space.warmupInsts, runner::Fidelity::Full};
                        cand.problem = problemIdx;
                        problem.members.push_back(candidates.size());
                        candidates.push_back(std::move(cand));
                    }
                }
            }
            problems.push_back(std::move(problem));
        }
    }

    // Seeded, wall-clock-free scouting order: FNV-1a over the seed's
    // little-endian bytes followed by the job key. Ties (never expected;
    // keys are unique) fall back to the key itself.
    unsigned char seedBytes[8];
    bits::storeLE64(space.seed, seedBytes);
    std::uint64_t seedHash = bits::FNV1A_OFFSET;
    for (unsigned char byte : seedBytes)
        seedHash = bits::fnv1aStep(seedHash, byte);
    for (std::size_t i = 0; i < candidates.size(); i++) {
        const std::string key = candidates[i].job.key();
        candidates[i].order =
            bits::fnv1a(key.data(), key.size(), seedHash);
        scoutOrder.push_back(i);
    }
    std::sort(scoutOrder.begin(), scoutOrder.end(),
              [&](std::size_t a, std::size_t b) {
                  if (candidates[a].order != candidates[b].order)
                      return candidates[a].order < candidates[b].order;
                  return candidates[a].job.key() < candidates[b].job.key();
              });

    // Exhaustive full-fidelity cost of the same question: every grid
    // candidate plus any baseline run that is not itself a candidate.
    gridCost = double(candidates.size());
    if (wantSpeedup) {
        std::set<std::string> keys;
        for (const Candidate &cand : candidates)
            keys.insert(cand.job.key());
        for (const Problem &problem : problems) {
            if (!keys.count(problem.baselineJob.key()))
                gridCost += 1.0;
        }
    }

    phase = wantSpeedup ? Phase::Baselines
                        : (space.exhaustive ? Phase::Promote : Phase::Scout);
}

std::string
Engine::label(const Problem &problem) const
{
    std::ostringstream os;
    os << problem.workload << "|" << problem.scale;
    return os.str();
}

std::vector<double>
Engine::objectiveVec(const sim::RunResult &result,
                     const Problem &problem) const
{
    std::vector<double> vec;
    for (ObjectiveKind kind : space.objectives) {
        switch (kind) {
          case ObjectiveKind::Speedup:
            vec.push_back(double(problem.baselineCycles) /
                          double(result.cycles));
            break;
          case ObjectiveKind::Cycles:
            vec.push_back(double(result.cycles));
            break;
          case ObjectiveKind::Energy:
            vec.push_back(result.energy.total());
            break;
          case ObjectiveKind::Edp:
            vec.push_back(result.energy.total() * double(result.cycles));
            break;
        }
    }
    return vec;
}

void
Engine::buildPending()
{
    if (pendingBuilt)
        return;
    pending.clear();
    pendingTargets.clear();
    switch (phase) {
      case Phase::Baselines:
        for (std::size_t p = 0; p < problems.size(); p++) {
            pending.push_back(problems[p].baselineJob);
            pendingTargets.push_back(p);
        }
        break;
      case Phase::Scout:
        for (std::size_t idx : scoutOrder) {
            if (pending.size() >= space.generationSize)
                break;
            const Candidate &cand = candidates[idx];
            if (cand.haveScout || cand.haveFull || cand.dead)
                continue;
            runner::Job scout = cand.job;
            scout.fidelity = space.scoutFidelity;
            pending.push_back(std::move(scout));
            pendingTargets.push_back(idx);
        }
        break;
      case Phase::Promote:
        for (std::size_t i = 0; i < candidates.size(); i++) {
            const Candidate &cand = candidates[i];
            if (cand.haveFull)
                continue;
            if (space.exhaustive ? cand.dead : !promoteEligible(cand))
                continue;
            pending.push_back(cand.job);
            pendingTargets.push_back(i);
        }
        break;
      case Phase::Done:
        break;
    }
    pendingBuilt = true;
}

bool
Engine::promoteEligible(const Candidate &cand) const
{
    if (!cand.haveScout)
        return false;
    const Problem &problem = problems[cand.problem];
    for (std::size_t f : problem.scoutFrontier) {
        if (&candidates[f] == &cand)
            return true; // frontier members always promote
    }
    for (std::size_t f : problem.scoutFrontier) {
        if (relMarginDominates(candidates[f].scoutVec, cand.scoutVec,
                               maximize, space.promoteMargin))
            return false;
    }
    return true;
}

std::vector<std::string>
Engine::start()
{
    if (started)
        fatal("explore: start() called twice");
    started = true;
    json::Object header;
    header.emplace("type", "header");
    header.emplace("schema_version", std::uint64_t(kExploreSchemaVersion));
    header.emplace("name", space.name);
    header.emplace("space", space.toJson());
    header.emplace("candidates", std::uint64_t(candidates.size()));
    header.emplace("problems", std::uint64_t(problems.size()));
    header.emplace("grid_cost_units", gridCost);
    std::vector<std::string> lines;
    lines.push_back(json::Value(std::move(header)).dump());
    // A speedup-less exhaustive space enters Promote directly; emit its
    // transition line so the stream always announces promotions before
    // their results arrive.
    if (phase == Phase::Promote) {
        buildPending();
        json::Object obj;
        obj.emplace("type", "promotion");
        obj.emplace("promoted", std::uint64_t(pending.size()));
        obj.emplace("cost_units", cost);
        lines.push_back(json::Value(std::move(obj)).dump());
        if (pending.empty())
            finalize(lines);
    }
    return lines;
}

const std::vector<runner::Job> &
Engine::nextBatch()
{
    buildPending();
    return pending;
}

void
Engine::applyOutcomes(const std::vector<runner::JobOutcome> &outcomes)
{
    buildPending();
    if (outcomes.size() != pending.size())
        fatal("explore: fed ", outcomes.size(), " outcomes for a batch of ",
              pending.size());
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        if (outcomes[i].job.key() != pending[i].key())
            fatal("explore: outcome ", i, " is for job ",
                  outcomes[i].job.key(), ", expected ", pending[i].key());
    }

    for (std::size_t i = 0; i < outcomes.size(); i++) {
        const sim::RunResult &result = outcomes[i].result;
        cost += costFraction(result);
        switch (phase) {
          case Phase::Baselines: {
            Problem &problem = problems[pendingTargets[i]];
            problem.haveBaseline = true;
            problem.baselineCycles = result.cycles;
            // When baseline-ooo is itself on the mode axis, this run IS
            // that candidate's full evaluation — record it so neither
            // scouting nor promotion pays for the point again.
            for (std::size_t m : problem.members) {
                Candidate &cand = candidates[m];
                if (cand.job.key() == problem.baselineJob.key()) {
                    cand.haveFull = true;
                    cand.fullResult = result;
                    cand.fullVec = objectiveVec(result, problem);
                }
            }
            break;
          }
          case Phase::Scout: {
            Candidate &cand = candidates[pendingTargets[i]];
            cand.haveScout = true;
            cand.scoutVec =
                objectiveVec(result, problems[cand.problem]);
            // A full-fidelity scout (scout_fidelity=full, or a trace
            // shorter than the sampling window) doubles as the full
            // evaluation.
            if (!result.sampled) {
                cand.haveFull = true;
                cand.fullResult = result;
                cand.fullVec = cand.scoutVec;
            }
            break;
          }
          case Phase::Promote: {
            Candidate &cand = candidates[pendingTargets[i]];
            cand.haveFull = true;
            cand.fullResult = result;
            cand.fullVec =
                objectiveVec(result, problems[cand.problem]);
            break;
          }
          case Phase::Done:
            fatal("explore: feed() after completion");
        }
    }
}

void
Engine::refreshScoutFrontiers()
{
    for (Problem &problem : problems) {
        std::vector<std::vector<double>> points;
        std::vector<std::size_t> index;
        for (std::size_t m : problem.members) {
            if (candidates[m].haveScout) {
                points.push_back(candidates[m].scoutVec);
                index.push_back(m);
            }
        }
        problem.scoutFrontier.clear();
        for (std::size_t f : paretoFrontier(points, maximize))
            problem.scoutFrontier.push_back(index[f]);
    }
}

std::vector<std::string>
Engine::pruneRegions()
{
    std::vector<std::string> pruned;
    for (Problem &problem : problems) {
        // Regions are (axis, value) slices of this problem's members,
        // in a fixed axis order so the pruned-regions listing is
        // deterministic.
        struct Axis
        {
            const char *name;
            std::vector<std::pair<std::string, std::vector<std::size_t>>>
                groups;
        };
        auto slice = [&](const char *name, auto project) {
            Axis axis{name, {}};
            for (std::size_t m : problem.members) {
                std::string value = project(candidates[m].job);
                auto it = std::find_if(
                    axis.groups.begin(), axis.groups.end(),
                    [&](const auto &g) { return g.first == value; });
                if (it == axis.groups.end()) {
                    axis.groups.emplace_back(value,
                                             std::vector<std::size_t>{m});
                } else {
                    it->second.push_back(m);
                }
            }
            return axis;
        };
        std::vector<Axis> axes;
        if (space.modes.size() > 1) {
            axes.push_back(slice("mode", [](const runner::Job &job) {
                return std::string(sim::modeName(job.mode));
            }));
        }
        if (space.traceLengths.size() > 1) {
            axes.push_back(
                slice("trace_length", [](const runner::Job &job) {
                    return std::to_string(job.traceLength);
                }));
        }
        if (space.numFabrics.size() > 1) {
            axes.push_back(
                slice("num_fabrics", [](const runner::Job &job) {
                    return std::to_string(job.numFabrics);
                }));
        }

        for (const Axis &axis : axes) {
            for (const auto &[value, members] : axis.groups) {
                std::size_t scouted = 0;
                bool anySurvivor = false;
                bool anyPrunable = false;
                for (std::size_t m : members) {
                    const Candidate &cand = candidates[m];
                    if (cand.haveFull) {
                        // Fully evaluated points (baseline freebies)
                        // keep their region alive: they are frontier
                        // material regardless of scout margins.
                        anySurvivor = true;
                        continue;
                    }
                    if (!cand.haveScout) {
                        anyPrunable = anyPrunable || !cand.dead;
                        continue;
                    }
                    scouted++;
                    bool beaten = false;
                    for (std::size_t f : problem.scoutFrontier) {
                        if (f != m &&
                            relMarginDominates(
                                candidates[f].scoutVec, cand.scoutVec,
                                maximize, space.pruneMargin)) {
                            beaten = true;
                            break;
                        }
                    }
                    if (!beaten)
                        anySurvivor = true;
                }
                if (scouted < space.minRegionScouts || anySurvivor ||
                    !anyPrunable)
                    continue;
                for (std::size_t m : members) {
                    Candidate &cand = candidates[m];
                    if (!cand.haveScout && !cand.haveFull && !cand.dead)
                        cand.dead = true;
                }
                pruned.push_back(label(problem) + "|" + axis.name + "=" +
                                 value);
            }
        }
    }
    return pruned;
}

std::string
Engine::generationLine(std::size_t scouted,
                       const std::vector<std::string> &pruned) const
{
    json::Object obj;
    obj.emplace("type", "generation");
    obj.emplace("index", std::uint64_t(generation));
    obj.emplace("scouted", std::uint64_t(scouted));
    json::Array prunedArr;
    for (const std::string &region : pruned)
        prunedArr.emplace_back(region);
    obj.emplace("pruned_regions", std::move(prunedArr));
    json::Array frontiers;
    for (const Problem &problem : problems) {
        json::Object entry;
        entry.emplace("problem", label(problem));
        entry.emplace("size",
                      std::uint64_t(problem.scoutFrontier.size()));
        frontiers.emplace_back(std::move(entry));
    }
    obj.emplace("scout_frontiers", std::move(frontiers));
    obj.emplace("cost_units", cost);
    return json::Value(std::move(obj)).dump();
}

std::vector<std::string>
Engine::feed(const std::vector<runner::JobOutcome> &outcomes)
{
    if (!started)
        fatal("explore: feed() before start()");
    applyOutcomes(outcomes);
    std::vector<std::string> lines;
    advance(lines);
    return lines;
}

void
Engine::advance(std::vector<std::string> &lines)
{
    const Phase fed = phase;
    pendingBuilt = false;

    if (fed == Phase::Baselines) {
        json::Object obj;
        obj.emplace("type", "baselines");
        obj.emplace("jobs", std::uint64_t(pendingTargets.size()));
        obj.emplace("cost_units", cost);
        lines.push_back(json::Value(std::move(obj)).dump());
        phase = space.exhaustive ? Phase::Promote : Phase::Scout;
    } else if (fed == Phase::Scout) {
        const std::size_t scouted = pendingTargets.size();
        refreshScoutFrontiers();
        std::vector<std::string> pruned = pruneRegions();
        lines.push_back(generationLine(scouted, pruned));
        generation++;
        buildPending();
        if (pending.empty()) {
            phase = Phase::Promote;
            pendingBuilt = false;
        }
    } else if (fed == Phase::Promote) {
        finalize(lines);
        return;
    }

    // Entering Promote announces how many scouts survived; an empty
    // promotion set (everything needed is already at full fidelity)
    // finishes the search in the same step.
    if (phase == Phase::Promote && fed != Phase::Promote) {
        buildPending();
        json::Object obj;
        obj.emplace("type", "promotion");
        obj.emplace("promoted", std::uint64_t(pending.size()));
        obj.emplace("cost_units", cost);
        lines.push_back(json::Value(std::move(obj)).dump());
        if (pending.empty())
            finalize(lines);
    }
}

void
Engine::finalize(std::vector<std::string> &lines)
{
    phase = Phase::Done;
    pending.clear();
    pendingTargets.clear();
    pendingBuilt = true;

    const bool wantSpeedup =
        std::count(space.objectives.begin(), space.objectives.end(),
                   ObjectiveKind::Speedup) > 0;

    json::Array streamProblems;
    json::Array reportProblems;
    for (Problem &problem : problems) {
        std::vector<std::vector<double>> points;
        std::vector<std::size_t> index;
        for (std::size_t m : problem.members) {
            if (candidates[m].haveFull) {
                points.push_back(candidates[m].fullVec);
                index.push_back(m);
            }
        }
        std::vector<std::size_t> frontier =
            paretoFrontier(points, maximize);

        json::Array streamEntries;
        json::Array reportEntries;
        for (std::size_t f : frontier) {
            const Candidate &cand = candidates[index[f]];
            json::Object objectives;
            for (std::size_t o = 0; o < space.objectives.size(); o++) {
                objectives.emplace(objectiveName(space.objectives[o]),
                                   cand.fullVec[o]);
            }
            json::Object streamEntry;
            streamEntry.emplace("job_key", cand.job.key());
            streamEntry.emplace("objectives",
                                json::Value(objectives));
            streamEntries.emplace_back(std::move(streamEntry));
            json::Object reportEntry;
            reportEntry.emplace("job", runner::jobToJson(cand.job));
            reportEntry.emplace("objectives",
                                json::Value(std::move(objectives)));
            reportEntry.emplace("result",
                                runner::resultToJson(cand.fullResult));
            reportEntries.emplace_back(std::move(reportEntry));
        }

        json::Object streamProblem;
        streamProblem.emplace("problem", label(problem));
        streamProblem.emplace("frontier", std::move(streamEntries));
        streamProblems.emplace_back(std::move(streamProblem));

        json::Object reportProblem;
        reportProblem.emplace("workload", problem.workload);
        reportProblem.emplace("scale", std::uint64_t(problem.scale));
        if (wantSpeedup)
            reportProblem.emplace("baseline_cycles",
                                  problem.baselineCycles);
        reportProblem.emplace("frontier", std::move(reportEntries));
        reportProblems.emplace_back(std::move(reportProblem));
    }

    json::Object line;
    line.emplace("type", "frontier");
    line.emplace("problems", std::move(streamProblems));
    line.emplace("cost_units", cost);
    line.emplace("grid_cost_units", gridCost);
    lines.push_back(json::Value(std::move(line)).dump());

    json::Object doc;
    doc.emplace("schema_version",
                std::uint64_t(kExploreSchemaVersion));
    doc.emplace("name", space.name);
    doc.emplace("space", space.toJson());
    doc.emplace("cost_units", cost);
    doc.emplace("grid_cost_units", gridCost);
    doc.emplace("problems", std::move(reportProblems));
    report = json::Value(std::move(doc));
}

} // namespace dynaspam::explore
