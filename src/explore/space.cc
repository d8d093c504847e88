#include "explore/space.hh"

#include <algorithm>
#include <climits>
#include <set>

#include "common/logging.hh"
#include "runner/spec.hh"
#include "workloads/workload.hh"

namespace dynaspam::explore
{
namespace
{

constexpr unsigned kMaxGenerationSize = 256;
constexpr unsigned kMaxMinRegionScouts = 4096;
constexpr double kMaxMargin = 0.5;

/** Fetch `space.<key>` as an unsigned in [lo, hi]. */
std::uint64_t
specUint(const json::Value &value, const std::string &key,
         std::uint64_t fallback, std::uint64_t lo, std::uint64_t hi)
{
    const json::Value *field = value.find(key);
    if (!field)
        return fallback;
    std::uint64_t v = field->asUint();
    if (v < lo || v > hi)
        fatal("space: \"", key, "\" must be in [", lo, ", ", hi, "]");
    return v;
}

/** Fetch `space.<key>` as a double in [0, kMaxMargin]. */
double
specMargin(const json::Value &value, const std::string &key,
           double fallback)
{
    const json::Value *field = value.find(key);
    if (!field)
        return fallback;
    if (!field->isNumber())
        fatal("space: \"", key, "\" must be a number");
    double v = field->asDouble();
    if (!(v >= 0.0 && v <= kMaxMargin))
        fatal("space: \"", key, "\" must be in [0, ", kMaxMargin, "]");
    return v;
}

/** Parse an axis of unsigned values: non-empty, unique, sorted. */
std::vector<unsigned>
specAxis(const json::Value &value, const std::string &key,
         std::vector<unsigned> fallback)
{
    const json::Value *field = value.find(key);
    if (!field)
        return fallback;
    const json::Array &arr = field->asArray();
    if (arr.empty())
        fatal("space: \"", key, "\" must not be empty");
    std::vector<unsigned> out;
    for (const json::Value &item : arr)     // saturate: checkJob rejects
        out.push_back(
            unsigned(std::min<std::uint64_t>(item.asUint(), UINT_MAX)));
    std::sort(out.begin(), out.end());
    if (std::adjacent_find(out.begin(), out.end()) != out.end())
        fatal("space: \"", key, "\" values must be unique");
    return out;
}

} // namespace

const char *
objectiveName(ObjectiveKind kind)
{
    switch (kind) {
      case ObjectiveKind::Speedup: return "speedup";
      case ObjectiveKind::Cycles: return "cycles";
      case ObjectiveKind::Energy: return "energy";
      case ObjectiveKind::Edp: return "edp";
    }
    return "?";
}

bool
objectiveMaximize(ObjectiveKind kind)
{
    return kind == ObjectiveKind::Speedup;
}

ObjectiveKind
parseObjective(const std::string &token)
{
    for (ObjectiveKind kind :
         {ObjectiveKind::Speedup, ObjectiveKind::Cycles,
          ObjectiveKind::Energy, ObjectiveKind::Edp}) {
        if (token == objectiveName(kind))
            return kind;
    }
    fatal("space: unknown objective \"", token, "\"");
}

Space
Space::fromJson(const json::Value &value)
{
    if (!value.isObject())
        fatal("space: request body must be a JSON object");

    static const std::set<std::string> known = {
        "name",          "workloads",       "modes",
        "trace_lengths", "num_fabrics",     "scales",
        "objectives",    "seed",            "generation_size",
        "promote_margin", "prune_margin",   "min_region_scouts",
        "scout_fidelity", "warmup_insts",   "exhaustive",
    };
    for (const auto &[key, _] : value.asObject()) {
        if (!known.count(key))
            fatal("space: unknown field \"", key, "\"");
    }

    Space space;
    if (const json::Value *name = value.find("name")) {
        space.name = name->asString();
        if (space.name.empty())
            fatal("space: \"name\" must not be empty");
    }

    const json::Value *workloads = value.find("workloads");
    if (!workloads)
        fatal("space: missing required field \"workloads\"");
    for (const json::Value &item : workloads->asArray()) {
        // Workload tags are case-insensitive: "bfs" and "BFS" are one
        // kernel.
        const std::string &tag = item.asString();
        const std::string name = workloads::canonicalWorkloadName(tag);
        if (std::any_of(space.workloads.begin(), space.workloads.end(),
                        [&](const std::string &seen) {
                            return workloads::canonicalWorkloadName(seen) ==
                                   name;
                        }))
            fatal("space: duplicate workload \"", tag, "\"");
        space.workloads.push_back(tag);
    }
    if (space.workloads.empty())
        fatal("space: \"workloads\" must not be empty");

    if (const json::Value *modes = value.find("modes")) {
        for (const json::Value &item : modes->asArray()) {
            sim::SystemMode mode = runner::parseMode(item.asString());
            if (std::count(space.modes.begin(), space.modes.end(), mode))
                fatal("space: duplicate mode \"", item.asString(), "\"");
            space.modes.push_back(mode);
        }
        if (space.modes.empty())
            fatal("space: \"modes\" must not be empty");
    } else {
        space.modes = {sim::SystemMode::BaselineOoo,
                       sim::SystemMode::MappingOnly,
                       sim::SystemMode::AccelNoSpec,
                       sim::SystemMode::AccelSpec};
    }

    space.traceLengths = specAxis(value, "trace_lengths", {32});
    space.numFabrics = specAxis(value, "num_fabrics", {1});
    space.scales = specAxis(value, "scales", {1});

    if (const json::Value *objectives = value.find("objectives")) {
        for (const json::Value &item : objectives->asArray()) {
            ObjectiveKind kind = parseObjective(item.asString());
            if (std::count(space.objectives.begin(),
                           space.objectives.end(), kind))
                fatal("space: duplicate objective \"", item.asString(),
                      "\"");
            space.objectives.push_back(kind);
        }
    } else {
        space.objectives = {ObjectiveKind::Speedup, ObjectiveKind::Energy};
    }
    if (space.objectives.empty() ||
        space.objectives.size() > kMaxObjectives)
        fatal("space: between 1 and ", kMaxObjectives,
              " objectives required");

    if (const json::Value *seed = value.find("seed"))
        space.seed = seed->asUint();
    space.generationSize = unsigned(
        specUint(value, "generation_size", 8, 1, kMaxGenerationSize));
    space.promoteMargin = specMargin(value, "promote_margin", 0.02);
    space.pruneMargin = specMargin(value, "prune_margin", 0.10);
    space.minRegionScouts = unsigned(specUint(
        value, "min_region_scouts", 2, 1, kMaxMinRegionScouts));
    if (const json::Value *fidelity = value.find("scout_fidelity"))
        space.scoutFidelity = runner::parseFidelity(fidelity->asString());
    if (const json::Value *warmup = value.find("warmup_insts"))
        space.warmupInsts = warmup->asUint();
    if (const json::Value *exhaustive = value.find("exhaustive"))
        space.exhaustive = exhaustive->asBool();

    // Every candidate must be a valid job. The job bounds are intervals
    // and the numeric axes are sorted, so each workload's two extreme
    // corners cover the grid.
    for (const std::string &tag : space.workloads) {
        runner::checkJob({tag, sim::SystemMode::AccelSpec,
                          space.traceLengths.front(), space.numFabrics.front(),
                          space.scales.front(), space.warmupInsts});
        runner::checkJob({tag, sim::SystemMode::AccelSpec,
                          space.traceLengths.back(), space.numFabrics.back(),
                          space.scales.back(), space.warmupInsts});
    }

    // The baseline mode carries no trace-detection or fabric hardware,
    // so its candidates collapse onto the first value of those axes; the
    // effective grid is what the size cap must bound.
    std::size_t perProblem = 0;
    for (sim::SystemMode mode : space.modes) {
        perProblem += mode == sim::SystemMode::BaselineOoo
                          ? 1
                          : space.traceLengths.size() *
                                space.numFabrics.size();
    }
    std::size_t grid =
        space.workloads.size() * space.scales.size() * perProblem;
    if (grid > kMaxGridCandidates)
        fatal("space: grid of ", grid, " candidates exceeds the cap of ",
              kMaxGridCandidates);

    return space;
}

json::Value
Space::toJson() const
{
    json::Object obj;
    obj.emplace("name", name);
    json::Array wls;
    for (const std::string &tag : workloads)
        wls.emplace_back(tag);
    obj.emplace("workloads", std::move(wls));
    json::Array modeArr;
    for (sim::SystemMode mode : modes)
        modeArr.emplace_back(std::string(sim::modeName(mode)));
    obj.emplace("modes", std::move(modeArr));
    auto axis = [](const std::vector<unsigned> &values) {
        json::Array arr;
        for (unsigned v : values)
            arr.emplace_back(std::uint64_t(v));
        return arr;
    };
    obj.emplace("trace_lengths", axis(traceLengths));
    obj.emplace("num_fabrics", axis(numFabrics));
    obj.emplace("scales", axis(scales));
    json::Array objArr;
    for (ObjectiveKind kind : objectives)
        objArr.emplace_back(std::string(objectiveName(kind)));
    obj.emplace("objectives", std::move(objArr));
    obj.emplace("seed", seed);
    obj.emplace("generation_size", std::uint64_t(generationSize));
    obj.emplace("promote_margin", promoteMargin);
    obj.emplace("prune_margin", pruneMargin);
    obj.emplace("min_region_scouts", std::uint64_t(minRegionScouts));
    obj.emplace("scout_fidelity",
                std::string(runner::fidelityName(scoutFidelity)));
    obj.emplace("warmup_insts", warmupInsts);
    obj.emplace("exhaustive", exhaustive);
    return json::Value(std::move(obj));
}

} // namespace dynaspam::explore
