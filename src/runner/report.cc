#include "runner/report.hh"

#include <cctype>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace dynaspam::runner
{

namespace
{

/** Report key of a counter: its field name in snake case
 *  ("fetchedInsts" -> "fetched_insts"). */
std::string
reportKey(std::string_view name)
{
    std::string key;
    for (char c : name) {
        if (std::isupper(static_cast<unsigned char>(c)))
            key += '_';
        key += char(std::tolower(static_cast<unsigned char>(c)));
    }
    return key;
}

/** A counter block (PipelineStats, DynaSpamStats) as a JSON object, one
 *  key per entry of its field list; fixed arrays become JSON arrays. */
template <typename Stats>
json::Value
countersToJson(const Stats &stats)
{
    json::Object o;
    auto put = [&](const char *name, auto member) {
        const auto &value = stats.*member;
        if constexpr (std::is_array_v<std::remove_cvref_t<decltype(value)>>) {
            json::Array values;
            for (std::uint64_t v : value)
                values.emplace_back(v);
            o.emplace(reportKey(name), std::move(values));
        } else {
            o.emplace(reportKey(name), value);
        }
    };
    Stats::fields(put);
    return json::Value(std::move(o));
}

template <typename Stats>
Stats
countersFromJson(const json::Value &v)
{
    Stats stats;
    auto get = [&](const char *name, auto member) {
        auto &value = stats.*member;
        const json::Value &field = v.at(reportKey(name));
        if constexpr (std::is_array_v<std::remove_cvref_t<decltype(value)>>) {
            const json::Array &values = field.asArray();
            if (values.size() != std::size(value))
                fatal("result json: ", reportKey(name), " has ",
                      values.size(), " entries, expected ", std::size(value));
            for (std::size_t i = 0; i < values.size(); i++)
                value[i] = values[i].asUint();
        } else {
            value = field.asUint();
        }
    };
    Stats::fields(get);
    return stats;
}

json::Value
energyToJson(const energy::EnergyBreakdown &e)
{
    json::Object components;
    for (const auto &kv : e.component)
        components.emplace(kv.first, kv.second);
    json::Object o;
    o.emplace("components", std::move(components));
    o.emplace("total", e.total());
    return json::Value(std::move(o));
}

energy::EnergyBreakdown
energyFromJson(const json::Value &v)
{
    energy::EnergyBreakdown e;
    for (const auto &kv : v.at("components").asObject())
        e.component.emplace(kv.first, kv.second.asDouble());
    return e;
}

StatRegistry
registryFromJson(const json::Value &v)
{
    StatRegistry reg;
    for (const auto &kv : v.at("counters").asObject())
        reg.counter(kv.first).inc(kv.second.asUint());
    for (const auto &kv : v.at("accums").asObject())
        reg.accum(kv.first).add(kv.second.asDouble());
    for (const auto &kv : v.at("histograms").asObject()) {
        const json::Value &h = kv.second;
        const json::Array &buckets = h.at("buckets").asArray();
        std::vector<std::uint64_t> counts;
        counts.reserve(buckets.size());
        for (const json::Value &b : buckets)
            counts.push_back(b.asUint());
        reg.histogram(kv.first, h.at("bucket_width").asUint(),
                      counts.size())
            .restore(counts, h.at("overflow").asUint(),
                     h.at("count").asUint(), h.at("sum").asUint());
    }
    return reg;
}

} // namespace

json::Value
resultToJson(const sim::RunResult &result)
{
    json::Object insts;
    insts.emplace("total", result.instsTotal);
    insts.emplace("mapping", result.instsMapping);
    insts.emplace("fabric", result.instsFabric);
    insts.emplace("host", result.instsHost);

    json::Object o;
    o.emplace("cycles", std::uint64_t(result.cycles));
    o.emplace("ipc", result.ipc());
    o.emplace("insts", std::move(insts));
    o.emplace("functionally_correct", result.functionallyCorrect);
    o.emplace("pipeline", countersToJson(result.pipeline));
    o.emplace("dynaspam", countersToJson(result.dynaspam));
    o.emplace("energy", energyToJson(result.energy));
    o.emplace("stats", result.stats.toJson());
    // Emitted only for sampled-fidelity results, so the serialized form
    // of every full-fidelity result is unchanged.
    if (result.sampled) {
        json::Object s;
        s.emplace("insts", result.sampledInsts);
        s.emplace("cycles", result.sampledCycles);
        o.emplace("sampled", std::move(s));
    }
    return json::Value(std::move(o));
}

sim::RunResult
resultFromJson(const json::Value &v)
{
    sim::RunResult r;
    r.cycles = v.at("cycles").asUint();
    const json::Value &insts = v.at("insts");
    r.instsTotal = insts.at("total").asUint();
    r.instsMapping = insts.at("mapping").asUint();
    r.instsFabric = insts.at("fabric").asUint();
    r.instsHost = insts.at("host").asUint();
    r.functionallyCorrect = v.at("functionally_correct").asBool();
    r.pipeline = countersFromJson<ooo::PipelineStats>(v.at("pipeline"));
    r.dynaspam = countersFromJson<core::DynaSpamStats>(v.at("dynaspam"));
    r.energy = energyFromJson(v.at("energy"));
    r.stats = registryFromJson(v.at("stats"));
    if (const json::Value *sampled = v.find("sampled")) {
        r.sampled = true;
        r.sampledInsts = sampled->at("insts").asUint();
        r.sampledCycles = sampled->at("cycles").asUint();
    }
    return r;
}

json::Value
jobToJson(const Job &job)
{
    json::Object o;
    o.emplace("workload", workloads::canonicalWorkloadName(job.workload));
    o.emplace("mode", std::string(sim::modeName(job.mode)));
    o.emplace("trace_length", job.traceLength);
    o.emplace("num_fabrics", job.numFabrics);
    o.emplace("scale", job.scale);
    o.emplace("warmup_insts", job.warmupInsts);
    o.emplace("fidelity", std::string(fidelityName(job.fidelity)));
    o.emplace("hash", job.hashHex());
    return json::Value(std::move(o));
}

Job
jobFromJson(const json::Value &v)
{
    Job job;
    job.workload = v.at("workload").asString();
    job.mode = parseMode(v.at("mode").asString());
    job.traceLength = unsigned(v.at("trace_length").asUint());
    job.numFabrics = unsigned(v.at("num_fabrics").asUint());
    job.scale = unsigned(v.at("scale").asUint());
    job.warmupInsts = v.at("warmup_insts").asUint();
    job.fidelity = parseFidelity(v.at("fidelity").asString());
    return job;
}

json::Value
sweepEntryJson(const JobOutcome &outcome)
{
    json::Object entry;
    entry.emplace("job", jobToJson(outcome.job));
    entry.emplace("from_cache", outcome.fromCache);
    entry.emplace("result", resultToJson(outcome.result));
    return json::Value(std::move(entry));
}

json::Value
sweepReportJson(const std::string &name, std::vector<json::Value> entries,
                const StatRegistry *runner_stats)
{
    json::Array results;
    for (json::Value &entry : entries)
        results.emplace_back(std::move(entry));

    json::Object root;
    root.emplace("schema_version", kSweepSchemaVersion);
    root.emplace("tool", "dynaspam");
    root.emplace("sweep", name);
    root.emplace("num_jobs", std::uint64_t(results.size()));
    if (runner_stats)
        root.emplace("runner", runner_stats->toJson());
    root.emplace("results", std::move(results));
    return json::Value(std::move(root));
}

StatRegistry
sweepRequestStats(std::size_t total, std::size_t hits)
{
    StatRegistry registry;
    registry.counter("runner.jobs_total").inc(total);
    registry.counter("runner.cache_hits").inc(hits);
    registry.counter("runner.cache_misses").inc(total - hits);
    registry.counter("runner.jobs_executed").inc(total - hits);
    return registry;
}

void
writeSweepReport(std::ostream &os, const std::string &name,
                 const std::vector<JobOutcome> &outcomes,
                 const StatRegistry *runner_stats)
{
    std::vector<json::Value> entries;
    entries.reserve(outcomes.size());
    for (const JobOutcome &outcome : outcomes)
        entries.push_back(sweepEntryJson(outcome));
    sweepReportJson(name, std::move(entries), runner_stats).write(os, 2);
    os << "\n";
}

} // namespace dynaspam::runner
