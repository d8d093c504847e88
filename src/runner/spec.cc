#include "runner/spec.hh"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <iterator>
#include <sstream>

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace dynaspam::runner
{

namespace
{

/** Fail unless job field @p key (CLI flag @p flag) is in [lo, hi]. */
void
checkBound(const char *key, const char *flag, std::uint64_t value,
           std::uint64_t lo, std::uint64_t hi)
{
    if (value < lo || value > hi)
        fatal("job field \"", key, "\" (", flag, ") out of range [", lo,
              ", ", hi, "]: ", value);
}

/** Fail unless every member of @p object is one of @p known. */
template <std::size_t N>
void
rejectUnknown(const json::Value &object, const char *const (&known)[N],
              const char *what)
{
    for (const auto &kv : object.asObject()) {
        if (std::none_of(std::begin(known), std::end(known),
                         [&](const char *k) { return kv.first == k; }))
            fatal("unknown ", what, " field \"", kv.first, "\"");
    }
}

/** @return v[key] as an unsigned (saturated, so checkJob rejects what
 *  does not fit), or @p fallback when absent. */
unsigned
fieldUint(const json::Value &v, const char *key, unsigned fallback)
{
    const json::Value *field = v.find(key);
    if (!field)
        return fallback;
    return unsigned(std::min<std::uint64_t>(field->asUint(), UINT_MAX));
}

} // namespace

void
checkJob(const Job &job)
{
    const auto &names = workloads::allWorkloadNames();
    if (std::find(names.begin(), names.end(),
                  workloads::canonicalWorkloadName(job.workload)) ==
        names.end())
        fatal("unknown workload \"", job.workload, "\"");
    checkBound("trace_length", "--trace-length", job.traceLength, 1, 4096);
    checkBound("num_fabrics", "--fabrics", job.numFabrics, 1, 64);
    checkBound("scale", "--scale", job.scale, 1, 64);
    checkBound("warmup_insts", "--warmup-insts", job.warmupInsts, 0,
               1'000'000'000);
}

Job
jobFromJson(const json::Value &value)
{
    if (!value.isObject())
        fatal("job spec must be a JSON object");
    static const char *const known[] = {
        "workload", "mode", "trace_length", "num_fabrics", "scale",
        "warmup_insts", "fidelity", "hash"};
    rejectUnknown(value, known, "job spec");

    const json::Value *workload = value.find("workload");
    if (!workload)
        fatal("job spec is missing \"workload\"");
    Job job{workload->asString(), sim::SystemMode::AccelSpec};
    if (const json::Value *mode = value.find("mode"))
        job.mode = parseMode(mode->asString());
    job.traceLength = fieldUint(value, "trace_length", job.traceLength);
    job.numFabrics = fieldUint(value, "num_fabrics", job.numFabrics);
    job.scale = fieldUint(value, "scale", job.scale);
    if (const json::Value *warmup = value.find("warmup_insts"))
        job.warmupInsts = warmup->asUint();
    if (const json::Value *fidelity = value.find("fidelity"))
        job.fidelity = parseFidelity(fidelity->asString());
    checkJob(job);
    job.workload = workloads::canonicalWorkloadName(job.workload);

    const json::Value *hash = value.find("hash");
    if (hash && hash->asString() != job.hashHex())
        fatal("job spec \"hash\" ", hash->asString(),
              " does not match the job's hash ", job.hashHex());
    return job;
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

std::vector<Job>
namedSweepJobs(const std::string &sweep,
               const std::vector<std::string> &tags, unsigned scale,
               unsigned trace_length, std::uint64_t warmup_insts,
               Fidelity fidelity)
{
    if (tags.empty())
        fatal("sweep workload list is empty");
    std::vector<std::string> canonical;
    for (const std::string &tag : tags) {
        checkJob(Job{tag, sim::SystemMode::AccelSpec, trace_length, 1,
                     scale, warmup_insts, fidelity});
        canonical.push_back(workloads::canonicalWorkloadName(tag));
    }
    std::vector<Job> jobs =
        sweepJobs(sweep, canonical, scale, trace_length);
    for (Job &job : jobs) {
        job.warmupInsts = warmup_insts;
        job.fidelity = fidelity;
    }
    return jobs;
}

SweepRequest
parseSweepBody(const std::string &body)
{
    SweepRequest req;
    json::Value parsed = json::Value::parse(body);
    if (!parsed.isObject())
        fatal("sweep request must be a JSON object");

    if (const json::Value *list = parsed.find("jobs")) {
        for (const auto &kv : parsed.asObject())
            if (kv.first != "jobs")
                fatal("unknown sweep request field \"", kv.first,
                      "\" (explicit \"jobs\" lists take no other fields)");
        req.name = "custom";
        for (const json::Value &spec : list->asArray())
            req.jobs.push_back(jobFromJson(spec));
        if (req.jobs.empty())
            fatal("\"jobs\" list is empty");
        return req;
    }

    static const char *const known[] = {"sweep", "workloads", "scale",
                                        "trace_length"};
    rejectUnknown(parsed, known, "sweep request");
    const json::Value *sweep = parsed.find("sweep");
    if (!sweep)
        fatal("sweep request needs \"sweep\" or \"jobs\"");
    req.name = sweep->asString();

    std::vector<std::string> tags;
    if (const json::Value *wl = parsed.find("workloads")) {
        for (const json::Value &w : wl->asArray())
            tags.push_back(w.asString());
    } else {
        tags = workloads::allWorkloadNames();
    }
    const Job defaults;
    req.jobs = namedSweepJobs(
        req.name, tags, fieldUint(parsed, "scale", defaults.scale),
        fieldUint(parsed, "trace_length", defaults.traceLength));
    return req;
}

void
applyRunQuery(Job &job, const std::string &target)
{
    const std::size_t qpos = target.find('?');
    if (qpos == std::string::npos)
        return;
    std::istringstream is(target.substr(qpos + 1));
    std::string part;
    while (std::getline(is, part, '&')) {
        if (part.empty())
            continue;
        const std::size_t eq = part.find('=');
        const std::string key = part.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        if (key == "fidelity")
            job.fidelity = parseFidelity(val);
        else if (key != "warmup_insts")
            fatal("unknown /run query parameter \"", key, "\"");
        else if (val.empty() ||
                 val.find_first_not_of("0123456789") != std::string::npos)
            fatal("warmup_insts is not a decimal number: \"", val, "\"");
        else    // strtoull saturates; checkJob rejects what overflowed
            job.warmupInsts = std::strtoull(val.c_str(), nullptr, 10);
    }
    checkJob(job);
}

} // namespace dynaspam::runner
