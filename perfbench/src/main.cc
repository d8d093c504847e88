/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--spans-out FILE]
 *
 * Prints facts about the run (host, build, digests) as `perfbench:`
 * lines, then one JSON object as the last line of standard output:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs report
 * the end-to-end metrics, traced runs the per-layer ones. Exits 2 on a
 * usage error or when asked to measure the wrong program, 1 when the
 * run itself fails.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <unistd.h>

#include "check/check.hh"
#include "metrics.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * Refuse to measure a program that is not the one users run: checks or
 * event tracing switched on from the environment, a shared result
 * cache, a checked build, or assertions compiled in.
 * @return the reason, or "" when the program is fit to measure
 */
std::string
wrongProgram()
{
    for (const char *var : {"DYNASPAM_CHECKS", "DYNASPAM_TRACE", "DYNASPAM_CACHE"})
        if (std::getenv(var))
            return std::string(var) + " is set";
    if (dynaspam::check::compiledIn())
        return "built with DYNASPAM_CHECKS_BUILD";
    if (dynaspam::check::enabled())
        return "invariant checks are enabled at run time";
#ifndef NDEBUG
    return "built without NDEBUG";
#else
    return "";
#endif
}

std::string
loadAverage()
{
    std::ifstream is("/proc/loadavg");
    std::string one;
    is >> one;
    return one.empty() ? "unknown" : one;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep-cold|sweep-fork|"
                 "serve-mixed|cluster-mixed\n"
                 "                 --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--spans-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::string(argv[i]).rfind("--", 0) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("workload") || !args.count("work-dir"))
        return usage();

    RunConfig cfg;
    const std::string workload = args["workload"];
    try {
        cfg.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
        cfg.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
        cfg.trace = (args.count("trace") ? args["trace"] : "0") == "1";
    } catch (const std::exception &) {
        return usage();
    }
    cfg.workDir = args["work-dir"];
    cfg.nproc = unsigned(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
    cfg.dynaspamBin = PERFBENCH_DYNASPAM_BIN;

    if (const std::string why = wrongProgram(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                     why.c_str());
        return 2;
    }

    std::printf("perfbench: workload = %s, seed = %llu, seconds = %g, "
                "trace = %d\n",
                workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, int(cfg.trace));
    std::printf("perfbench: nproc = %u, loadavg_1m = %s\n", cfg.nproc,
                loadAverage().c_str());
    std::printf("perfbench: compiler = %s, flags = %s\n", PERFBENCH_COMPILER,
                PERFBENCH_FLAGS);
    std::fflush(stdout);

    Tracer tracer(cfg.trace);
    RunOutput out;
    try {
        std::filesystem::remove_all(cfg.workDir);
        std::filesystem::create_directories(cfg.workDir);
        if (workload == "sweep-cold")
            runSweepCold(cfg, tracer, out);
        else if (workload == "sweep-fork")
            runSweepFork(cfg, tracer, out);
        else if (workload == "serve-mixed")
            runServing(cfg, false, tracer, out);
        else if (workload == "cluster-mixed")
            runServing(cfg, true, tracer, out);
        else
            return usage();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                     err.what());
        return 1;
    }

    out.set("error_frac", out.ledger.errorFrac());
    if (cfg.trace) {
        out.set("trace.overhead_s", out.tracingOverheadSeconds);
        out.set("trace.spans", double(tracer.spans().size()));
        const std::string path = args.count("spans-out")
                                     ? args["spans-out"]
                                     : cfg.workDir + "/spans.json";
        if (!tracer.writeChromeJson(
                path, "\"workload\": " + quoted(workload) +
                          ", \"seed\": " + std::to_string(cfg.seed) +
                          ", \"overhead_s\": " +
                          number(out.tracingOverheadSeconds))) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("perfbench: spans = %s, tracing overhead = %s s\n",
                    path.c_str(), number(out.tracingOverheadSeconds).c_str());
    }

    for (const auto &[key, value] : out.info)
        std::printf("perfbench: %s = %s\n", key.c_str(), value.c_str());
    for (const std::string &f : out.ledger.failures())
        std::printf("perfbench: FAILED %s\n", f.c_str());

    // The result line: every end-to-end metric untraced, every
    // per-layer metric traced (0 where the workload has no such layer).
    std::string metrics;
    bool complete = true;
    for (const MetricSpec &spec :
         cfg.trace ? perLayerMetrics() : endToEndMetrics()) {
        auto it = out.metrics.find(spec.name);
        double value = 0.0;
        if (it != out.metrics.end())
            value = it->second;
        else if (!cfg.trace)
            complete = false;
        std::printf("perfbench: metric %s = %s %s\n", spec.name,
                    number(value).c_str(), spec.unit);
        metrics += std::string(metrics.empty() ? "" : ", ") + quoted(spec.name) +
                   ": {\"value\": " + number(value) +
                   ", \"unit\": " + quoted(spec.unit) + "}";
    }
    if (!complete) {
        std::fprintf(stderr, "perfbench: %s left an end-to-end metric unset\n",
                     workload.c_str());
        return 1;
    }
    const std::uint64_t attempted = out.ledger.attempted();
    const std::uint64_t failed = out.ledger.failed();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 && attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}
