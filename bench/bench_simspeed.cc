/**
 * @file
 * Simulator-throughput benchmark: committed kilo-instructions per
 * second (KIPS) of host wall time, per workload, host-only
 * (baseline-ooo) and fabric-enabled (accel-spec).
 *
 * This is the repo's first *simulator speed* trajectory (all other
 * benches report simulated cycles, which are wall-time independent).
 * It exists so cycle-engine optimizations have a measurable target and
 * so CI can gate on throughput regressions.
 *
 *   bench_simspeed [--scale N] [--repeat N] [--workloads a,b,c]
 *                  [--out FILE] [--baseline FILE] [--tolerance FRAC]
 *
 * Each (workload, mode) point is simulated --repeat times (default 3)
 * with the result cache disabled; the fastest run is reported, which
 * suppresses scheduler noise. KIPS counts *committed program
 * instructions* (result.instsTotal) against the wall time of the whole
 * runner::execute call (functional pass + timing pass), timed with
 * steady_clock.
 *
 * Right before each point the bench times bench::calibrationMops (best
 * of --repeat passes of a fixed loop that shares no code with the
 * simulator). The point's normalised KIPS is its KIPS divided by that
 * calibration rate: simulated instructions per thousand calibration
 * steps. A busy or throttled host slows both, so the ratio holds still
 * where raw KIPS drifts.
 *
 * With --baseline, the emitted report is compared against a previously
 * checked-in report: the run fails (exit 1) if the geomean normalised
 * KIPS of either mode drops more than --tolerance (default 0.25, in
 * [0, 1)) below the baseline's geomean over the same workloads; a
 * workload the baseline lacks is an error (exit 2). Raw KIPS is
 * reported but not gated. Single points do not gate, since single-point
 * timings on shared CI hosts are noisy.
 *
 * Report schema: see EXPERIMENTS.md ("Simulator-throughput benchmark").
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "runner/job.hh"
#include "runner/spec.hh"

using namespace dynaspam;
using runner::Job;
using sim::SystemMode;

namespace
{

/** One timed simulation point and the host calibration next to it. */
struct Point
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double seconds = 0.0;
    double calMops = 0.0;

    double kips() const
    {
        return seconds > 0.0 ? double(insts) / 1e3 / seconds : 0.0;
    }

    /** KIPS per calibration Mstep/s: insts per 1000 calibration steps. */
    double normKips() const { return calMops > 0.0 ? kips() / calMops : 0.0; }
};

Point
timePoint(const Job &job, unsigned repeat)
{
    Point best;
    best.calMops = bench::calibrationMops(repeat);
    for (unsigned i = 0; i < repeat; i++) {
        const auto t0 = std::chrono::steady_clock::now();
        sim::RunResult res = runner::execute(job);
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (i == 0 || secs < best.seconds) {
            best.insts = res.instsTotal;
            best.cycles = res.cycles;
            best.seconds = secs;
        }
    }
    return best;
}

json::Value
pointToJson(const Point &p)
{
    json::Object o;
    o["insts"] = p.insts;
    o["cycles"] = p.cycles;
    o["seconds"] = p.seconds;
    o["kips"] = p.kips();
    o["cal_mops"] = p.calMops;
    o["norm_kips"] = p.normKips();
    return o;
}

int
usage()
{
    std::fprintf(stderr,
        "usage: bench_simspeed [--scale N] [--repeat N]\n"
        "                      [--workloads a,b,c] [--out FILE]\n"
        "                      [--baseline FILE] [--tolerance FRAC]\n");
    return 2;
}

int
run(apps::Args &args)
{
    unsigned scale = 1;
    unsigned repeat = 3;
    double tolerance = 0.25;
    std::string out = "BENCH_simspeed.json";
    std::string baseline;
    std::vector<std::string> names = workloads::allWorkloadNames();

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--scale")
            scale = args.uvalue(flag);
        else if (flag == "--repeat")
            repeat = args.uvalue(flag);
        else if (flag == "--out")
            out = args.value(flag);
        else if (flag == "--baseline")
            baseline = args.value(flag);
        else if (flag == "--tolerance")
            tolerance = args.dvalue(flag);
        else if (flag == "--workloads") {
            names.clear();
            for (const std::string &item : apps::splitCommas(args.value(flag)))
                names.push_back(workloads::canonicalWorkloadName(item));
        } else {
            return usage();
        }
    }
    if (repeat == 0 || names.empty())
        return usage();
    for (const std::string &name : names)
        runner::checkJob(Job{name, SystemMode::AccelSpec, 32, 1, scale});
    bench::Gates gates(baseline, tolerance, bench::Better::Higher);

    std::printf("simspeed: scale %u, best of %u run%s per point\n", scale,
                repeat, repeat == 1 ? "" : "s");
    std::printf("%-6s %12s %10s %8s %12s %10s %8s\n", "bench", "host insts",
                "host KIPS", "norm", "fabric insts", "fab KIPS", "norm");
    bench::rule(7);

    json::Object workloads_json;
    std::vector<double> host_kips, fabric_kips, host_norm, fabric_norm,
        cal_mops;
    for (const std::string &name : names) {
        const Point host =
            timePoint(Job{name, SystemMode::BaselineOoo, 32, 1, scale},
                      repeat);
        const Point fabric =
            timePoint(Job{name, SystemMode::AccelSpec, 32, 1, scale},
                      repeat);
        host_kips.push_back(host.kips());
        fabric_kips.push_back(fabric.kips());
        host_norm.push_back(host.normKips());
        fabric_norm.push_back(fabric.normKips());
        cal_mops.push_back(host.calMops);
        cal_mops.push_back(fabric.calMops);

        json::Object modes;
        modes["host"] = pointToJson(host);
        modes["fabric"] = pointToJson(fabric);
        workloads_json[name] = std::move(modes);

        std::printf("%-6s %12llu %10.1f %8.2f %12llu %10.1f %8.2f\n",
                    name.c_str(),
                    static_cast<unsigned long long>(host.insts),
                    host.kips(), host.normKips(),
                    static_cast<unsigned long long>(fabric.insts),
                    fabric.kips(), fabric.normKips());
    }
    bench::rule(7);

    json::Object report_obj;
    report_obj["schema_version"] = 2u;
    report_obj["name"] = "simspeed";
    report_obj["scale"] = scale;
    report_obj["repeat"] = repeat;
    report_obj["workloads"] = std::move(workloads_json);
    json::Object geo;
    geo["host_kips"] = geomean(host_kips);
    geo["fabric_kips"] = geomean(fabric_kips);
    geo["host_norm_kips"] = geomean(host_norm);
    geo["fabric_norm_kips"] = geomean(fabric_norm);
    geo["cal_mops"] = geomean(cal_mops);
    report_obj["geomean"] = std::move(geo);

    std::printf("%-6s %12s %10.1f %8.2f %12s %10.1f %8.2f   (geomean)\n",
                "geo", "", geomean(host_kips), geomean(host_norm), "",
                geomean(fabric_kips), geomean(fabric_norm));
    std::printf("calibration: %.1f Msteps/s geomean (norm = KIPS per "
                "Msteps/s)\n",
                geomean(cal_mops));
    bench::writeReport(out, json::Value{std::move(report_obj)});

    if (!gates.hasBaseline())
        return 0;
    // Gate each mode's normalised geomean against the baseline's over
    // the same workloads, so a --workloads subset compares like with
    // like.
    for (const auto &[mode, norm] :
         {std::pair{"host", &host_norm}, std::pair{"fabric", &fabric_norm}}) {
        std::vector<double> base_norm;
        for (const std::string &name : names)
            base_norm.push_back(
                gates.baselineValue({"workloads", name, mode, "norm_kips"}));
        char label[32];
        std::snprintf(label, sizeof(label), "%-6s norm geomean", mode);
        gates.vsBaseline(label, geomean(*norm), geomean(base_norm),
                         {7, 2}, " KIPS/Mstep/s");
    }
    return gates.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
