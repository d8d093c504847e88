/**
 * @file
 * Exploration-autopilot benchmark: the adaptive search (sampled scouts
 * + successive halving + frontier-margin promotion) must recover the
 * *exact* Pareto frontier of a fig8-shaped grid — the four comparison
 * modes crossed with trace lengths {8,16,32} and fabric pools {1,2,4}
 * — at a fraction of exhaustive full-fidelity cost.
 *
 *   bench_explore [--workload W] [--scale N] [--seed N]
 *                 [--max-cost-ratio F] [--out FILE]
 *                 [--baseline FILE] [--tolerance FRAC]
 *
 * Both engines run real simulations through a parallel Runner (no
 * result cache). Cost is measured in the engine's deterministic
 * full-fidelity job equivalents (a sampled scout costs its detailed
 * instruction fraction), so the headline ratio is byte-stable across
 * machines and thread counts; wall-clock seconds are reported as
 * corroboration only.
 *
 * The bench hard-fails (exit 1) when the adaptive frontier differs
 * from the exhaustive one in any point — cheap must not mean wrong —
 * or when cost_ratio exceeds --max-cost-ratio (default 0.5). With
 * --baseline, cost_ratio must additionally stay within --tolerance
 * (default 0.25) of the checked-in value. Bad usage or an unreadable
 * baseline exits 2 (see bench_util.hh).
 *
 * The default workload is pf at scale 32: a single hot trace makes the
 * sampled window's CPI extrapolation accurate enough for exact
 * frontier recovery at default margins. Workloads with phase-dependent
 * behaviour (e.g. km) need wider promotion margins to stay exact —
 * that trade is exactly what the margins are for, and the default
 * bench pins the regime where scouting is provably free of error.
 *
 * Report schema: see EXPERIMENTS.md ("Exploration").
 */

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "explore/engine.hh"
#include "explore/space.hh"
#include "runner/runner.hh"

using namespace dynaspam;

namespace
{

using Clock = std::chrono::steady_clock;

struct DriveOutcome
{
    double costUnits = 0.0;
    double gridCostUnits = 0.0;
    double seconds = 0.0;
    std::size_t candidates = 0;
    /** (workload/scale, job hash) of every final-frontier point. */
    std::set<std::pair<std::string, std::string>> frontier;
};

/** Run @p space to completion on a fresh parallel Runner. */
DriveOutcome
drive(explore::Space space)
{
    runner::RunnerOptions opts;
    opts.jobs = 0;    // hardware concurrency
    runner::Runner runner(opts);
    explore::Engine engine(std::move(space));

    const Clock::time_point begin = Clock::now();
    engine.start();
    while (!engine.done())
        engine.feed(runner.runAll(engine.nextBatch()));
    const Clock::time_point end = Clock::now();

    DriveOutcome outcome;
    outcome.costUnits = engine.costUnits();
    outcome.gridCostUnits = engine.gridCostUnits();
    outcome.candidates = engine.candidateCount();
    outcome.seconds =
        std::chrono::duration<double>(end - begin).count();
    const json::Value &report = engine.finalReport();
    for (const json::Value &problem : report.at("problems").asArray()) {
        const std::string label =
            problem.at("workload").asString() + "/" +
            std::to_string(problem.at("scale").asUint());
        for (const json::Value &entry :
             problem.at("frontier").asArray()) {
            outcome.frontier.emplace(
                label, entry.at("job").at("hash").asString());
        }
    }
    return outcome;
}

int
usage()
{
    std::fprintf(stderr,
        "usage: bench_explore [--workload W] [--scale N] [--seed N]\n"
        "                     [--max-cost-ratio F] [--out FILE]\n"
        "                     [--baseline FILE] [--tolerance FRAC]\n");
    return 2;
}

int
run(apps::Args &args)
{
    std::string workload = "pf";
    unsigned scale = 32;
    std::uint64_t seed = 1;
    double max_cost_ratio = 0.5;
    std::string out = "BENCH_explore.json";
    std::string baseline;
    double tolerance = 0.25;

    std::string flag;
    while (args.next(flag)) {
        if (flag == "--workload")
            workload = args.value(flag);
        else if (flag == "--scale")
            scale = args.uvalue(flag);
        else if (flag == "--seed")
            seed = args.u64value(flag);
        else if (flag == "--max-cost-ratio")
            max_cost_ratio = args.dvalue(flag);
        else if (flag == "--out")
            out = args.value(flag);
        else if (flag == "--baseline")
            baseline = args.value(flag);
        else if (flag == "--tolerance")
            tolerance = args.dvalue(flag);
        else
            return usage();
    }
    bench::Gates gates(baseline, tolerance, bench::Better::Lower);

    // Built through fromJson so the bench space carries the exact
    // defaults (fig8 mode axis, margins) a CLI or HTTP caller gets.
    json::Object spec;
    spec["name"] = "explore-bench";
    spec["workloads"] = json::Array{workload};
    spec["scales"] = json::Array{scale};
    spec["trace_lengths"] = json::Array{8, 16, 32};
    spec["num_fabrics"] = json::Array{1, 2, 4};
    spec["objectives"] = json::Array{"speedup", "energy"};
    spec["seed"] = seed;
    explore::Space space = explore::Space::fromJson(json::Value{spec});

    std::printf("bench_explore: %s scale %u, %zu-point fig8 grid\n",
                workload.c_str(), scale,
                std::size_t(1 + 3 * 3 * 3));

    explore::Space exhaustive = space;
    exhaustive.exhaustive = true;
    const DriveOutcome exact = drive(std::move(exhaustive));
    const DriveOutcome adaptive = drive(std::move(space));

    const double cost_ratio =
        adaptive.gridCostUnits > 0.0
            ? adaptive.costUnits / adaptive.gridCostUnits
            : 1.0;
    const double wall_speedup =
        adaptive.seconds > 0.0 ? exact.seconds / adaptive.seconds : 0.0;

    std::printf("%-12s %8.2f cost units   %8.2f s\n", "exhaustive",
                exact.costUnits, exact.seconds);
    std::printf("%-12s %8.2f cost units   %8.2f s\n", "adaptive",
                adaptive.costUnits, adaptive.seconds);
    std::printf("%-12s %8.3f              %8.2fx wall\n", "cost ratio",
                cost_ratio, wall_speedup);
    std::printf("%-12s %zu points (exhaustive %zu)\n", "frontier",
                adaptive.frontier.size(), exact.frontier.size());

    json::Object report_obj;
    report_obj["schema_version"] = 1u;
    report_obj["name"] = "explore";
    report_obj["workload"] = workload;
    report_obj["scale"] = scale;
    report_obj["seed"] = seed;
    report_obj["candidates"] = std::uint64_t(adaptive.candidates);
    report_obj["frontier_points"] =
        std::uint64_t(adaptive.frontier.size());
    report_obj["adaptive_cost_units"] = adaptive.costUnits;
    report_obj["grid_cost_units"] = adaptive.gridCostUnits;
    report_obj["cost_ratio"] = cost_ratio;
    report_obj["exhaustive_seconds"] = exact.seconds;
    report_obj["adaptive_seconds"] = adaptive.seconds;
    report_obj["wall_speedup"] = wall_speedup;
    bench::writeReport(out, json::Value{std::move(report_obj)});

    gates.gate("frontier exact", adaptive.frontier == exact.frontier,
               "MISMATCH");
    gates.atMost("cost ratio", cost_ratio, max_cost_ratio, {5, 3},
                 "TOO COSTLY");
    if (gates.hasBaseline()) {
        // Lower is better: the measured ratio may not creep above the
        // recorded one by more than the tolerance.
        gates.vsBaseline("cost ratio", cost_ratio,
                         gates.baselineValue({"cost_ratio"}), {5, 3});
    }
    return gates.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
