#include "metrics.hh"

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", false},
        {"wall_s", "s", false},
        {"sim_kips", "kinst/s", true},
        {"rps", "1/s", true},
        {"latency_p50_ms", "ms", false},
        {"latency_p99_ms", "ms", false},
        {"peak_rss_mb", "MiB", false},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        // workloads
        {"workloads.build_s", "s", false},
        // sim oracle
        {"oracle.self_s", "s", false},
        {"oracle.insts", "count", false},
        {"oracle.repeat_frac", "frac", false},
        // cycle loop: ooo, core, fabric, memory
        {"cycle_loop.self_s.host", "s", false},
        {"cycle_loop.self_s.fabric", "s", false},
        {"cycle_loop.ns_per_inst.host", "ns", false},
        {"cycle_loop.ns_per_inst.fabric", "ns", false},
        {"cycle_loop.ns_per_cycle", "ns", false},
        // deterministic work counts (must not move in a speed-only change)
        {"ooo.committed_insts", "count", false},
        {"ooo.squashed_insts", "count", false},
        {"ooo.iq_wakeups", "count", false},
        {"ooo.rob_writes", "count", false},
        {"core.mappings_completed", "count", false},
        {"core.offloads_issued", "count", false},
        {"core.invocations_committed", "count", false},
        {"core.invocations_squashed", "count", false},
        {"fabric.insts", "count", false},
        {"memory.dcache_accesses", "count", false},
        {"sim.cycles", "count", false},
        // energy / stats collection
        {"collect.self_s", "s", false},
        // runner
        {"runner.busy_frac", "frac", true},
        {"runner.wait_s", "s", false},
        {"result_cache.store_s", "s", false},
        {"result_cache.load_s", "s", false},
        {"report.render_s", "s", false},
        {"report.bytes", "bytes", false},
        // fork / snapshot
        {"fork.warm_s", "s", false},
        {"fork.reuse_frac", "frac", true},
        {"fork.guard_fired", "count", false},
        {"fork.warmups", "count", false},
        {"fork.snapshot_hits", "count", true},
        {"snapshot.capture_s", "s", false},
        {"snapshot.restore_s", "s", false},
        {"snapshot.serialize_s", "s", false},
        {"snapshot.deserialize_s", "s", false},
        {"snapshot.bytes", "bytes", false},
        {"snapshot_cache.store_s", "s", false},
        {"snapshot_cache.load_s", "s", false},
        // serve / cluster, measured at the client
        {"http.hit_p50_ms", "ms", false},
        {"http.hit_p99_ms", "ms", false},
        {"http.miss_p50_ms", "ms", false},
        {"http.miss_p90_ms", "ms", false},
        {"http.response_bytes", "bytes", false},
        {"json.parse_s", "s", false},
        {"serve.cache_hit_ratio", "frac", true},
        {"serve.hot_set_jobs", "count", false},
        {"wire.encode_s", "s", false},
        {"wire.decode_s", "s", false},
        {"wire.bytes", "bytes", false},
        {"cluster.batch_retries_total", "count", false},
        // model accuracy against the paper (sweep-cold)
        {"model.speedup_geomean.accel-spec", "x", true},
        {"model.speedup_geomean.accel-spec.error", "x", false},
        {"model.speedup_geomean.accel-nospec", "x", true},
        {"model.speedup_geomean.accel-nospec.error", "x", false},
        {"model.energy_reduction_geomean", "frac", true},
        {"model.energy_reduction_geomean.error", "frac", false},
        {"model.mapping_overhead_geomean", "frac", false},
        {"model.mapping_overhead_geomean.error", "frac", false},
        // the benchmark itself
        {"trace.overhead_s", "s", false},
        {"trace.spans", "count", false},
        {"error_frac", "frac", false},
    };
    return specs;
}

} // namespace perfbench
