//! The metric names of record.  `BENCHMARK.json` lists the same names
//! (a unit test keeps the two in step); later performance claims are made
//! against them.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The declared per-layer name equal to `name`; panics on a name that
/// [`PER_LAYER`] does not declare.
pub fn declared(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"))
        .name
}

/// End-to-end metrics, printed by the untraced run of every workload.  A
/// request is one closed-loop call: a simulator run, a query batch or a
/// fault-sample answer.
pub const END_TO_END: [MetricDef; 4] = [
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MiB"),
    hi("throughput_per_s", "1/s"),
    lo("request_ms_p50", "ms"),
];

/// Per-layer metrics, printed by the traced run of every workload.  A
/// workload that does not exercise a metric's layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 60] = [
    // Every workload: each layer's self time per request and share of the
    // request time, plus the tracing overhead and the sample count.
    lo("sim.self_ms", "ms"),
    lo("sim.share", "ratio"),
    lo("core.self_ms", "ms"),
    lo("core.share", "ratio"),
    lo("topology.self_ms", "ms"),
    lo("topology.share", "ratio"),
    lo("traffic.self_ms", "ms"),
    lo("traffic.share", "ratio"),
    lo("bench.json.self_ms", "ms"),
    lo("bench.json.share", "ratio"),
    lo("bench.queries.self_ms", "ms"),
    lo("bench.queries.share", "ratio"),
    lo("harness.self_ms", "ms"),
    lo("harness.share", "ratio"),
    lo("trace.overhead", "ratio"),
    hi("bench.requests", "count"),
    // sim_light / sim_heavy.
    lo("sim.run_s.light", "s"),
    lo("sim.run_s.heavy", "s"),
    lo("sim.ns_per_cycle.light", "ns"),
    lo("sim.ns_per_cycle.heavy", "ns"),
    lo("sim.us_per_msg.light", "us"),
    lo("sim.us_per_msg.heavy", "us"),
    lo("sim.new_ms", "ms"),
    lo("sim.cycles.light", "count"),
    lo("sim.cycles.heavy", "count"),
    lo("sim.generated.light", "count"),
    lo("sim.generated.heavy", "count"),
    hi("sim.completed.light", "count"),
    hi("sim.completed.heavy", "count"),
    hi("sim.delivered_share", "ratio"),
    lo("sim.mean_latency_cycles.light", "cycles"),
    lo("sim.mean_latency_cycles.heavy", "cycles"),
    lo("sim.vbar.light", "ratio"),
    lo("sim.vbar.heavy", "ratio"),
    lo("sim.max_source_queue.light", "count"),
    lo("sim.max_source_queue.heavy", "count"),
    // query_mix (the saturation counts also cover the λ* search in the
    // set-up of the sim workloads).
    lo("bench.json.parse_ms", "ms"),
    lo("bench.json.parse_ns_per_byte_p95", "ns/B"),
    lo("bench.json.serialise_ms", "ms"),
    lo("bench.queries.run_batch_ms", "ms"),
    lo("bench.batch_ms_p95", "ms"),
    hi("core.cache.hits", "count"),
    lo("core.cache.misses", "count"),
    hi("core.cache.hit_ratio", "ratio"),
    lo("queueing.fixed_point.iterations", "count"),
    lo("queueing.fixed_point.iters_per_query", "count"),
    lo("core.saturation.probes", "count"),
    lo("core.saturation.solver_iterations", "count"),
    // faulty_sweep.
    lo("traffic.sample_fault_set_ms", "ms"),
    lo("topology.fault_router_build_ms", "ms"),
    lo("topology.deadlock_free_ms", "ms"),
    lo("core.faulty_rates_ms", "ms"),
    lo("core.faulty_model_build_ms", "ms"),
    lo("core.faulty_solve_ms_p50", "ms"),
    lo("core.faulty_solve_ms_p95", "ms"),
    lo("core.faulty_saturation_ms", "ms"),
    lo("core.faulty_saturation.probes", "count"),
    lo("core.faulty.route_hops_per_solve", "count"),
    hi("topology.reachable_pairs", "count"),
    hi("topology.certified_share", "ratio"),
];
