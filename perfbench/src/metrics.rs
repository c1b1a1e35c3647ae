//! The metric catalogue — every name and unit the benchmark prints,
//! which `BENCHMARK.json` lists too — and the result line.

use std::fmt::Write as _;

use crate::Outcome;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("sim_mips", "Minst/s"),
    ("peak_heap_mb", "MiB"),
];

/// Kernel grid points, in pass order.
pub const POINTS: [&str; 12] = [
    "raytrace-s1",
    "livermore-k1-s1",
    "fig6-list-s1",
    "raytrace-s2",
    "livermore-k1-s2",
    "fig6-list-s2",
    "raytrace-s4",
    "livermore-k1-s4",
    "fig6-list-s4",
    "raytrace-s8",
    "livermore-k1-s8",
    "fig6-list-s8",
];

/// Stall reasons, in `StallReason::ALL` order, as metric suffixes.
pub const STALLS: [&str; 8] = [
    "no-thread",
    "fetch",
    "branch-shadow",
    "data-dep",
    "fu-conflict",
    "priority",
    "queue-empty",
    "queue-full",
];

/// Per-layer metrics of a traced run: `(name, unit)`. A layer the
/// workload never calls reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![("sim.machine.run_ms".into(), "ms")];
    out.extend(POINTS.iter().map(|p| (format!("sim.machine.ns_per_inst.{p}"), "ns/inst")));
    out.extend(POINTS.iter().map(|p| (format!("sim.machine.ns_per_cycle.{p}"), "ns/cycle")));
    out.extend(POINTS.iter().map(|p| (format!("sim.cycles.{p}"), "cycles")));
    out.extend(POINTS.iter().map(|p| (format!("sim.instructions.{p}"), "inst")));
    out.extend(STALLS.iter().map(|r| (format!("sim.stall.{r}"), "slot-cycles")));
    let fixed: [(&str, &'static str); 26] = [
        ("sim.predecode_us", "us"),
        ("sim.machine.new_us", "us"),
        ("workloads.gen_ms", "ms"),
        ("asm.assemble_us", "us"),
        ("serve.json.parse_us", "us"),
        ("serve.transport_us", "us"),
        ("serve.requests", "count"),
        ("serve.jobs_run", "count"),
        ("serve.jobs_cached", "count"),
        ("serve.jobs_failed", "count"),
        ("lab.hash_us", "us"),
        ("lab.cache.load_us", "us"),
        ("lab.cache.store_us", "us"),
        ("lab.cache.hits", "count"),
        ("lab.cache.misses", "count"),
        ("lab.cache.stores", "count"),
        ("lab.cache.bytes", "bytes"),
        ("lab.cache.hit_ratio", "ratio"),
        ("serve.submit_ms.warm", "ms"),
        ("serve.submit_ms.cold-pool", "ms"),
        ("serve.submit_ms.cold-interleaved", "ms"),
        ("sim.job_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("repro.err.table2_pct", "%"),
        ("repro.err.table3_pct", "%"),
        ("repro.err.table5_pct", "%"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out.extend(hirata_repro::EXPERIMENTS.iter().map(|e| (format!("repro.{e}_ms"), "ms")));
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every catalogue metric of the run's kind.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    )
}
