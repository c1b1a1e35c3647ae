//! Simulator-throughput regression gate (the `bench-smoke` CI check).
//!
//! Measures simulated cycles per wall-clock second and issued MIPS
//! over the three EXPERIMENTS.md workloads — ray trace, Livermore K1,
//! and the Figure 6 linked-list loop — at 1, 4, and 8 thread slots,
//! using the same minimum-of-N estimator as `overhead_check.rs` (the
//! criterion stub's fixed-window means are too noisy on a shared box
//! to gate on).
//!
//! Modes:
//!
//! * `throughput_check` — measure, print a report, and compare each
//!   grid point against the checked-in baseline
//!   (`BENCH_throughput.json` at the repo root). Exits non-zero if
//!   any point regresses by more than 20%.
//! * `throughput_check --record` — measure and rewrite the baseline.
//! * `throughput_check --report <path>` — also write the report to
//!   `<path>` (uploaded as a CI artifact).
//! * `throughput_check --probe [--points k1,k2,...]` — one quick
//!   machine-readable measurement pass: `key<TAB>cycles/sec` per
//!   selected grid point, no gating, no baseline. This is the unit of
//!   work `scripts/ab_bench.sh` interleaves between two binaries; the
//!   harness owns repetition and pairing, so the probe itself stays
//!   short (a couple of minimum-of-runs rounds per point).
//!
//! Improvements beyond the baseline never fail the gate; run with
//! `--record` after a deliberate performance change.
//!
//! Besides the per-point absolute gate, the run also gates *scaling*: the s8/s1 cycles-per-second ratio per workload
//! must not worsen by more than 20% against the same baseline, so
//! multi-slot per-cycle cost cannot silently creep back even while
//! every absolute number stays inside its own 20% band.

use std::collections::BTreeMap;
use std::time::Instant;

use hirata_isa::Program;
use hirata_sched::Strategy;
use hirata_sim::{Config, Machine};
use hirata_workloads::linked_list::{eager_program, sequential_program, ListShape};
use hirata_workloads::livermore::kernel1_program;
use hirata_workloads::raytrace::{raytrace_program, RayTraceParams};

/// Regression threshold: fail if cycles/sec drops below 80% of the
/// recorded baseline for any grid point.
const REGRESSION_FRACTION: f64 = 0.80;

/// Timing rounds; each round times `RUNS_PER_ROUND` back-to-back runs
/// and the estimate is the per-run minimum over all rounds.
const ROUNDS: usize = 12;
const RUNS_PER_ROUND: usize = 4;
const WARMUP_RUNS: usize = 3;

struct GridPoint {
    /// Baseline key, e.g. `raytrace/s4`.
    key: String,
    config: Config,
    program: Program,
}

fn grid() -> Vec<GridPoint> {
    let ray = raytrace_program(&RayTraceParams::default());
    let k1_n = 64;
    let fig6 = ListShape { nodes: 60, break_at: Some(59) };

    let mut points = Vec::new();
    for slots in [1usize, 2, 4, 8] {
        let config = if slots == 1 { Config::base_risc() } else { Config::multithreaded(slots) };
        points.push(GridPoint {
            key: format!("raytrace/s{slots}"),
            config: config.clone(),
            program: ray.clone(),
        });
        // K1 at one slot has no threads to reserve for; use the plain
        // sequential lowering there and the reservation strategy where
        // the machine actually has slots.
        let (k1_prog, fig6_prog) = if slots == 1 {
            (kernel1_program(k1_n, Strategy::None), sequential_program(fig6))
        } else {
            (kernel1_program(k1_n, Strategy::ReservationB { threads: slots }), eager_program(fig6))
        };
        points.push(GridPoint {
            key: format!("livermore-k1/s{slots}"),
            config: config.clone(),
            program: k1_prog,
        });
        points.push(GridPoint { key: format!("fig6-list/s{slots}"), config, program: fig6_prog });
    }
    points
}

struct Measurement {
    cycles: u64,
    instructions: u64,
    /// Best-case wall seconds for one run.
    secs: f64,
}

fn measure(point: &GridPoint) -> Measurement {
    let run = || {
        let mut m = Machine::new(point.config.clone(), &point.program).expect("machine builds");
        m.run().expect("program runs");
        (m.cycles(), m.stats().instructions)
    };
    let (cycles, instructions) = run();
    for _ in 0..WARMUP_RUNS {
        run();
    }
    let mut best = f64::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..RUNS_PER_ROUND {
            run();
        }
        best = best.min(t.elapsed().as_secs_f64() / RUNS_PER_ROUND as f64);
    }
    Measurement { cycles, instructions, secs: best }
}

/// One probe measurement: smaller estimator than [`measure`] (the A/B
/// harness repeats and pairs probes across binaries, so each probe
/// only needs to be a stable minimum, not a full gate-quality one).
fn probe_measure(point: &GridPoint) -> Measurement {
    let run = || {
        let mut m = Machine::new(point.config.clone(), &point.program).expect("machine builds");
        m.run().expect("program runs");
        (m.cycles(), m.stats().instructions)
    };
    let (cycles, instructions) = run();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..2 {
            run();
        }
        best = best.min(t.elapsed().as_secs_f64() / 2.0);
    }
    Measurement { cycles, instructions, secs: best }
}

/// Minimal flat-object JSON for the baseline file: string keys mapped
/// to finite non-negative numbers. Purpose-built so the gate needs no
/// external serializer.
fn render_baseline(values: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in values {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{k}\": {v:.1}"));
    }
    out.push_str("\n}\n");
    out
}

fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("baseline is not a JSON object")?;
    let mut values = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':').ok_or_else(|| format!("bad entry: {entry}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value.trim().parse().map_err(|e| format!("bad number for {key}: {e}"))?;
        values.insert(key, value);
    }
    Ok(values)
}

fn baseline_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("BENCH_THROUGHPUT_BASELINE") {
        return p.into();
    }
    // crates/bench -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let probe = args.iter().any(|a| a == "--probe");
    let points_filter: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--points")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(str::to_string).collect());
    let report_path = args
        .iter()
        .position(|a| a == "--report")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);

    if probe {
        for point in grid() {
            if let Some(filter) = &points_filter {
                if !filter.contains(&point.key) {
                    continue;
                }
            }
            let m = probe_measure(&point);
            println!("{}\t{:.1}", point.key, m.cycles as f64 / m.secs);
        }
        return;
    }

    let mut report = String::new();
    report.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10} {:>12}\n",
        "workload/slots", "cycles", "cycles/sec", "MIPS", "vs baseline"
    ));

    let baseline = match std::fs::read_to_string(baseline_path()) {
        Ok(text) => parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("warning: unreadable baseline: {e}");
            BTreeMap::new()
        }),
        Err(_) => BTreeMap::new(),
    };

    let mut measured = BTreeMap::new();
    let mut failures = Vec::new();
    for point in grid() {
        let m = measure(&point);
        let cps = m.cycles as f64 / m.secs;
        let mips = m.instructions as f64 / m.secs / 1e6;
        let delta = baseline.get(&point.key).map(|&base| cps / base - 1.0);
        let delta_txt = match delta {
            Some(d) => format!("{:+.1}%", d * 100.0),
            None => "(new)".to_string(),
        };
        report.push_str(&format!(
            "{:<18} {:>12} {:>12.0} {:>10.2} {:>12}\n",
            point.key, m.cycles, cps, mips, delta_txt
        ));
        if let Some(d) = delta {
            if 1.0 + d < REGRESSION_FRACTION {
                failures.push(format!(
                    "{}: {:.0} cycles/sec is {:.1}% below baseline {:.0}",
                    point.key,
                    cps,
                    -d * 100.0,
                    baseline[&point.key]
                ));
            }
        }
        measured.insert(point.key, cps);
    }

    // Scaling gate: the s8/s1 cycles-per-second ratio per workload may
    // not worsen by more than the regression fraction. Catches
    // multi-slot cost creeping back even when every absolute number
    // stays inside its own band.
    for workload in ["raytrace", "livermore-k1", "fig6-list"] {
        let ratio_of = |values: &BTreeMap<String, f64>| -> Option<f64> {
            let s1 = values.get(&format!("{workload}/s1"))?;
            let s8 = values.get(&format!("{workload}/s8"))?;
            (*s1 > 0.0).then(|| s8 / s1)
        };
        if let (Some(measured), Some(base)) = (ratio_of(&measured), ratio_of(&baseline)) {
            report.push_str(&format!(
                "{:<18} s8/s1 scaling {:.3} (baseline {:.3}, {:+.1}%)\n",
                workload,
                measured,
                base,
                (measured / base - 1.0) * 100.0
            ));
            if measured < REGRESSION_FRACTION * base {
                failures.push(format!(
                    "{workload}: s8/s1 scaling ratio {measured:.3} is {:.1}% below baseline {base:.3}",
                    (1.0 - measured / base) * 100.0
                ));
            }
        }
    }

    print!("{report}");
    if let Some(path) = report_path {
        std::fs::write(&path, &report).expect("write report");
        eprintln!("report written to {}", path.display());
    }

    if record {
        let path = baseline_path();
        std::fs::write(&path, render_baseline(&measured)).expect("write baseline");
        eprintln!("baseline recorded to {}", path.display());
        return;
    }

    if baseline.is_empty() {
        eprintln!("no baseline found at {}; run with --record first", baseline_path().display());
        return;
    }
    if !failures.is_empty() {
        eprintln!("throughput regression (> {:.0}% drop):", (1.0 - REGRESSION_FRACTION) * 100.0);
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    eprintln!("throughput within {:.0}% of baseline", (1.0 - REGRESSION_FRACTION) * 100.0);
}
