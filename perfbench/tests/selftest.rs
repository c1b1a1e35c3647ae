//! Self-tests of the benchmark: input determinism, the metric
//! catalogue against `BENCHMARK.json`, short runs of every workload,
//! and the golden digests.

use std::path::PathBuf;

use hirata_perfbench::metrics::{per_layer, result_line, END_TO_END};
use hirata_perfbench::serve::{body, plan, request, Kind};
use hirata_perfbench::{repro, run, Golden, Options, Outcome, Timings, Workload, DEFAULT_SEED};

/// Rounds of every short run.
const ROUNDS: usize = 2;
use hirata_serve::client::Mode;
use hirata_serve::json::Json;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory");
    dir
}

fn short_run(workload: Workload, ops: usize, traced: bool, golden: Golden) -> Outcome {
    let tag = format!("{}-{ops}-{traced}-{:x}", workload.name(), golden.repro);
    let opts = Options {
        workload,
        seed: DEFAULT_SEED,
        rounds: ROUNDS,
        ops,
        traced,
        work_dir: work_dir(&tag),
        golden,
    };
    let outcome = run(&opts).expect("set-up succeeds");
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome
}

/// The bytes the serve workload sends, in order.
fn serve_sequence(seed: u64) -> Vec<u8> {
    let plan = plan(seed, 60);
    let mut out = Vec::new();
    for p in 0..hirata_perfbench::serve::SETUP_PROGRAMS {
        out.extend_from_slice(body(&request(&plan, p, Mode::Pool)).as_bytes());
    }
    for sub in &plan.ops {
        let mode = if sub.kind == Kind::ColdInterleaved { Mode::Interleaved } else { Mode::Pool };
        out.extend_from_slice(sub.kind.name().as_bytes());
        out.extend_from_slice(body(&request(&plan, sub.program, mode)).as_bytes());
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_serve_sequence() {
    assert_eq!(serve_sequence(7), serve_sequence(7));
    assert_ne!(serve_sequence(7), serve_sequence(8));
}

#[test]
fn serve_mix_is_two_warm_to_one_cold_with_alternating_modes() {
    let plan = plan(3, 600);
    let count = |kind| plan.ops.iter().filter(|s| s.kind == kind).count();
    assert_eq!(count(Kind::Warm), 400);
    assert_eq!(count(Kind::ColdPool), 100);
    assert_eq!(count(Kind::ColdInterleaved), 100);
    for (i, sub) in plan.ops.iter().enumerate() {
        if sub.kind != Kind::Warm {
            assert_eq!(
                sub.program,
                i / 3 + hirata_perfbench::serve::SETUP_PROGRAMS,
                "cold ops send new programs"
            );
        } else {
            assert!(sub.program < i / 3 + hirata_perfbench::serve::SETUP_PROGRAMS + 1);
        }
    }
    for (index, p) in plan.programs.iter().enumerate() {
        let bytes = body(&request(&plan, index, Mode::Pool)).len();
        assert!((40..=200).contains(&p.nodes));
        assert!((2_000..16_000).contains(&bytes), "{bytes}-byte body");
    }
}

#[test]
fn every_seed_sends_the_same_spread_of_programs() {
    // Forms and sorted lengths per mode, and how often each program is
    // resent, over whole blocks: 576 ops send twelve blocks of eight
    // cold programs per mode.
    let spread = |seed| {
        let plan = plan(seed, 576);
        let shapes = |kind| {
            let cold = plan.ops.iter().filter(|s| s.kind == kind).map(|s| plan.programs[s.program]);
            let mut forms: Vec<(bool, bool)> =
                cold.clone().map(|p| (p.eager, p.break_at.is_some())).collect();
            let mut nodes: Vec<usize> = cold.map(|p| p.nodes).collect();
            forms.sort();
            nodes.sort();
            (forms, nodes)
        };
        let mut resent = vec![0; plan.programs.len()];
        for sub in plan.ops.iter().filter(|s| s.kind == Kind::Warm) {
            resent[sub.program] += 1;
        }
        (shapes(Kind::ColdPool), shapes(Kind::ColdInterleaved), resent)
    };
    let (pool_a, inter_a, resent_a) = spread(5);
    let (pool_b, inter_b, resent_b) = spread(6);
    for ((forms_a, nodes_a), (forms_b, nodes_b)) in [(pool_a, pool_b), (inter_a, inter_b)] {
        assert_eq!(forms_a, forms_b);
        for (a, b) in nodes_a.iter().zip(&nodes_b) {
            assert!(a.abs_diff(*b) <= 20, "lengths {a} and {b} lie in different strata");
        }
    }
    for resent in [resent_a, resent_b] {
        assert!(resent.iter().all(|&n| n <= 2), "a program resent more than twice");
    }
}

fn catalogue(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");

    let end_to_end: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(catalogue(&doc, "end_to_end"), end_to_end);
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(catalogue(&doc, "per_layer"), layers);

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    // The result line carries exactly the catalogue, with units.
    for (traced, expected) in [(false, end_to_end), (true, layers)] {
        let line = result_line(&Outcome { attempted: 1, ..Outcome::default() }, traced);
        let parsed = Json::parse(&line).expect("result line is JSON");
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else { panic!("metrics object") };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
            })
            .collect();
        assert_eq!(printed, expected);
        for key in ["correct", "attempted", "failed"] {
            assert!(parsed.get(key).is_some(), "result line has `{key}`");
        }
    }
}

#[test]
fn short_runs_of_every_workload_end_with_zero_failed_ops() {
    for (workload, ops) in [(Workload::Kernel, 3), (Workload::Serve, 9)] {
        let timed = short_run(workload, ops, false, Golden::recorded());
        let attempted = (ROUNDS * ops) as u64;
        assert_eq!((timed.attempted, timed.failed), (attempted, 0), "{}", workload.name());
        for (name, _) in END_TO_END {
            let v = timed.metrics[name];
            assert!(v > 0.0 && v.is_finite(), "{} {name} = {v}", workload.name());
        }
    }
}

#[test]
fn short_traced_runs_report_per_layer_metrics() {
    let kernel = short_run(Workload::Kernel, 7, true, Golden::recorded());
    // Seven kernel passes a round, then the repro layer probe's passes
    // and its error computation.
    let attempted = (ROUNDS * 7 + repro::PASSES + 1) as u64;
    assert_eq!((kernel.attempted, kernel.failed), (attempted, 0));
    assert!(kernel.metrics["sim.cycles.raytrace-s1"] > 0.0);
    assert!(kernel.metrics["sim.machine.ns_per_inst.fig6-list-s8"] > 0.0);
    assert!(kernel.metrics["repro.table2_ms"] > 0.0);
    assert!(kernel.metrics["repro.err.table5_pct"] > 0.0);
    assert!(kernel.spans.is_some());

    let serve = short_run(Workload::Serve, 9, true, Golden::recorded());
    assert_eq!(serve.failed, 0);
    // The last round's daemon: set-up submits three programs, then
    // three cold and six warm ops; `/stats` counts itself.
    assert_eq!(serve.metrics["serve.requests"], 13.0);
    assert_eq!(serve.metrics["serve.jobs_run"], 48.0);
    assert_eq!(serve.metrics["serve.jobs_cached"], 48.0);
    assert!(serve.metrics["serve.json.parse_us"] > 0.0);
}

#[test]
fn host_times_are_scaled_to_the_nominal_host_speed() {
    let mut timings = Timings {
        setup_s: vec![0.5, 0.7, 0.6],
        op_s: vec![0.010, 0.030, 0.020],
        sim_instructions: 3_000_000,
        peak_heap_bytes: 1 << 20,
        ..Timings::default()
    };
    let host = timings.end_to_end();
    // The reference loop ran at half its nominal speed, so every time
    // halves and every rate doubles.
    timings.reference_s = 0.002;
    timings.nominal_s = 0.001;
    let nominal = timings.end_to_end();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    for name in ["setup_s", "op_p50_ms", "op_p90_ms"] {
        assert!(close(nominal[name], host[name] / 2.0), "{name}");
    }
    for name in ["ops_per_s", "sim_mips"] {
        assert!(close(nominal[name], host[name] * 2.0), "{name}");
    }
    assert_eq!(nominal["peak_heap_mb"], host["peak_heap_mb"]);
    assert!(close(host["op_p50_ms"], 20.0) && close(host["ops_per_s"], 50.0));
}

#[test]
fn a_corrupted_golden_digest_makes_the_run_fail() {
    let mut golden = Golden::recorded();
    golden.kernel[4].1 ^= 1;
    let kernel = short_run(Workload::Kernel, 2, false, golden);
    let attempted = (ROUNDS * 2) as u64;
    assert_eq!((kernel.attempted, kernel.failed), (attempted, attempted));

    let mut golden = Golden::recorded();
    golden.repro ^= 1;
    let traced = short_run(Workload::Kernel, 1, true, golden);
    assert_eq!(traced.failed, repro::PASSES as u64, "every repro pass fails");
}
