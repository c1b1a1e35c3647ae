//! Trace-artifact determinism, checked end to end through the `repro`
//! binary: the Chrome trace JSON a job emits is byte-identical
//! whatever the worker count, and a warm-cache rerun — which only
//! re-simulates jobs whose artifact is missing — reproduces the same
//! bytes for every artifact it regenerates.
//!
//! The same contract holds one level down for the ways a machine is
//! driven: every trace sink (Chrome, Text, Ring) must render
//! byte-identical output whether the traced machine runs to the end
//! in one call or in strides (as the job engine runs it), and the
//! traced statistics must equal those of an untraced run, where the
//! event wheel skips the stalled spans that tracing steps through.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use hirata_sim::{format_event, ChromeSink, Config, Machine, RingSink, RunStats, TextSink};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-trace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro(cache: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("HIRATA_LAB_CACHE", cache)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro {args:?} failed: {out:?}");
}

/// Reads every trace artifact in `dir` as `name -> bytes`.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("artifact is readable"))
        })
        .collect()
}

#[test]
fn trace_artifacts_are_byte_identical_across_worker_counts_and_cache_states() {
    let cache = temp_dir("cache");
    let traces_serial = temp_dir("serial");
    let traces_parallel = temp_dir("parallel");

    // Cold cache, one worker; populates the cache and the artifacts.
    repro(
        &cache,
        &["--quick", "table5", "--jobs", "1", "--trace-dir", traces_serial.to_str().unwrap()],
    );
    // Four workers, cache bypassed: a genuinely cold parallel run.
    repro(
        &cache,
        &[
            "--quick",
            "table5",
            "--no-cache",
            "--jobs",
            "4",
            "--trace-dir",
            traces_parallel.to_str().unwrap(),
        ],
    );

    let serial = artifacts(&traces_serial);
    let parallel = artifacts(&traces_parallel);
    assert!(!serial.is_empty(), "the sweep must emit trace artifacts");
    assert_eq!(serial, parallel, "trace JSON must be byte-identical at --jobs 1 and --jobs 4");
    for (name, bytes) in &serial {
        let text = std::str::from_utf8(bytes).expect("trace JSON is UTF-8");
        assert!(text.starts_with("{\"traceEvents\":["), "{name} is not a Chrome trace");
        assert!(text.trim_end().ends_with('}'), "{name} is truncated");
    }

    // Warm cache, fresh trace dir: every result is cached but no
    // artifact exists, so every job re-simulates to regenerate its
    // trace — and must land on the very same bytes.
    let traces_warm = temp_dir("warm");
    repro(
        &cache,
        &["--quick", "table5", "--jobs", "4", "--trace-dir", traces_warm.to_str().unwrap()],
    );
    assert_eq!(
        serial,
        artifacts(&traces_warm),
        "warm-cache regeneration must be byte-identical to the cold run"
    );

    for dir in [&cache, &traces_serial, &traces_parallel, &traces_warm] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Runs `machine` to the end: in one `run()`, or in strides of
/// `stride` cycles through `run_span`.
fn drive(machine: &mut Machine, stride: Option<u64>) -> RunStats {
    match stride {
        None => {
            machine.run().expect("program runs");
        }
        Some(stride) => while !machine.run_span(stride).expect("program runs") {},
    }
    machine.stats().clone()
}

/// Renders one run of `program` through every sink and returns the
/// three artifacts (Chrome JSON, text log, formatted ring tail) with
/// each traced machine's statistics. One machine per sink — sinks are
/// exclusive — all sharing the same config.
fn render_all_sinks(
    program: &hirata_isa::Program,
    slots: usize,
    stride: Option<u64>,
) -> ((String, String, String), [RunStats; 3]) {
    let config = Config::multithreaded(slots);
    let fu = config.fu.clone();

    let chrome = ChromeSink::new();
    let mut m = Machine::new(config.clone(), program).expect("machine builds");
    m.attach_trace_sink(Box::new(chrome.clone()));
    let chrome_stats = drive(&mut m, stride);
    let chrome_json = chrome.render(slots, &fu);

    let text = TextSink::new();
    let mut m = Machine::new(config.clone(), program).expect("machine builds");
    m.attach_trace_sink(Box::new(text.clone()));
    let text_stats = drive(&mut m, stride);

    let ring = RingSink::new(256);
    let mut m = Machine::new(config, program).expect("machine builds");
    m.attach_trace_sink(Box::new(ring.clone()));
    let ring_stats = drive(&mut m, stride);
    let tail: Vec<String> = ring.events().iter().map(format_event).collect();

    ((chrome_json, text.text(), tail.join("\n")), [chrome_stats, text_stats, ring_stats])
}

#[test]
fn every_sink_is_byte_identical_across_drivers_and_matches_untraced_stats() {
    // Stall-heavy programs, so the untraced run's wheel skips most of
    // the cycles the traced runs step through: a float-divide chain
    // with a counted loop (Data + BranchShadow wakes at one slot), and
    // the fig6 eager list loop (queue-ring, chgpri, kills) at two and
    // four slots, whose breaking thread leaves one slot live.
    let div_loop = "
        lif f1, #5.0
        lif f2, #3.0
        fdiv f1, f1, f2
        fdiv f1, f1, f2
        li r4, #6
    loop:
        sub r4, r4, #1
        bne r4, #0, loop
        sf f1, 300(r0)
        halt
    ";
    let fig6 =
        hirata_workloads::linked_list::eager_program(hirata_workloads::linked_list::ListShape {
            nodes: 20,
            break_at: Some(13),
        });
    let div_prog = hirata_asm::assemble(div_loop).expect("div loop assembles");

    let cases: Vec<(&str, &hirata_isa::Program, usize)> =
        vec![("div-loop", &div_prog, 1), ("fig6", &fig6, 2), ("fig6", &fig6, 4)];
    for (name, program, slots) in cases {
        let mut untraced = Machine::new(Config::multithreaded(slots), program).expect("builds");
        let untraced = drive(&mut untraced, None);
        let (whole, whole_stats) = render_all_sinks(program, slots, None);
        let (strided, strided_stats) = render_all_sinks(program, slots, Some(7));
        assert!(
            whole.1.contains("stall"),
            "{name}/s{slots}: expected stall events in the text log:\n{}",
            whole.1
        );
        assert_eq!(whole.0, strided.0, "{name}/s{slots}: Chrome JSON differs when strided");
        assert_eq!(whole.1, strided.1, "{name}/s{slots}: text log differs when strided");
        assert_eq!(whole.2, strided.2, "{name}/s{slots}: ring tail differs when strided");
        for stats in whole_stats.iter().chain(&strided_stats) {
            assert_eq!(*stats, untraced, "{name}/s{slots}: traced stats differ from untraced");
        }
    }
}

#[test]
fn trace_dir_flag_requires_a_value() {
    let cache = temp_dir("flag-errors");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table5", "--trace-dir"])
        .env("HIRATA_LAB_CACHE", &cache)
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-dir requires a directory"));
    let _ = std::fs::remove_dir_all(&cache);
}
