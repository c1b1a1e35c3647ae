//! The engine's paper-facing contract, checked end to end through the
//! `repro` binary: stdout is byte-identical whatever the worker count
//! and whether results are simulated or cached, a warm-cache run
//! performs zero simulations, and a reader that closes stdout early
//! ends the run quietly.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-parity-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro(cache: &PathBuf, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("HIRATA_LAB_CACHE", cache)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro {args:?} failed: {:?}", out);
    out
}

#[test]
fn all_is_byte_identical_across_worker_counts_and_cache_states() {
    let cache_serial = temp_cache("serial");
    let cache_parallel = temp_cache("parallel");

    let serial = repro(&cache_serial, &["--quick", "all", "--jobs", "1"]);
    let parallel = repro(&cache_parallel, &["--quick", "all", "--jobs", "8"]);
    assert!(!serial.stdout.is_empty(), "the full run must print tables");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must be byte-identical at --jobs 1 and --jobs 8"
    );

    // Warm cache: same bytes again, and every batch report on stderr
    // must show zero simulations.
    let warm = repro(&cache_parallel, &["--quick", "all", "--jobs", "8"]);
    assert_eq!(
        parallel.stdout, warm.stdout,
        "stdout must be byte-identical between cold and warm cache"
    );
    let stderr = String::from_utf8_lossy(&warm.stderr);
    let reports: Vec<&str> =
        stderr.lines().filter(|l| l.starts_with("[lab] ") && l.contains(" jobs: ")).collect();
    assert!(!reports.is_empty(), "warm run must print batch reports: {stderr}");
    for line in &reports {
        assert!(line.contains(" 0 simulated, "), "warm-cache batch simulated jobs: {line}");
    }

    let _ = std::fs::remove_dir_all(&cache_serial);
    let _ = std::fs::remove_dir_all(&cache_parallel);
}

#[test]
fn no_cache_flag_forces_simulation_every_run() {
    let cache = temp_cache("nocache");
    let first = repro(&cache, &["--quick", "table4", "--no-cache"]);
    let second = repro(&cache, &["--quick", "table4", "--no-cache"]);
    assert_eq!(first.stdout, second.stdout);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains(" 0 cached, "), "--no-cache run must not hit the cache: {stderr}");
    assert!(!cache.exists(), "--no-cache opened the default store");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn unknown_experiment_and_bad_jobs_value_exit_nonzero() {
    let cache = temp_cache("errors");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["no-such-table"])
        .env("HIRATA_LAB_CACHE", &cache)
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "--jobs", "zero"])
        .env("HIRATA_LAB_CACHE", &cache)
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --jobs value"));
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_reader_that_closes_early_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table2", "--no-cache"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    // Closed before the first table is simulated, so its write meets
    // the closed end.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("repro ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
