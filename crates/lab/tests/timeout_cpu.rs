//! A timed-out job stops using the CPU once its batch returns.
//!
//! This file holds a single test, so the process runs nothing else
//! while the test reads its own CPU time.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::thread::sleep;
use std::time::Duration;

use hirata_isa::{Inst, Program};
use hirata_lab::{Job, JobError, Lab};
use hirata_sim::Config;

/// User plus system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 10 ms, the
/// USER_HZ of every mainstream Linux).
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces; count fields after
    // its closing parenthesis, which is field 3's start.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

#[test]
fn timed_out_jobs_stop_using_the_cpu() {
    let timeout = Duration::from_millis(100);
    // `loop: j loop` runs until the watchdog's 500M cycles, minutes of
    // CPU, unless the engine stops it.
    let program = Arc::new(Program::from_insts(vec![Inst::Jump { target: 0 }]));
    let jobs = (1..=2)
        .map(|slots| {
            Job::new(format!("spin-s{slots}"), Config::multithreaded(slots), Arc::clone(&program))
                .with_timeout(timeout)
        })
        .collect();
    let lab = Lab::new().with_workers(2).without_cache().quiet();
    let batch = lab.run_batch(jobs);
    assert!(batch.results.iter().all(|r| *r == Err(JobError::Timeout(timeout))), "{batch:?}");

    // Within about 50 ms of the batch's return (a stride is well under
    // that), the process is idle: its CPU time stops growing while the
    // engine, still alive, waits for work.
    sleep(Duration::from_millis(50));
    let before = cpu_time();
    sleep(Duration::from_millis(500));
    let grown = cpu_time() - before;
    assert!(grown <= Duration::from_millis(30), "CPU time grew {grown:?} in 500 ms of idling");
    drop(lab);
}
