//! Engine-level tests: cache correctness, schema invalidation, and
//! failure isolation (panic / timeout) in real batches, in both
//! placements where it matters.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hirata_isa::{Inst, Program};
use hirata_lab::{DiskCache, Job, JobError, JobOutput, Lab, MemModelSpec, Placement};
use hirata_sched::Strategy;
use hirata_sim::{Config, MachineError, RunStats, StallBreakdown, TraceEvent, TraceSink};
use hirata_workloads::livermore;

use proptest::prelude::*;

fn temp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hirata-lab-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small batch of genuinely different simulations: Livermore
/// kernel 1 swept over slot counts.
fn kernel_batch() -> Vec<Job> {
    let program = Arc::new(livermore::kernel1_program(24, Strategy::ListA));
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|slots| {
            Job::new(format!("k1-s{slots}"), Config::multithreaded(slots), Arc::clone(&program))
        })
        .collect()
}

#[test]
fn parallel_results_match_serial_and_cache_is_bit_identical() {
    let dir = temp_cache("parity");

    // Serial, cold cache.
    let serial = Lab::new().with_workers(1).with_cache_dir(&dir).run_batch(kernel_batch());
    assert_eq!(serial.report.executed, 4);
    assert_eq!(serial.report.cache_hits, 0);
    assert_eq!(serial.report.failed, 0);
    assert!(serial.report.simulated_cycles > 0);

    // Parallel, fresh cache directory: identical results.
    let parallel = Lab::new()
        .with_workers(8)
        .with_cache_dir(temp_cache("parity-par"))
        .run_batch(kernel_batch());
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }

    // Interleaved on the calling thread: identical results.
    let interleaved = Lab::new().without_cache().run_batch_observed(
        kernel_batch(),
        Placement::Interleaved,
        &mut |_| {},
    );
    for (a, b) in serial.results.iter().zip(&interleaved.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }

    // Warm cache: zero simulations, bit-identical outputs.
    let warm = Lab::new().with_workers(8).with_cache_dir(&dir).run_batch(kernel_batch());
    assert_eq!(warm.report.executed, 0);
    assert_eq!(warm.report.cache_hits, 4);
    assert_eq!(warm.report.simulated_cycles, 0);
    for (a, b) in serial.results.iter().zip(&warm.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
}

#[test]
fn schema_tag_bump_invalidates_old_entries() {
    let dir = temp_cache("schema");
    let jobs = kernel_batch();

    // Write entries under an old schema tag, at the keys the old
    // schema would have used.
    let old = DiskCache::open_with_tag(&dir, "hirata-lab-cache-v0").expect("open");
    for job in &jobs {
        let out = hirata_lab::execute(job).expect("runs");
        old.store(&job.content_hash_with_tag("hirata-lab-cache-v0"), &out).expect("store");
    }

    // A current-schema engine sees only misses: both the key (hash
    // covers the tag) and the header line changed.
    let batch = Lab::new().with_workers(2).with_cache_dir(&dir).run_batch(jobs);
    assert_eq!(batch.report.cache_hits, 0);
    assert_eq!(batch.report.executed, 4);
}

/// A trace sink that panics at the first event, standing in for a
/// simulator bug that strikes mid-stride.
#[derive(Debug)]
struct Crash(String);

impl TraceSink for Crash {
    fn event(&mut self, _: &TraceEvent) {
        panic!("injected crash in {}", self.0);
    }
}

#[test]
fn panicking_job_reports_error_while_siblings_complete() {
    let jobs = kernel_batch();
    let batch = Lab::new().with_workers(2).without_cache().run_batch_with(jobs, |job, program| {
        let mut machine = job.machine(program)?;
        if job.name == "k1-s4" {
            machine.attach_trace_sink(Box::new(Crash(job.name.clone())));
        }
        Ok(machine)
    });
    assert_eq!(batch.report.failed, 1);
    assert_eq!(batch.report.executed, 4);
    for (i, result) in batch.results.iter().enumerate() {
        if i == 2 {
            match result {
                Err(JobError::Panicked(msg)) => assert!(msg.contains("injected crash")),
                other => panic!("expected panic error, got {other:?}"),
            }
        } else {
            assert!(result.is_ok(), "sibling {i} should complete: {result:?}");
        }
    }
}

/// A job that never finishes (`loop: j loop`) within the watchdog's
/// 500M cycles.
fn spinning_job(timeout: Duration) -> Job {
    let program = Program::from_insts(vec![Inst::Jump { target: 0 }]);
    Job::new("spin", Config::multithreaded(2), Arc::new(program)).with_timeout(timeout)
}

#[test]
fn timed_out_job_reports_error_while_siblings_complete() {
    let timeout = Duration::from_millis(50);
    for placement in [Placement::Pool, Placement::Interleaved] {
        let mut jobs = kernel_batch();
        jobs[1] = spinning_job(timeout);
        let start = Instant::now();
        let batch = Lab::new().with_workers(2).without_cache().run_batch_observed(
            jobs,
            placement,
            &mut |_| {},
        );
        // The stride deadline fires long before the watchdog would.
        assert!(start.elapsed() < Duration::from_secs(20), "{placement:?}: {:?}", start.elapsed());
        assert_eq!(batch.report.failed, 1, "{placement:?}");
        assert_eq!(batch.results.len(), 4);
        assert_eq!(batch.results[1], Err(JobError::Timeout(timeout)), "{placement:?}");
        for (i, result) in batch.results.iter().enumerate() {
            if i != 1 {
                assert!(result.is_ok(), "{placement:?}: sibling {i} should complete: {result:?}");
            }
        }
    }
}

#[test]
fn simulator_errors_surface_as_job_errors() {
    // An empty program is a machine check, not a panic, and must not
    // poison the batch.
    let mut jobs = kernel_batch();
    jobs.push(Job::new("empty", Config::base_risc(), Arc::new(hirata_isa::Program::default())));
    let batch = Lab::new().with_workers(2).without_cache().run_batch(jobs);
    assert_eq!(batch.report.failed, 1);
    assert_eq!(batch.results[4], Err(JobError::Sim(MachineError::EmptyProgram)),);
    assert!(batch.results[..4].iter().all(|r| r.is_ok()));
}

#[test]
fn finite_cache_spec_produces_mem_stats() {
    let program = Arc::new(livermore::kernel1_program(24, Strategy::ListA));
    let job =
        Job::new("finite", Config::multithreaded(2), program).with_mem(MemModelSpec::Finite {
            lines: 8,
            line_words: 4,
            hit_latency: 2,
            miss_latency: 20,
        });
    let batch = Lab::new().with_workers(1).without_cache().run_batch(vec![job]);
    let out = batch.results[0].as_ref().expect("runs");
    assert!(out.mem.accesses > 0);
    assert!(out.mem.misses > 0, "a tiny cache must miss: {:?}", out.mem);
}

/// Builds a `JobOutput` from flat generated values.
fn output_from(
    scalars: (u64, u64, u64, u64, u64),
    per_slot: Vec<u64>,
    arrays: (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>),
    windows: Vec<Vec<u64>>,
    mem: (u64, u64, u64, u64),
) -> JobOutput {
    let mut stats = RunStats {
        cycles: scalars.0,
        instructions: scalars.1,
        context_switches: scalars.2,
        threads_killed: scalars.3,
        rotations: scalars.4,
        per_slot_issued: per_slot,
        ..RunStats::default()
    };
    stats.fu_invocations = arrays.0.try_into().unwrap();
    stats.fu_busy = arrays.1.try_into().unwrap();
    stats.fu_instances = arrays.2.try_into().unwrap();
    stats.stalls = StallBreakdown::from_counts(arrays.3.try_into().unwrap());
    stats.stall_windows = windows.into_iter().map(|w| w.try_into().unwrap()).collect();
    let mem = hirata_mem::MemStats { accesses: mem.0, hits: mem.1, misses: mem.2, absences: mem.3 };
    JobOutput { stats, mem }
}

proptest! {
    /// A cache hit is bit-identical to the stored computation for any
    /// representable statistics, including extreme counter values.
    #[test]
    fn cache_roundtrip_is_bit_identical(
        scalars in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        per_slot in proptest::collection::vec(0u64..u64::MAX, 0..9),
        arrays in (
            proptest::collection::vec(0u64..u64::MAX, 7..8),
            proptest::collection::vec(0u64..u64::MAX, 7..8),
            proptest::collection::vec(0u64..u64::MAX, 7..8),
            proptest::collection::vec(0u64..u64::MAX, 8..9),
        ),
        windows in proptest::collection::vec(proptest::collection::vec(0u64..u64::MAX, 8..9), 0..4),
        mem in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        key_seed in 0u64..u64::MAX,
    ) {
        let out = output_from(scalars, per_slot, arrays, windows, mem);
        let cache = DiskCache::open(temp_cache("prop")).expect("open");
        let key = format!("{key_seed:032x}");
        cache.store(&key, &out).expect("store");
        prop_assert_eq!(cache.load(&key), Some(out));
    }
}
