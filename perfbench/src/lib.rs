//! End-to-end and per-layer benchmark of the Hirata reproduction.
//!
//! Two closed-loop workloads, each a fixed, seeded sequence of ops
//! issued from one thread and timed from call to return:
//!
//! * [`kernel`] — one op is one pass over the twelve cycle-kernel grid
//!   points (ray tracer, Livermore K1, Figure 6 list at s = 1, 2, 4, 8);
//! * [`serve`] — one op is one `/submit` to an in-process daemon.
//!
//! A run makes its set-up and its op sequence in several rounds, one
//! after the other, and each set-up repetition and each op keeps the
//! fastest of its rounds (see [`Timings`]). Reported times are scaled
//! to a reference host speed (see [`host`]).
//!
//! Every op's output is checked. An untraced run reports the
//! end-to-end metrics of [`metrics::END_TO_END`]; a traced run wraps
//! the benchmark's calls into each layer in spans and reports the
//! per-layer metrics of [`metrics::per_layer`]; the traced kernel run
//! also measures the [`repro`] experiments layer. See `README.md`.

pub mod heap;
pub mod host;
pub mod kernel;
pub mod metrics;
pub mod repro;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: heap::PeakAlloc = heap::PeakAlloc;

/// Seed the golden kernel digests were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest rounds in a run (see [`round_count`]). The host runs slower
/// in busy phases of tens of milliseconds to a few seconds; a round
/// lasts one to two seconds, so the rounds of one op fall in different
/// phases and the fastest of them is the op's time outside a busy
/// phase.
pub const MIN_ROUNDS: usize = 2;

/// Timed ops between two timings of the host's reference loop.
pub const REFERENCE_EVERY: usize = 10;

/// Set-up repetitions at the start of each round.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cycle kernel: one op is a pass over the twelve grid points.
    Kernel,
    /// One op is one submission to the daemon.
    Serve,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Kernel, Workload::Serve];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernel => "kernel",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops in every round; at least 100, so that ten samples
    /// lie beyond `op_p90_ms`.
    pub fn ops_per_round(self) -> usize {
        match self {
            Workload::Kernel => kernel::OPS_PER_ROUND,
            Workload::Serve => serve::OPS_PER_ROUND,
        }
    }

    /// Nominal seconds of one round, fixed for every commit so that a
    /// run's op count depends only on `--seconds`.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::Kernel => kernel::ROUND_SECONDS,
            Workload::Serve => serve::ROUND_SECONDS,
        }
    }
}

/// Number of rounds in a run of `seconds` nominal seconds. Runs are
/// never cut by a clock: both sides of a comparison do the same ops.
pub fn round_count(workload: Workload, seconds: u64) -> usize {
    MIN_ROUNDS.max((seconds as f64 / workload.round_seconds()).round() as usize)
}

/// Digests the outputs are checked against.
#[derive(Debug, Clone)]
pub struct Golden {
    /// `(grid point, RunStats digest)` of every kernel point at
    /// [`DEFAULT_SEED`].
    pub kernel: Vec<(&'static str, u64)>,
    /// Digest of the `repro all --quick` stdout bytes.
    pub repro: u64,
}

impl Golden {
    /// The digests recorded when the benchmark was defined.
    pub fn recorded() -> Golden {
        Golden { kernel: kernel::GOLDEN.to_vec(), repro: repro::GOLDEN_OUTPUT }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Times the run makes its set-up and its op sequence.
    pub rounds: usize,
    /// Timed ops per round.
    pub ops: usize,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub traced: bool,
    /// Work directory for stores; created and removed by the caller.
    pub work_dir: PathBuf,
    /// Expected digests.
    pub golden: Golden,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted in the timed loop, over every round.
    pub attempted: u64,
    /// Ops whose output was wrong, or that errored or timed out.
    pub failed: u64,
    /// Metric values by name (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<String, f64>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans: Option<String>,
    /// Factor the run's host times were scaled by (see [`host`]).
    pub host_scale: f64,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (a daemon that does not boot, a store that cannot
/// be opened, a program that does not build).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::Kernel => kernel::run(opts),
        Workload::Serve => serve::run(opts),
    }
}

/// Whether timed op `i` of a traced run records spans: blocks of six
/// ops alternate between traced and untraced, so both halves see every
/// kind of `serve` op and drift on the host hits both alike.
pub fn op_is_traced(i: usize) -> bool {
    (i / 6).is_multiple_of(2)
}

/// Raw measurements of a run's timed loop. Every round times the
/// same set-up repetitions and the same ops; each keeps the fastest of
/// its rounds. The end-to-end metrics scale these host times by
/// [`Timings::host_scale`].
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Fastest time of the host's reference loop in the run, seconds
    /// (0 until first timed).
    pub reference_s: f64,
    /// Nominal time of the same reference loop, seconds.
    pub nominal_s: f64,
    /// Fastest time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Fastest wall time of each timed op, seconds.
    pub op_s: Vec<f64>,
    /// Whether each op recorded spans.
    pub traced: Vec<bool>,
    /// Simulated instructions executed by one round of timed ops.
    pub sim_instructions: u64,
    /// Peak live heap at the end of the timed loop.
    pub peak_heap_bytes: usize,
}

/// Keeps the faster of `secs` and what sample `i` already holds.
fn keep_fastest(samples: &mut Vec<f64>, i: usize, secs: f64) {
    match samples.get_mut(i) {
        Some(best) => *best = best.min(secs),
        None => {
            debug_assert_eq!(i, samples.len(), "samples are recorded in order");
            samples.push(secs);
        }
    }
}

impl Timings {
    /// Times the host's reference loop once and keeps the fastest time.
    pub fn time_reference(&mut self, reference: &mut host::Reference) {
        let secs = reference.time();
        if self.reference_s == 0.0 || secs < self.reference_s {
            self.reference_s = secs;
        }
        self.nominal_s = reference.nominal_secs();
    }

    /// Factor that turns this run's host times into times at the
    /// nominal host speed (1 if the reference loop was never timed).
    pub fn host_scale(&self) -> f64 {
        if self.reference_s > 0.0 {
            self.nominal_s / self.reference_s
        } else {
            1.0
        }
    }

    /// Records one round's time of set-up repetition `rep`.
    pub fn setup(&mut self, rep: usize, secs: f64) {
        keep_fastest(&mut self.setup_s, rep, secs);
    }

    /// Records one round's wall time of op `i`, and whether it recorded
    /// spans (the same in every round).
    pub fn op(&mut self, i: usize, secs: f64, traced: bool) {
        keep_fastest(&mut self.op_s, i, secs);
        if i == self.traced.len() {
            self.traced.push(traced);
        }
    }

    /// The six end-to-end metrics, times at the reference host speed.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        let scale = self.host_scale();
        let total: f64 = self.op_s.iter().sum::<f64>() * scale;
        let mut sorted: Vec<f64> = self.op_s.iter().map(|s| s * scale).collect();
        sorted.sort_by(f64::total_cmp);
        let per_total = |x: f64| if total > 0.0 { x / total } else { 0.0 };
        [
            ("setup_s", median(&self.setup_s) * scale),
            ("ops_per_s", per_total(self.op_s.len() as f64)),
            ("op_p50_ms", quantile(&sorted, 0.5) * 1e3),
            ("op_p90_ms", quantile(&sorted, 0.9) * 1e3),
            ("sim_mips", per_total(self.sim_instructions as f64) / 1e6),
            ("peak_heap_mb", self.peak_heap_bytes as f64 / (1024.0 * 1024.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Tracing overhead: untraced over traced ops per second, as a
    /// percentage above 1 (0 when either half is empty).
    pub fn overhead_pct(&self) -> f64 {
        let rate = |want: bool| {
            let times: Vec<f64> = self
                .op_s
                .iter()
                .zip(&self.traced)
                .filter(|&(_, &t)| t == want)
                .map(|(&s, _)| s)
                .collect();
            let total: f64 = times.iter().sum();
            if total > 0.0 {
                times.len() as f64 / total
            } else {
                0.0
            }
        };
        let (traced, untraced) = (rate(true), rate(false));
        if traced > 0.0 && untraced > 0.0 {
            (untraced / traced - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (0 if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples (0 if empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// 64-bit FNV-1a digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own input generator, so generated
/// inputs never depend on a library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Runs `f`, turning a panic into an error so one broken op counts as
/// failed instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(msg) => format!("panicked: {msg}"),
            None => match payload.downcast_ref::<String>() {
                Some(msg) => format!("panicked: {msg}"),
                None => "panicked".to_string(),
            },
        }),
    }
}
