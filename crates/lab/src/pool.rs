//! The batch engine: long-lived workers stepping machines in strides.
//!
//! A [`Lab`] owns W worker threads that take work from one shared
//! queue. They start with the first batch that simulates and stop when
//! the `Lab` is dropped.
//!
//! A batch resolves cache hits on the calling thread first. Each
//! remaining job becomes a lane: the job plus its program, lowered
//! once per batch. A set of lanes is built into machines and stepped
//! round-robin through a [`MachineBatch`], [`DEFAULT_STRIDE`] cycles
//! per lane per round. Between rounds the stepping thread checks each
//! lane's deadline and drops a lane past it, so a timed-out job stops
//! using the CPU within one stride. A lane that panics fails its job
//! alone.
//!
//! A [`Placement`] says where the lanes step: spread over the workers
//! one job each (`Pool`), or all in one set on the calling thread
//! (`Interleaved`). Either way the calling thread stores each result
//! in the cache and reports it as it arrives.

use std::io::{IsTerminal, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use hirata_isa::Program;
use hirata_sim::batch::panic_text;
use hirata_sim::{
    ChromeSink, LaneError, Machine, MachineBatch, MachineError, PredecodedProgram, DEFAULT_STRIDE,
};

use crate::cache::{default_cache_dir, DiskCache};
use crate::job::{finish, start, Build, Job, JobError, JobResult, Lowered};

/// Where a batch's jobs step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each job on its own, spread over the engine's workers.
    Pool,
    /// Every job as one lane of a single [`MachineBatch`], stepped
    /// round-robin on the calling thread.
    Interleaved,
}

/// The experiment-execution engine: long-lived workers plus an
/// optional result cache.
pub struct Lab {
    workers: usize,
    /// The result store; unset until a builder picks one or the first
    /// batch opens the default.
    cache: OnceLock<Option<DiskCache>>,
    progress: bool,
    report: bool,
    trace_dir: Option<std::path::PathBuf>,
    pool: OnceLock<Workers>,
}

impl Lab {
    /// An engine with one worker per available CPU and the default
    /// on-disk cache (`$HIRATA_LAB_CACHE` or `target/lab-cache`),
    /// opened by the first batch unless another store (or none) is
    /// chosen before.
    ///
    /// Cache-directory creation failure (read-only filesystem, ...)
    /// degrades to running without a cache rather than failing the
    /// batch.
    pub fn new() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Lab {
            workers,
            cache: OnceLock::new(),
            progress: std::io::stderr().is_terminal(),
            report: true,
            trace_dir: None,
            pool: OnceLock::new(),
        }
    }

    /// Overrides the worker count (the `--jobs N` flag). Clamped to
    /// at least one.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Disables the result cache (every job simulates).
    pub fn without_cache(mut self) -> Self {
        self.cache = OnceLock::from(None);
        self
    }

    /// Uses a cache in the given directory instead of the default.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = OnceLock::from(DiskCache::open(dir).ok());
        self
    }

    /// Uses an existing cache handle. This is how the `hirata serve`
    /// daemon shares one artifact store between the engine and its
    /// result endpoints ([`DiskCache`] handles are `Arc`-shared).
    pub fn with_cache(mut self, cache: DiskCache) -> Self {
        self.cache = OnceLock::from(Some(cache));
        self
    }

    /// The engine's cache handle, if caching is enabled. Opens the
    /// default store if no store was chosen.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.get_or_init(|| DiskCache::open(default_cache_dir()).ok()).as_ref()
    }

    /// Emits a Chrome trace artifact per executed job under `dir`,
    /// keyed by content hash. With tracing on, a cached result only
    /// counts as a hit when its trace artifact already exists —
    /// otherwise the job re-simulates to regenerate the trace, so a
    /// batch always leaves a complete artifact set behind.
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        self.trace_dir = Some(dir);
        self
    }

    /// Silences the live progress line and the end-of-batch report
    /// (for tests and benchmarks that run many batches).
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self.report = false;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of jobs on the workers and returns per-job results
    /// in submission order plus a batch report.
    ///
    /// A job that fails — simulator error, panic, or timeout — yields
    /// `Err(JobError)` in its slot while the rest of the batch
    /// completes.
    pub fn run_batch(&self, jobs: Vec<Job>) -> Batch {
        self.run_batch_inner(jobs, Placement::Pool, Arc::new(Job::machine), None)
    }

    /// Runs a batch with `build` in place of [`Job::machine`] to build
    /// each job's machine over its lowered program (the seam tests use
    /// to inject a panic).
    pub fn run_batch_with<F>(&self, jobs: Vec<Job>, build: F) -> Batch
    where
        F: Fn(&Job, Arc<PredecodedProgram>) -> Result<Machine, MachineError>
            + Send
            + Sync
            + 'static,
    {
        self.run_batch_inner(jobs, Placement::Pool, Arc::new(build), None)
    }

    /// Runs a batch with its jobs stepped where `placement` says,
    /// invoking `observer` on the calling thread as each job finishes
    /// — cache hits first (in submission order), then
    /// [`BatchEvent::Simulating`] if any job missed, then executed jobs
    /// in completion order. This is the live progress feed:
    /// `hirata lab` prints `k/n` lines from it and the `hirata serve`
    /// daemon streams it to clients as chunked events.
    pub fn run_batch_observed(
        &self,
        jobs: Vec<Job>,
        placement: Placement,
        observer: &mut dyn FnMut(BatchEvent),
    ) -> Batch {
        self.run_batch_inner(jobs, placement, Arc::new(Job::machine), Some(observer))
    }

    fn run_batch_inner(
        &self,
        jobs: Vec<Job>,
        placement: Placement,
        build: Arc<Build>,
        observer: Option<&mut dyn FnMut(BatchEvent)>,
    ) -> Batch {
        let start = Instant::now();
        let total = jobs.len();
        let cache = self.cache();
        let mut report = BatchReport { total, ..BatchReport::default() };
        let mut progress =
            Progress { observer, results: (0..total).map(|_| None).collect(), finished: 0 };

        // Resolve cache hits up front; only misses become lanes. Each
        // distinct program is lowered once for the batch.
        let mut jobs_and_keys = Vec::with_capacity(total);
        let mut lanes = Vec::new();
        let mut lowered: Vec<(Arc<Program>, Lowered)> = Vec::new();
        for (index, mut job) in jobs.into_iter().enumerate() {
            if let Some(dir) = &self.trace_dir {
                job.trace_dir = Some(dir.clone());
            }
            let key = job.content_hash();
            // With tracing on, a hit additionally requires the trace
            // artifact on disk; a cached result without one
            // re-simulates so the artifact set comes out complete.
            let trace_present =
                job.trace_dir.as_ref().is_none_or(|d| d.join(format!("{key}.json")).exists());
            let job = Arc::new(job);
            match cache.and_then(|c| c.load(&key)).filter(|_| trace_present) {
                Some(out) => {
                    report.cache_hits += 1;
                    progress.done(index, &job, &key, true, Ok(out));
                }
                None => {
                    let at = match lowered.iter().position(|(p, _)| Arc::ptr_eq(p, &job.program)) {
                        Some(at) => at,
                        None => {
                            let program = PredecodedProgram::shared(&job.program);
                            lowered.push((Arc::clone(&job.program), program));
                            lowered.len() - 1
                        }
                    };
                    let program = lowered[at].1.clone();
                    lanes.push(Lane { index, job: Arc::clone(&job), program });
                }
            }
            jobs_and_keys.push((job, key));
        }

        let pending = lanes.len();
        if pending > 0 {
            progress.tell(BatchEvent::Simulating);
        }
        let mut simulated = |index: usize, result: JobResult| {
            let (job, key) = &jobs_and_keys[index];
            match &result {
                Ok(out) => {
                    report.simulated_cycles += out.stats.cycles;
                    if let Some(cache) = cache {
                        // Only successful runs are cached; a store
                        // failure just means a future miss.
                        let _ = cache.store(key, out);
                    }
                }
                Err(err) => {
                    report.failed += 1;
                    eprintln!("[lab] job `{}` failed: {err}", job.name);
                }
            }
            report.executed += 1;
            self.print_progress(&report, pending, start);
            progress.done(index, job, key, false, result);
        };
        match placement {
            _ if lanes.is_empty() => {}
            // Stepping here rather than handing the set to a worker
            // measured faster for `serve`'s cold interleaved
            // submissions (EXPERIMENTS.md, "Serving — one job engine").
            Placement::Interleaved => step_lanes(lanes, &*build, &mut simulated),
            Placement::Pool => {
                let workers = self.pool.get_or_init(|| Workers::start(self.workers));
                let (tx, rx) = mpsc::channel();
                for lane in lanes {
                    let (tx, build) = (tx.clone(), Arc::clone(&build));
                    workers.push(Box::new(move || {
                        step_lanes(vec![lane], &*build, &mut |index, result| {
                            let _ = tx.send((index, result));
                        })
                    }));
                }
                drop(tx);
                for (index, result) in rx {
                    simulated(index, result);
                }
            }
        }

        report.wall = start.elapsed();
        self.print_report(&report);
        // A job is missing only if its worker panicked outside the
        // lane's own panic capture (an engine bug).
        let results = progress
            .results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(JobError::Panicked("the job's worker died".into()))))
            .collect();
        Batch { results, report }
    }

    fn print_progress(&self, report: &BatchReport, count: usize, start: Instant) {
        if !self.progress {
            return;
        }
        let finished = report.executed;
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[lab] {finished}/{count} simulated ({} cached, {} failed, {:.1}s)\x1b[K",
            report.cache_hits,
            report.failed,
            start.elapsed().as_secs_f64(),
        );
        if finished == count {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }

    fn print_report(&self, report: &BatchReport) {
        if self.report {
            eprintln!("[lab] {report}");
        }
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

/// A batch's results as they arrive, each told to its observer.
struct Progress<'o> {
    observer: Option<&'o mut dyn FnMut(BatchEvent)>,
    results: Vec<Option<JobResult>>,
    finished: usize,
}

impl Progress<'_> {
    fn tell(&mut self, event: BatchEvent) {
        if let Some(observer) = self.observer.as_deref_mut() {
            observer(event);
        }
    }

    fn done(&mut self, index: usize, job: &Job, key: &str, cached: bool, result: JobResult) {
        self.finished += 1;
        let total = self.results.len();
        self.tell(BatchEvent::Job(&JobSummary {
            index,
            name: &job.name,
            key,
            cached,
            result: &result,
            finished: self.finished,
            total,
        }));
        self.results[index] = Some(result);
    }
}

/// Work for a worker thread.
type Work = Box<dyn FnOnce() + Send>;

/// Worker threads taking [`Work`] from one shared queue until the
/// queue closes, which dropping `Workers` does before joining them.
struct Workers {
    queue: Option<mpsc::Sender<Work>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Workers {
    fn start(count: usize) -> Workers {
        let (tx, rx) = mpsc::channel::<Work>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..count)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || loop {
                    // Holding the lock only while receiving leaves the
                    // other workers free to take the next item.
                    let work = rx.lock().expect("queue lock").recv();
                    match work {
                        // A panic that escapes a lane's own capture
                        // loses that work, not the worker.
                        Ok(work) => drop(catch_unwind(AssertUnwindSafe(work))),
                        Err(_) => break,
                    }
                })
            })
            .collect();
        Workers { queue: Some(tx), threads }
    }

    fn push(&self, work: Work) {
        // The workers outlive the queue's sender, so a send succeeds.
        let _ = self.queue.as_ref().expect("queue open").send(work);
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.queue = None;
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A job on its way to a machine: its index in the batch, the job, and
/// its program as lowered for the batch.
struct Lane {
    index: usize,
    job: Arc<Job>,
    program: Lowered,
}

/// A lane whose machine is in the [`MachineBatch`] under `id`.
struct Stepping {
    id: usize,
    index: usize,
    job: Arc<Job>,
    sink: Option<ChromeSink>,
    deadline: Option<Instant>,
}

/// Builds `lanes` into machines and steps them round-robin on the
/// calling thread, handing each job's result to `done` as the job
/// finishes, fails, or passes its deadline. Deadlines count from the
/// call and are checked between rounds, so a timed-out lane stops
/// within one stride. A timeout too large to add to the clock means no
/// deadline.
fn step_lanes(lanes: Vec<Lane>, build: &Build, done: &mut dyn FnMut(usize, JobResult)) {
    let began = Instant::now();
    let mut batch = MachineBatch::new();
    let mut stepping = Vec::with_capacity(lanes.len());
    for Lane { index, job, program } in lanes {
        match catch_unwind(AssertUnwindSafe(|| start(&job, program, build))) {
            Ok(Ok((machine, sink))) => stepping.push(Stepping {
                id: batch.insert(machine),
                index,
                deadline: began.checked_add(job.timeout),
                job,
                sink,
            }),
            Ok(Err(e)) => done(index, Err(JobError::Sim(e))),
            Err(payload) => done(index, Err(JobError::Panicked(panic_text(&*payload)))),
        }
    }
    while !stepping.is_empty() {
        batch.step_round(DEFAULT_STRIDE);
        for (id, outcome) in batch.drain_finished() {
            let at = stepping.iter().position(|s| s.id == id).expect("finished lane was inserted");
            let lane = stepping.remove(at);
            let result = match outcome {
                Ok(machine) => Ok(finish(&lane.job, &machine, lane.sink)),
                Err(LaneError::Machine(e)) => Err(JobError::Sim(e)),
                Err(LaneError::Panicked(msg)) => Err(JobError::Panicked(msg)),
            };
            done(lane.index, result);
        }
        let now = Instant::now();
        stepping.retain(|lane| {
            let late = lane.deadline.is_some_and(|d| now > d);
            if late {
                batch.remove(lane.id);
                done(lane.index, Err(JobError::Timeout(lane.job.timeout)));
            }
            !late
        });
    }
}

/// What the [`Lab::run_batch_observed`] progress hook is told.
#[derive(Debug)]
pub enum BatchEvent<'a> {
    /// A job finished, from the cache or by simulating.
    Job(&'a JobSummary<'a>),
    /// Every cache hit is reported and the batch is about to step or
    /// wait on its first lane, so the next event may take a while.
    /// Sent once, and only when some job missed the cache.
    Simulating,
}

/// A finished job as seen by the [`Lab::run_batch_observed`] progress hook:
/// identity, provenance, outcome, and batch position.
#[derive(Debug)]
pub struct JobSummary<'a> {
    /// Submission index of the job within the batch.
    pub index: usize,
    /// The job's display name.
    pub name: &'a str,
    /// The job's content hash (its cache / artifact key).
    pub key: &'a str,
    /// True when the result came from the cache instead of simulating.
    pub cached: bool,
    /// The job's outcome.
    pub result: &'a JobResult,
    /// Jobs finished so far, including this one.
    pub finished: usize,
    /// Total jobs in the batch.
    pub total: usize,
}

/// A completed batch: per-job results in submission order plus the
/// summary report.
#[derive(Debug)]
pub struct Batch {
    /// One result per submitted job, in submission order.
    pub results: Vec<JobResult>,
    /// Batch summary.
    pub report: BatchReport,
}

/// End-of-batch summary counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Jobs submitted.
    pub total: usize,
    /// Jobs actually simulated (cache misses).
    pub executed: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs that failed (simulator error, panic, or timeout).
    pub failed: usize,
    /// Machine cycles simulated by the executed jobs.
    pub simulated_cycles: u64,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs: {} simulated, {} cached, {} failed; {} cycles in {:.2}s",
            self.total,
            self.executed,
            self.cache_hits,
            self.failed,
            self.simulated_cycles,
            self.wall.as_secs_f64(),
        )
    }
}
