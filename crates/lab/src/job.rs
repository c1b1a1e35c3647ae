//! Jobs: one simulation point of an experiment grid, with a stable
//! content hash.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use hirata_isa::{encode_program, Program};
use hirata_mem::{DataMemModel, DsmMemory, FiniteCache, IdealCache, MemStats};
use hirata_sim::{ChromeSink, Config, Machine, MachineError, RunStats};

use crate::cache::CACHE_SCHEMA_TAG;

/// Default per-job wall-clock timeout.
///
/// Generous: individual experiment points complete in milliseconds to
/// a few seconds; the timeout exists to stop a hung batch, not to race
/// healthy jobs.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Which data-memory timing model a job simulates under.
///
/// This is a *description* rather than a boxed model so that jobs stay
/// cloneable, hashable, and serializable; [`MemModelSpec::build`]
/// instantiates the live model at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum MemModelSpec {
    /// Ideal cache with the paper's 2-cycle access (§2.1, Table 1).
    Ideal,
    /// Ideal cache with an explicit access latency.
    IdealLatency {
        /// Access latency in cycles.
        latency: u32,
    },
    /// Finite direct-mapped cache.
    Finite {
        /// Number of cache lines.
        lines: usize,
        /// Words per line.
        line_words: u64,
        /// Hit latency in cycles.
        hit_latency: u32,
        /// Miss (memory) latency in cycles.
        miss_latency: u32,
    },
    /// Distributed shared memory: addresses at or above `remote_base`
    /// raise data-absence traps with the given round-trip latency.
    Dsm {
        /// First remote word address.
        remote_base: u64,
        /// Local access latency in cycles.
        local_latency: u32,
        /// Remote round-trip latency in cycles.
        remote_latency: u64,
    },
}

impl MemModelSpec {
    /// Instantiates the live memory-timing model.
    pub fn build(&self) -> Box<dyn DataMemModel> {
        match *self {
            MemModelSpec::Ideal => Box::new(IdealCache::default()),
            MemModelSpec::IdealLatency { latency } => Box::new(IdealCache::new(latency)),
            MemModelSpec::Finite { lines, line_words, hit_latency, miss_latency } => {
                Box::new(FiniteCache::new(lines, line_words, hit_latency, miss_latency))
            }
            MemModelSpec::Dsm { remote_base, local_latency, remote_latency } => {
                Box::new(DsmMemory::new(remote_base, local_latency, remote_latency))
            }
        }
    }
}

/// One simulation to run: a configuration, a program, and a memory
/// model, plus engine-side controls (display name, timeout).
///
/// The [content hash](Job::content_hash) covers exactly the fields
/// that determine the simulation outcome: configuration, program
/// (instructions, data segments, entry point), memory-model spec, and
/// extra resident threads. `name` and `timeout` are engine-side only
/// and deliberately excluded.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name for progress and error reporting.
    pub name: String,
    /// Simulator configuration.
    pub config: Config,
    /// The program to run (shared; batches sweep many configs over
    /// one program).
    pub program: Arc<Program>,
    /// Data-memory timing model.
    pub mem: MemModelSpec,
    /// Instruction addresses of extra threads resident at start
    /// (beyond the initial thread at the program entry), as used by
    /// the concurrent-multithreading experiments.
    pub extra_threads: Vec<u32>,
    /// Wall-clock timeout for this job.
    pub timeout: Duration,
    /// When set, [`execute`] records a Chrome `trace_event` JSON
    /// artifact of the run at `<dir>/<content_hash>.json`. Engine-side
    /// only: like `name` and `timeout`, excluded from the content hash
    /// (tracing never changes the simulation outcome).
    pub trace_dir: Option<PathBuf>,
}

impl Job {
    /// A job with the default memory model, no extra threads, and the
    /// default timeout.
    pub fn new(name: impl Into<String>, config: Config, program: Arc<Program>) -> Self {
        Job {
            name: name.into(),
            config,
            program,
            mem: MemModelSpec::Ideal,
            extra_threads: Vec::new(),
            timeout: DEFAULT_TIMEOUT,
            trace_dir: None,
        }
    }

    /// Replaces the memory-model spec.
    pub fn with_mem(mut self, mem: MemModelSpec) -> Self {
        self.mem = mem;
        self
    }

    /// Adds extra resident threads starting at the given addresses.
    pub fn with_extra_threads(mut self, pcs: Vec<u32>) -> Self {
        self.extra_threads = pcs;
        self
    }

    /// Replaces the wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Records a Chrome trace artifact of the run under `dir`, keyed
    /// by the job's content hash.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Path of the trace artifact this job would write, if tracing.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace_dir.as_ref().map(|dir| dir.join(format!("{}.json", self.content_hash())))
    }

    /// Stable 128-bit content hash of the job under the current cache
    /// schema ([`CACHE_SCHEMA_TAG`]), as 32 hex digits.
    pub fn content_hash(&self) -> String {
        self.content_hash_with_tag(CACHE_SCHEMA_TAG)
    }

    /// Content hash under an explicit schema tag (exposed so tests can
    /// demonstrate that a tag bump changes every key).
    pub fn content_hash_with_tag(&self, tag: &str) -> String {
        let bytes = self.fingerprint(tag);
        // Two independent FNV-1a passes give a 128-bit key; the second
        // prepends a domain-separation byte so the halves differ.
        let lo = fnv1a(&bytes, FNV_OFFSET);
        let hi = fnv1a(&bytes, fnv1a(&[0x9d], FNV_OFFSET));
        format!("{hi:016x}{lo:016x}")
    }

    /// Serializes the outcome-determining fields to a byte stream.
    fn fingerprint(&self, tag: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        let mut field = |label: &str, body: &[u8]| {
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
            out.extend_from_slice(body);
        };
        field("tag", tag.as_bytes());
        // Config derives Debug over plain data; its rendering is a
        // complete, stable description of every field.
        field("config", format!("{:?}", self.config).as_bytes());
        match encode_program(&self.program.insts) {
            Ok(words) => field("insts", &words_to_bytes(&words)),
            // Unencodable instructions (none today) fall back to the
            // textual listing, which is equally outcome-determining.
            Err(_) => field("insts-text", format!("{:?}", self.program.insts).as_bytes()),
        }
        for seg in &self.program.data {
            field("seg-base", &seg.base.to_le_bytes());
            field("seg-words", &words_to_bytes(&seg.words));
        }
        field("entry", &self.program.entry.to_le_bytes());
        field("mem", format!("{:?}", self.mem).as_bytes());
        let pcs: Vec<u64> = self.extra_threads.iter().map(|&pc| pc as u64).collect();
        field("extra-threads", &words_to_bytes(&pcs));
        out
    }
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(words.len() * 8);
    for w in words {
        v.extend_from_slice(&w.to_le_bytes());
    }
    v
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The outcome of one successfully simulated job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobOutput {
    /// Run statistics from the machine.
    pub stats: RunStats,
    /// Data-memory access statistics.
    pub mem: MemStats,
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The simulator reported a machine check (bad configuration,
    /// malformed program, memory fault, watchdog, ...).
    Sim(MachineError),
    /// The job panicked; the worker caught the panic and the rest of
    /// the batch completed normally.
    Panicked(String),
    /// The job exceeded its wall-clock timeout.
    Timeout(Duration),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "simulation failed: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Timeout(t) => write!(f, "job timed out after {:.1}s", t.as_secs_f64()),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for JobError {
    fn from(e: MachineError) -> Self {
        JobError::Sim(e)
    }
}

/// The result of one job in a batch.
pub type JobResult = Result<JobOutput, JobError>;

/// Runs one job to completion on the calling thread (no cache, no
/// timeout — the engine wraps this with both).
pub fn execute(job: &Job) -> Result<JobOutput, MachineError> {
    let mut m = Machine::with_mem_model(job.config.clone(), &job.program, job.mem.build())?;
    for &pc in &job.extra_threads {
        m.add_thread(pc)?;
    }
    let sink = job.trace_dir.as_ref().map(|_| {
        let sink = ChromeSink::new();
        m.attach_trace_sink(Box::new(sink.clone()));
        sink
    });
    let stats = m.run()?.clone();
    let mem = m.mem_stats();
    if let (Some(dir), Some(sink)) = (&job.trace_dir, sink) {
        let json = sink.render(job.config.thread_slots, &job.config.fu);
        write_trace(dir, &job.content_hash(), &json);
    }
    Ok(JobOutput { stats, mem })
}

/// Writes one trace artifact atomically (temp file + rename), so a
/// concurrent reader never sees a torn trace. Failure to write is a
/// warning, not a job failure: the simulation result stands.
fn write_trace(dir: &Path, key: &str, json: &str) {
    let path = dir.join(format!("{key}.json"));
    let tmp = dir.join(format!(".tmp-{key}-{}", std::process::id()));
    let ok = std::fs::create_dir_all(dir).is_ok()
        && std::fs::write(&tmp, json).is_ok()
        && std::fs::rename(&tmp, &path).is_ok();
    if !ok {
        eprintln!("[lab] could not write trace artifact {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Arc<Program> {
        Arc::new(Program::from_insts(vec![hirata_isa::Inst::Halt]))
    }

    fn job() -> Job {
        Job::new("j", Config::base_risc(), program())
    }

    #[test]
    fn hash_is_stable_across_clones() {
        let a = job();
        let b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash().len(), 32);
    }

    #[test]
    fn name_and_timeout_do_not_affect_hash() {
        let a = job();
        let mut b = a.clone();
        b.name = "other".into();
        b.timeout = Duration::from_secs(1);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn config_program_and_mem_affect_hash() {
        let a = job();
        let b = Job { config: Config::multithreaded(2), ..a.clone() };
        assert_ne!(a.content_hash(), b.content_hash());

        let c = a.clone().with_mem(MemModelSpec::IdealLatency { latency: 3 });
        assert_ne!(a.content_hash(), c.content_hash());

        let d = a.clone().with_extra_threads(vec![0]);
        assert_ne!(a.content_hash(), d.content_hash());
    }

    #[test]
    fn schema_tag_changes_every_key() {
        let a = job();
        assert_ne!(a.content_hash_with_tag("v1"), a.content_hash_with_tag("v2"));
    }

    #[test]
    fn execute_runs_a_trivial_program() {
        let out = execute(&job()).expect("runs");
        assert!(out.stats.cycles > 0);
    }
}
