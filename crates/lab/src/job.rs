//! Jobs: one simulation point of an experiment grid, with a stable
//! content hash.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use hirata_isa::{encode_program, Program};
use hirata_mem::{DataMemModel, DsmMemory, FiniteCache, IdealCache, MemStats};
use hirata_sim::{ChromeSink, Config, Machine, MachineError, PredecodedProgram, RunStats};

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
    /// When set, running the job (in a batch or through [`execute`])
    /// records a Chrome `trace_event` JSON artifact of the run at
    /// `<dir>/<content_hash>.json`. Engine-side
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

    /// Builds this job's machine over `program`, the job's program as
    /// lowered by [`PredecodedProgram::shared`], with no trace recorder.
    ///
    /// # Errors
    ///
    /// As for [`Machine::with_mem_model_predecoded`] and
    /// [`Machine::add_thread`].
    pub fn machine(&self, program: Arc<PredecodedProgram>) -> Result<Machine, MachineError> {
        let mut m =
            Machine::with_mem_model_predecoded(self.config.clone(), program, self.mem.build())?;
        for &pc in &self.extra_threads {
            m.add_thread(pc)?;
        }
        Ok(m)
    }

    /// Stable 128-bit content hash of the job under the current cache
    /// schema ([`CACHE_SCHEMA_TAG`]), as 32 hex digits.
    pub fn content_hash(&self) -> String {
        self.content_hash_with_tag(CACHE_SCHEMA_TAG)
    }

    /// Content hash under an explicit schema tag (exposed so tests can
    /// demonstrate that a tag bump changes every key).
    ///
    /// The outcome-determining fields are streamed, each as label,
    /// length and body, straight into a [`KeyHasher`]; no byte image
    /// of the job is built.
    pub fn content_hash_with_tag(&self, tag: &str) -> String {
        let mut h = KeyHasher::new();
        h.field("tag", tag.as_bytes());
        // Config derives Debug over plain data; its rendering is a
        // complete, stable description of every field.
        h.field("config", format!("{:?}", self.config).as_bytes());
        match encode_program(&self.program.insts) {
            Ok(words) => h.words_field("insts", words.iter().copied()),
            // Unencodable instructions (none today) fall back to the
            // textual listing, which is equally outcome-determining.
            Err(_) => h.field("insts-text", format!("{:?}", self.program.insts).as_bytes()),
        }
        for seg in &self.program.data {
            h.field("seg-base", &seg.base.to_le_bytes());
            h.words_field("seg-words", seg.words.iter().copied());
        }
        h.field("entry", &self.program.entry.to_le_bytes());
        h.field("mem", format!("{:?}", self.mem).as_bytes());
        h.words_field("extra-threads", self.extra_threads.iter().map(|&pc| pc as u64));
        let (hi, lo) = h.finish();
        format!("{hi:016x}{lo:016x}")
    }
}

/// A two-lane 128-bit hash of a byte stream, taking eight
/// little-endian bytes per step. Each lane folds the next word in as
/// `lane = fold(lane ^ word ^ k1, k2)`, where `fold` is the high half
/// xor the low half of a 64 x 64 -> 128-bit product, with constants of
/// its own. It has no per-process state: a key is the same in every
/// run.
struct KeyHasher {
    lanes: [u64; 2],
    /// Bytes taken in but not yet hashed (fewer than eight), in the
    /// low bytes of `pending`.
    pending: u64,
    pending_len: u32,
    /// Bytes taken in so far.
    len: u64,
}

/// `(k1, k2)` of each lane: odd constants from SplitMix64 and
/// xorshift*.
const LANE_KEYS: [(u64, u64); 2] = [
    (0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9),
    (0x94d0_49bb_1331_11eb, 0x2545_f491_4f6c_dd1d),
];

fn fold(x: u64, k: u64) -> u64 {
    let product = x as u128 * k as u128;
    (product >> 64) as u64 ^ product as u64
}

fn step([a, b]: [u64; 2], word: u64) -> [u64; 2] {
    let [(a1, a2), (b1, b2)] = LANE_KEYS;
    [fold(a ^ word ^ a1, a2), fold(b ^ word ^ b1, b2)]
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher { lanes: [0; 2], pending: 0, pending_len: 0, len: 0 }
    }

    /// Takes in the eight bytes of `word`, little-endian.
    fn u64(&mut self, word: u64) {
        self.u64s(std::iter::once(word));
    }

    /// Takes in the eight bytes of each word, little-endian. The lanes
    /// stay in locals for the whole loop.
    fn u64s(&mut self, words: impl Iterator<Item = u64>) {
        let mut lanes = self.lanes;
        let mut count = 0;
        if self.pending_len == 0 {
            for word in words {
                lanes = step(lanes, word);
                count += 1;
            }
        } else {
            // Each step takes the pending bytes and the low bytes of
            // the word; its high bytes are pending next.
            let shift = 8 * self.pending_len;
            let mut pending = self.pending;
            for word in words {
                lanes = step(lanes, pending | word << shift);
                pending = word >> (64 - shift);
                count += 1;
            }
            self.pending = pending;
        }
        self.lanes = lanes;
        self.len += 8 * count;
    }

    fn byte(&mut self, b: u8) {
        self.pending |= (b as u64) << (8 * self.pending_len);
        self.pending_len += 1;
        self.len += 1;
        if self.pending_len == 8 {
            self.lanes = step(self.lanes, std::mem::take(&mut self.pending));
            self.pending_len = 0;
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        // Top up a partial word byte by byte; whole words follow.
        let (head, rest) = bytes.split_at(bytes.len().min((8 - self.pending_len as usize) % 8));
        for &b in head {
            self.byte(b);
        }
        let mut words = rest.chunks_exact(8);
        self.u64s(words.by_ref().map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes"))));
        for &b in words.remainder() {
            self.byte(b);
        }
    }

    fn field(&mut self, label: &str, body: &[u8]) {
        self.bytes(label.as_bytes());
        self.u64(body.len() as u64);
        self.bytes(body);
    }

    /// A field whose body is `words`, eight little-endian bytes each.
    fn words_field(&mut self, label: &str, words: impl ExactSizeIterator<Item = u64>) {
        self.bytes(label.as_bytes());
        self.u64(words.len() as u64 * 8);
        self.u64s(words);
    }

    /// The two lanes, each finished with the stream's length and the
    /// other lane, as `(hi, lo)`.
    fn finish(self) -> (u64, u64) {
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            lanes = step(lanes, self.pending);
        }
        let [a, b] = step(lanes, self.len);
        (fold(b ^ a.rotate_left(32), LANE_KEYS[1].1), fold(a ^ b.rotate_left(32), LANE_KEYS[0].1))
    }
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

/// A job's program as lowered for its batch, or the error lowering it
/// gave.
pub(crate) type Lowered = Result<Arc<PredecodedProgram>, MachineError>;

/// Builds a job's machine; the default is [`Job::machine`].
pub(crate) type Build =
    dyn Fn(&Job, Arc<PredecodedProgram>) -> Result<Machine, MachineError> + Send + Sync;

/// Runs one job to completion on the calling thread (no cache, no
/// timeout: the engine steps jobs in strides between deadline checks
/// instead).
pub fn execute(job: &Job) -> Result<JobOutput, MachineError> {
    let (mut machine, sink) = start(job, PredecodedProgram::shared(&job.program), &Job::machine)?;
    machine.run()?;
    Ok(finish(job, &machine, sink))
}

/// Builds `job`'s machine with `build` over `program`, the job's
/// program as lowered for its batch, and attaches a trace recorder if
/// the job is traced.
///
/// A program that does not lower fails the job with what building it
/// from source would report: the configuration is checked first.
pub(crate) fn start(
    job: &Job,
    program: Lowered,
    build: &Build,
) -> Result<(Machine, Option<ChromeSink>), MachineError> {
    let program =
        program.map_err(|e| job.config.validate().map_or_else(MachineError::from, |()| e))?;
    let mut machine = build(job, program)?;
    let sink = job.trace_dir.as_ref().map(|_| {
        let sink = ChromeSink::new();
        machine.attach_trace_sink(Box::new(sink.clone()));
        sink
    });
    Ok((machine, sink))
}

/// The output of `job`'s finished machine. A traced job's artifact is
/// written here.
pub(crate) fn finish(job: &Job, machine: &Machine, sink: Option<ChromeSink>) -> JobOutput {
    if let (Some(dir), Some(sink)) = (&job.trace_dir, sink) {
        let json = sink.render(job.config.thread_slots, &job.config.fu);
        write_trace(dir, &job.content_hash(), &json);
    }
    JobOutput { stats: machine.stats().clone(), mem: machine.mem_stats() }
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

    /// A small program with one data segment of four words.
    fn data_job() -> Job {
        let mut program = Program::from_insts(vec![
            hirata_isa::Inst::Nop,
            hirata_isa::Inst::Nop,
            hirata_isa::Inst::Halt,
        ]);
        program.data = vec![hirata_isa::DataSegment { base: 16, words: vec![1, 2, 3, 4] }];
        Job::new("d", Config::multithreaded(2), Arc::new(program))
    }

    fn with_program(job: &Job, edit: impl FnOnce(&mut Program)) -> Job {
        let mut program = (*job.program).clone();
        edit(&mut program);
        Job { program: Arc::new(program), ..job.clone() }
    }

    /// The v5 key of a fixed job. It changes only with the schema tag,
    /// the hasher, or what a job's fields render to; any of those is
    /// a change every stored key has to follow.
    #[test]
    fn key_of_fixed_job_is_pinned() {
        let key = data_job().with_extra_threads(vec![1]).content_hash();
        // Printed for `keys_are_the_same_in_another_process`.
        println!("key={key}");
        assert_eq!(key, "38a7d5800751f68c3aded4d7cfafd5ac");
    }

    /// The key of the same job, computed by a second run of this test
    /// binary, is the same: the hasher keeps no per-process state.
    #[test]
    fn keys_are_the_same_in_another_process() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "job::tests::key_of_fixed_job_is_pinned", "--nocapture"])
            .output()
            .expect("test binary runs again");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let theirs = stdout.lines().find_map(|line| line.strip_prefix("key=")).expect("key line");
        assert_eq!(theirs, data_job().with_extra_threads(vec![1]).content_hash());
    }

    #[test]
    fn every_single_field_change_changes_the_key() {
        use hirata_isa::{FuConfig, RotationMode};

        let base = data_job();
        let mut variants = vec![base.clone()];
        // Every data word, and the segment's base.
        for i in 0..4 {
            variants.push(with_program(&base, |p| p.data[0].words[i] ^= 1));
        }
        variants.push(with_program(&base, |p| p.data[0].base += 1));
        // The same words split into two segments instead of one.
        variants.push(with_program(&base, |p| {
            p.data = vec![
                hirata_isa::DataSegment { base: 16, words: vec![1, 2] },
                hirata_isa::DataSegment { base: 18, words: vec![3, 4] },
            ]
        }));
        // An instruction, and the entry point.
        variants.push(with_program(&base, |p| p.insts[0] = hirata_isa::Inst::FastFork));
        variants.push(with_program(&base, |p| p.entry = 1));
        // The Config fields the sweeps vary.
        for slots in [1, 4, 8] {
            variants.push(Job { config: Config::multithreaded(slots), ..base.clone() });
        }
        let config = |c: Config| Job { config: c, ..base.clone() };
        variants.push(config(Config::multithreaded(2).with_fu(FuConfig::paper_two_ls())));
        variants.push(config(Config::multithreaded(2).with_standby(false)));
        variants.push(config(Config::multithreaded(2).with_private_fetch(true)));
        variants.push(config(Config::multithreaded(2).with_context_frames(4)));
        variants.push(config(
            Config::multithreaded(2).with_rotation(RotationMode::Implicit { interval: 4 }),
        ));
        variants.push(config(Config::hybrid(2, 2)));
        // The memory model and its parameters.
        variants.push(base.clone().with_mem(MemModelSpec::IdealLatency { latency: 3 }));
        variants.push(base.clone().with_mem(MemModelSpec::IdealLatency { latency: 4 }));
        variants.push(base.clone().with_mem(MemModelSpec::Dsm {
            remote_base: 64,
            local_latency: 2,
            remote_latency: 40,
        }));
        // Extra threads: their presence, count and addresses.
        variants.push(base.clone().with_extra_threads(vec![0]));
        variants.push(base.clone().with_extra_threads(vec![1]));
        variants.push(base.clone().with_extra_threads(vec![0, 0]));

        let keys: Vec<String> = variants.iter().map(Job::content_hash).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share a key");
            }
        }
    }

    /// Words and bytes are one stream: however it is cut into calls,
    /// and whether a word arrives whole or as bytes, the hash is the
    /// same.
    #[test]
    fn the_hasher_sees_one_byte_stream() {
        let stream: Vec<u8> = (0u32..203).map(|i| (i * 37 % 251) as u8).collect();
        let whole = {
            let mut h = KeyHasher::new();
            h.bytes(&stream);
            h.finish()
        };
        for cut in [1, 3, 7, 8, 9, 64] {
            let mut h = KeyHasher::new();
            for piece in stream.chunks(cut) {
                h.bytes(piece);
            }
            assert_eq!(h.finish(), whole, "pieces of {cut}");
        }
        for lead in 0..8 {
            let mut h = KeyHasher::new();
            h.bytes(&stream[..lead]);
            let mut words = stream[lead..].chunks_exact(8);
            for word in &mut words {
                h.u64(u64::from_le_bytes(word.try_into().unwrap()));
            }
            h.bytes(words.remainder());
            assert_eq!(h.finish(), whole, "words after {lead} bytes");
        }
        let mut shorter = KeyHasher::new();
        shorter.bytes(&stream[..stream.len() - 1]);
        assert_ne!(shorter.finish(), whole);
        // Every byte counts, the partial last word's too.
        for i in 0..stream.len() {
            let mut flipped = stream.clone();
            flipped[i] ^= 0x10;
            let mut h = KeyHasher::new();
            h.bytes(&flipped);
            assert_ne!(h.finish(), whole, "byte {i}");
        }
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
