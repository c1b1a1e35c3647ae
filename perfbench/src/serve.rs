//! `serve`: one op is one `client::submit` to an in-process daemon
//! (`Server::spawn` with the default `ServeConfig` on a fresh store),
//! one connection at a time. Every submission is the Figure 6 loop
//! swept over slots {1,2,4,8} x ls {1,2}:
//!
//! * two ops in three resubmit an earlier program in `pool` mode
//!   (warm: eight store reads, no simulation);
//! * one op in three submits a new program (cold: eight simulations
//!   and eight store writes), alternating `pool` and `interleaved`.
//!
//! Set-up boots the daemon, opens the store and submits three programs,
//! the same for every seed, which warm ops may resubmit. Every round
//! starts from its own set-up, so its cold ops are cold again, and
//! each answer must equal the first round's.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hirata_lab::{execute, DiskCache, Job};
use hirata_serve::client::{self, Mode, SubmitOutcome, SubmitRequest, SubmitRow};
use hirata_serve::json::Json;
use hirata_serve::server::{ServeConfig, Server};
use hirata_serve::sweep_config;
use hirata_sim::StallReason;
use hirata_workloads::linked_list::{eager_source, sequential_source, ListShape};

use crate::host::Reference;
use crate::metrics::STALLS;
use crate::trace::{Tracer, SETUP_OP};
use crate::{
    guarded, heap, op_is_traced, Options, Outcome, SplitMix64, Timings, REFERENCE_EVERY, SETUP_REPS,
};

/// Submissions in a round: three blocks of eight cold programs per
/// mode (48 cold ops) and 96 warm ops.
pub const OPS_PER_ROUND: usize = 144;

/// Nominal seconds of a round.
pub const ROUND_SECONDS: f64 = 0.75;

/// Threads the host's reference loop runs on: the daemon simulates on
/// two workers (its default on a 2-vCPU host).
const REFERENCE_THREADS: usize = 2;

/// Programs submitted (cold, `pool` mode) during set-up.
pub const SETUP_PROGRAMS: usize = 3;

/// The sweep grid of every submission.
const SLOTS: [usize; 4] = [1, 2, 4, 8];
const LS: [usize; 2] = [1, 2];

/// List lengths: the paper's 40-200-node range, cut into eight strata
/// of [`STRATUM_NODES`]; stratum `s` holds lengths from
/// `MIN_NODES + s * STRATUM_NODES` to `MIN_NODES + (s + 1) * STRATUM_NODES`.
const MIN_NODES: u64 = 40;
const MAX_NODES: u64 = 200;
const STRATA: usize = 8;
const STRATUM_NODES: u64 = (MAX_NODES - MIN_NODES) / STRATA as u64;

/// The programs set-up submits, the same for every seed so that set-up
/// does the same work.
const SETUP_LISTS: [ListProgram; SETUP_PROGRAMS] = [
    ListProgram { eager: false, nodes: 70, break_at: None },
    ListProgram { eager: true, nodes: 110, break_at: None },
    ListProgram { eager: true, nodes: 150, break_at: Some(120) },
];

/// One generated Figure 6 program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListProgram {
    /// Eager (queue-register) form rather than sequential.
    pub eager: bool,
    /// List length.
    pub nodes: usize,
    /// Node whose `tmp` goes negative, if any.
    pub break_at: Option<usize>,
}

impl ListProgram {
    /// Assembly source of the program.
    pub fn source(&self) -> String {
        let shape = ListShape { nodes: self.nodes, break_at: self.break_at };
        if self.eager {
            eager_source(shape)
        } else {
            sequential_source(shape)
        }
    }
}

/// Kind of a timed submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resubmission of an earlier program.
    Warm,
    /// New program, `pool` mode.
    ColdPool,
    /// New program, `interleaved` mode.
    ColdInterleaved,
}

impl Kind {
    /// Span detail and metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::ColdPool => "cold-pool",
            Kind::ColdInterleaved => "cold-interleaved",
        }
    }

    fn mode(self) -> Mode {
        match self {
            Kind::ColdInterleaved => Mode::Interleaved,
            Kind::Warm | Kind::ColdPool => Mode::Pool,
        }
    }
}

/// One timed submission: its kind and the program it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Warm or cold, and the mode.
    pub kind: Kind,
    /// Index into [`Plan::programs`].
    pub program: usize,
}

/// The seeded submission sequence of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Every distinct program; the first [`SETUP_PROGRAMS`] are
    /// submitted during set-up.
    pub programs: Vec<ListProgram>,
    /// The timed submissions.
    pub ops: Vec<Submission>,
}

/// A program of length stratum `stratum` and form `form` (bit 0 makes
/// the list eager, bit 1 makes it break); the seed sets its exact
/// length and break node.
fn shaped(rng: &mut SplitMix64, stratum: usize, form: u64) -> ListProgram {
    let low = MIN_NODES + stratum as u64 * STRATUM_NODES;
    let nodes = (low + rng.below(STRATUM_NODES + 1)) as usize;
    let break_at = (form & 2 != 0).then(|| nodes / 2 + rng.below(nodes as u64 / 2) as usize);
    ListProgram { eager: form & 1 != 0, nodes, break_at }
}

/// Generates the submission sequence for `seed`.
///
/// Every seed sends the same spread of programs; the seed sets their
/// order, exact lengths and break nodes. Cold ops of each mode come in
/// blocks of eight, one per length stratum in seeded order, and the
/// stratum fixes the form (stratum `s` has form `s % 4` in `pool` mode
/// and `(s + 1) % 4` in `interleaved` mode). Each warm op resubmits a
/// program drawn from a deck that holds two cards for every program
/// sent so far and loses the card drawn, so every program is resent at
/// most twice.
pub fn plan(seed: u64, ops: usize) -> Plan {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut programs = Vec::new();
    let mut deck = Vec::new();
    for p in SETUP_LISTS {
        seen.insert(p);
        programs.push(p);
        deck.extend([programs.len() - 1; 2]);
    }
    let mut send = |rng: &mut SplitMix64, stratum: usize, form: u64, deck: &mut Vec<usize>| {
        // Redraw the seeded details until the program is new; past 32
        // tries (only in very long runs) any length and form will do.
        let mut tries = 0;
        let p = loop {
            let (stratum, form) = if tries < 32 {
                (stratum, form)
            } else {
                (rng.below(STRATA as u64) as usize, rng.below(4))
            };
            let p = shaped(rng, stratum, form);
            if seen.insert(p) {
                break p;
            }
            tries += 1;
        };
        programs.push(p);
        deck.extend([programs.len() - 1; 2]);
        programs.len() - 1
    };
    // Seeded stratum order of the current block of each mode.
    let mut blocks: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let ops = (0..ops)
        .map(|i| {
            if i % 3 != 0 {
                let card = rng.below(deck.len() as u64) as usize;
                return Submission { kind: Kind::Warm, program: deck.swap_remove(card) };
            }
            let mode = (i / 3) % 2;
            let block = &mut blocks[mode];
            if block.is_empty() {
                *block = (0..STRATA).collect();
                for k in (1..STRATA).rev() {
                    block.swap(k, rng.below(k as u64 + 1) as usize);
                }
            }
            let stratum = block.pop().expect("a refilled block");
            let form = (stratum + mode) as u64 % 4;
            let kind = if mode == 0 { Kind::ColdPool } else { Kind::ColdInterleaved };
            Submission { kind, program: send(&mut rng, stratum, form, &mut deck) }
        })
        .collect();
    Plan { programs, ops }
}

/// The request for program `index` of `plan`.
pub fn request(plan: &Plan, index: usize, mode: Mode) -> SubmitRequest {
    SubmitRequest {
        name: format!("list-{index}.s"),
        program: plan.programs[index].source(),
        slots: SLOTS.to_vec(),
        ls: LS.to_vec(),
        mode,
        timeout_secs: None,
        trace: false,
    }
}

/// The wire body of `req`, field for field as the client sends it.
pub fn body(req: &SubmitRequest) -> String {
    let nums = |ns: &[usize]| Json::Arr(ns.iter().map(|&n| Json::u64(n as u64)).collect());
    let mode = match req.mode {
        Mode::Pool => "pool",
        Mode::Interleaved => "interleaved",
    };
    Json::Obj(vec![
        ("name".into(), Json::Str(req.name.clone())),
        ("program".into(), Json::Str(req.program.clone())),
        ("slots".into(), nums(&req.slots)),
        ("ls".into(), nums(&req.ls)),
        ("mode".into(), Json::Str(mode.into())),
        ("trace".into(), Json::Bool(req.trace)),
    ])
    .render()
}

/// Boots a daemon on `store`; returns its address and thread.
fn boot(store: &Path, traces: &Path) -> Result<(String, JoinHandle<std::io::Result<()>>), String> {
    let config = ServeConfig {
        cache_dir: Some(store.to_path_buf()),
        trace_dir: traces.to_path_buf(),
        quiet: true,
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).map_err(|e| format!("daemon does not boot: {e}"))?;
    Ok((addr.to_string(), handle))
}

/// Shuts a daemon down and waits for its thread.
fn stop(addr: &str, handle: JoinHandle<std::io::Result<()>>) -> Result<(), String> {
    client::shutdown(addr).map_err(|e| format!("shutdown failed: {e}"))?;
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon failed: {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

fn submit(addr: &str, req: &SubmitRequest) -> Result<SubmitOutcome, String> {
    client::submit(addr, req, &mut |_, _| {}).map_err(|e| format!("submit failed: {e}"))
}

/// Checks one answer: eight successful rows, all simulated (cold) or
/// all from the store (warm).
fn check_answer(answer: &SubmitOutcome, warm: bool) -> Result<(), String> {
    let grid = SLOTS.len() * LS.len();
    if answer.rows.len() != grid {
        return Err(format!("{} rows, expected {grid}", answer.rows.len()));
    }
    if let Some(row) = answer.rows.iter().find(|r| r.outcome.is_err()) {
        return Err(format!("row s{} ls{} failed: {:?}", row.slots, row.ls, row.outcome));
    }
    let (hits, executed) = if warm { (grid, 0) } else { (0, grid) };
    if answer.cache_hits != hits || answer.executed != executed {
        return Err(format!(
            "{} cached and {} executed, expected {hits} and {executed}",
            answer.cache_hits, answer.executed
        ));
    }
    Ok(())
}

/// A row without its `cached` flag: what warm and cold answers share.
fn essence(row: &SubmitRow) -> (usize, usize, &str, &Result<(u64, u64), String>) {
    (row.slots, row.ls, row.key.as_str(), &row.outcome)
}

/// Re-simulates every grid point of `program` directly and compares
/// content hash, cycles and instructions with the daemon's rows.
fn recheck(program: &ListProgram, rows: &[SubmitRow]) -> Result<(), String> {
    let prog = hirata_asm::assemble(&program.source()).map_err(|e| e.to_string())?;
    let prog = Arc::new(prog);
    for row in rows {
        let job = Job::new("recheck", sweep_config(row.slots, row.ls), Arc::clone(&prog));
        if job.content_hash() != row.key {
            return Err(format!(
                "s{} ls{}: key {} differs from the daemon's",
                row.slots, row.ls, row.key
            ));
        }
        let out = execute(&job).map_err(|e| e.to_string())?;
        let direct = Ok((out.stats.cycles, out.stats.instructions));
        if direct != row.outcome {
            return Err(format!(
                "s{} ls{}: daemon answered {:?}, direct run gives {direct:?}",
                row.slots, row.ls, row.outcome
            ));
        }
    }
    Ok(())
}

/// The daemon's path replayed on the same body through the same public
/// functions, against a separate store, so the traced run can split
/// the latency the client sees into layers.
struct Replay {
    store: DiskCache,
    stalls: [u64; STALLS.len()],
}

impl Replay {
    fn run(&mut self, t: &mut Tracer, body: &str) -> Result<(), String> {
        let doc =
            t.span("serve.json.parse", "", || Json::parse(body)).map_err(|e| e.to_string())?;
        let source = doc.get("program").and_then(Json::as_str).ok_or("body without program")?;
        let prog = t.span("asm.assemble", "", || hirata_asm::assemble(source));
        let prog = Arc::new(prog.map_err(|e| e.to_string())?);
        let jobs: Vec<Job> = LS
            .iter()
            .flat_map(|&ls| SLOTS.iter().map(move |&slots| (slots, ls)))
            .map(|(slots, ls)| Job::new("replay", sweep_config(slots, ls), Arc::clone(&prog)))
            .collect();
        let keys: Vec<String> =
            t.span("lab.hash", "", || jobs.iter().map(Job::content_hash).collect());
        for (job, key) in jobs.iter().zip(&keys) {
            if t.span("lab.cache.load", "", || self.store.load(key)).is_some() {
                continue;
            }
            let out = t.span("sim.job", "", || execute(job)).map_err(|e| e.to_string())?;
            for (total, reason) in self.stalls.iter_mut().zip(StallReason::ALL) {
                *total += out.stats.stalls.count(reason);
            }
            t.span("lab.cache.store", "", || self.store.store(key, &out))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Checks that `rows` equal the first round's answer for a program.
fn same_as_first(rows: &[SubmitRow], first: &[SubmitRow]) -> Result<(), String> {
    if rows.iter().map(essence).eq(first.iter().map(essence)) {
        Ok(())
    } else {
        Err("rows differ from the first answer for the same program".into())
    }
}

/// Runs the serve workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let plan = plan(opts.seed, opts.ops);
    let mut t = Tracer::new(opts.traced);
    let mut timings = Timings::default();
    let mut reference = Reference::new(REFERENCE_THREADS);
    let traces = opts.work_dir.join("serve-traces");
    // Rows of each program's first cold answer, and the op that got it
    // (`None` for set-up).
    let mut known: Vec<Option<(Vec<SubmitRow>, Option<usize>)>> = vec![None; plan.programs.len()];
    let mut stalls = [0u64; STALLS.len()];
    let mut stats = None;
    let mut failed_ops = HashSet::new();

    // Stores stay until the caller removes the work directory, so that
    // no file deletion runs while a later round is timed.
    for round in 0..opts.rounds {
        t.set_on(opts.traced);
        let mut daemon: Option<(String, JoinHandle<_>)> = None;
        for rep in 0..SETUP_REPS {
            if let Some((addr, handle)) = daemon.take() {
                stop(&addr, handle)?;
            }
            let store = opts.work_dir.join(format!("serve-store-{round}-{rep}"));
            t.set_op(SETUP_OP + (round * SETUP_REPS + rep) as u32);
            let start = Instant::now();
            let (addr, handle) = boot(&store, &traces)?;
            let mut answers = Vec::with_capacity(SETUP_PROGRAMS);
            for p in 0..SETUP_PROGRAMS {
                let req = request(&plan, p, Mode::Pool);
                answers.push(t.span("serve.submit", "setup", || submit(&addr, &req)));
            }
            timings.setup(rep, start.elapsed().as_secs_f64());
            for (p, answer) in answers.into_iter().enumerate() {
                let answer = answer.map_err(|e| format!("set-up: {e}"))?;
                check_answer(&answer, false).map_err(|e| format!("set-up: {e}"))?;
                match &known[p] {
                    Some((first, _)) => {
                        same_as_first(&answer.rows, first).map_err(|e| format!("set-up: {e}"))?
                    }
                    None => known[p] = Some((answer.rows, None)),
                }
            }
            daemon = Some((addr, handle));
        }
        let (addr, handle) = daemon.expect("at least one set-up repetition");
        let replay_store = opts.work_dir.join(format!("replay-store-{round}"));
        let cache = DiskCache::open(replay_store).map_err(|e| e.to_string())?;
        let mut replay = Replay { store: cache, stalls };
        if opts.traced {
            let mut off = Tracer::new(false);
            for p in 0..SETUP_PROGRAMS {
                replay.run(&mut off, &body(&request(&plan, p, Mode::Pool)))?;
            }
        }

        for (i, sub) in plan.ops.iter().enumerate() {
            if i % REFERENCE_EVERY == 0 {
                timings.time_reference(&mut reference);
            }
            let req = request(&plan, sub.program, sub.kind.mode());
            let traced = opts.traced && op_is_traced(i);
            t.set_on(traced);
            t.set_op((round * opts.ops + i) as u32);
            let start = Instant::now();
            let answer =
                t.span("serve.submit", sub.kind.name(), || guarded(|| submit(&addr, &req)));
            timings.op(i, start.elapsed().as_secs_f64(), traced);

            let verdict = guarded(|| {
                let answer = answer?;
                check_answer(&answer, sub.kind == Kind::Warm)?;
                match &known[sub.program] {
                    Some((first, _)) => same_as_first(&answer.rows, first)?,
                    None if sub.kind == Kind::Warm => {
                        return Err("warm op before its cold op".into())
                    }
                    None => {
                        for row in &answer.rows {
                            if let Ok((_, instructions)) = row.outcome {
                                timings.sim_instructions += instructions;
                            }
                        }
                        known[sub.program] = Some((answer.rows, Some(i)));
                    }
                }
                if opts.traced {
                    replay.run(&mut t, &body(&req))?;
                }
                Ok(())
            });
            if let Err(e) = verdict {
                eprintln!("serve round {round} op {i} ({}) failed: {e}", sub.kind.name());
                failed_ops.insert((round, i));
            }
        }
        if round + 1 == opts.rounds {
            timings.peak_heap_bytes = heap::peak_bytes();
            if opts.traced {
                stats =
                    Some(client::fetch_stats(&addr).map_err(|e| format!("/stats failed: {e}"))?);
            }
        }
        stop(&addr, handle)?;
        stalls = replay.stalls;
    }

    // Every distinct job, re-simulated directly.
    for (program, entry) in plan.programs.iter().zip(&known) {
        let Some((rows, op)) = entry else { continue };
        if let Err(e) = guarded(|| recheck(program, rows)) {
            match op {
                Some(i) => {
                    eprintln!("serve op {i} failed the direct re-run: {e}");
                    failed_ops.insert((0, *i));
                }
                None => return Err(format!("set-up submission failed the direct re-run: {e}")),
            }
        }
    }

    let mut outcome = Outcome {
        attempted: (opts.rounds * opts.ops) as u64,
        failed: failed_ops.len() as u64,
        host_scale: timings.host_scale(),
        ..Outcome::default()
    };
    let Some(stats) = stats else {
        outcome.metrics = timings.end_to_end();
        return Ok(outcome);
    };

    let mut put = |k: &str, v: f64| {
        outcome.metrics.insert(k.to_string(), v);
    };
    for kind in [Kind::Warm, Kind::ColdPool, Kind::ColdInterleaved] {
        let ms = t.median_per_op("serve.submit", Some(kind.name())) / 1e6;
        put(&format!("serve.submit_ms.{}", kind.name()), ms);
    }
    put("serve.json.parse_us", t.median_per_op("serve.json.parse", None) / 1e3);
    put("asm.assemble_us", t.median_per_op("asm.assemble", None) / 1e3);
    put("lab.hash_us", t.median_per_op("lab.hash", None) / 1e3);
    put("lab.cache.load_us", t.median_per_op("lab.cache.load", None) / 1e3);
    put("lab.cache.store_us", t.median_per_op("lab.cache.store", None) / 1e3);
    put("sim.job_ms", t.median_span("sim.job") / 1e6);

    // Transport: what is left of a warm submission once the replayed
    // layers (parse, assemble, hash, eight loads) are taken out.
    let warm = t.totals_by_op("serve.submit", Some(Kind::Warm.name()));
    let layers: Vec<_> = ["serve.json.parse", "asm.assemble", "lab.hash", "lab.cache.load"]
        .iter()
        .map(|name| t.totals_by_op(name, None))
        .collect();
    let transport: Vec<f64> = warm
        .iter()
        .map(|(op, total)| {
            total - layers.iter().map(|l| l.get(op).copied().unwrap_or(0.0)).sum::<f64>()
        })
        .collect();
    put("serve.transport_us", crate::median(&transport) / 1e3);

    let count = |doc: &Json, field: &str| doc.get(field).and_then(Json::as_u64).unwrap_or(0) as f64;
    for field in ["requests", "jobs_run", "jobs_cached", "jobs_failed"] {
        put(&format!("serve.{field}"), count(&stats, field));
    }
    let cache = stats.get("cache").unwrap_or(&Json::Null);
    for field in ["hits", "misses", "stores", "bytes"] {
        put(&format!("lab.cache.{field}"), count(cache, field));
    }
    let lookups = count(cache, "hits") + count(cache, "misses");
    put("lab.cache.hit_ratio", if lookups > 0.0 { count(cache, "hits") / lookups } else { 0.0 });
    for (name, total) in STALLS.iter().zip(stalls) {
        put(&format!("sim.stall.{name}"), total as f64);
    }
    put("trace.overhead_pct", timings.overhead_pct());
    outcome.spans = Some(t.render());
    Ok(outcome)
}
