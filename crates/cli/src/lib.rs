//! Command-line front end for the Hirata 1992 reproduction.
//!
//! ```text
//! hirata check  <file.s>                  assemble, report errors
//! hirata disasm <file.s>                  assemble and print the listing
//! hirata run    <file.s> [options]        assemble and simulate
//! hirata trace  <file.s> [--slots N] [--format chrome|text]
//!                                          structured per-cycle event trace
//! hirata debug  <file.s> [--slots N]      scriptable single-step debugger
//! hirata emu    <file.s> [--slots N] [--dump A..B]
//!                                          architectural emulator (no timing)
//! hirata lab    <file.s> [options]        sweep a config grid through the
//!                                          parallel execution engine
//! hirata serve  [options]                 simulation-as-a-service daemon
//! hirata submit <file.s> [options]        run a sweep on a serve daemon
//! hirata stats  [--addr A]                daemon and artifact-store counters
//! hirata shutdown [--addr A]              stop a serve daemon
//!
//! run options:
//!   --slots N         thread slots (default 1)
//!   --base            use the Figure 3(b) baseline RISC pipeline
//!   --width D         per-slot issue width (default 1)
//!   --two-ls          second load/store unit
//!   --no-standby      disable standby stations
//!   --private-fetch   private per-slot instruction caches
//!   --trace           print every issue event
//!   --timeline        per-cycle issue grid (one column per slot)
//!   --dump A..B       print data memory words [A, B) after the run
//!   --max-cycles N    watchdog limit
//!
//! lab options:
//!   --slots LIST      comma-separated slot counts (default 1,2,4,8)
//!   --ls LIST         load/store units per point, from {1,2} (default 1)
//!   --jobs N          engine worker threads (default: one per CPU)
//!   --no-cache        simulate every point even if cached
//!   --timeout SECS    per-job wall-clock timeout
//!
//! serve options:
//!   --addr A          bind address (default 127.0.0.1:8080; port 0 ephemeral)
//!   --http-workers N  concurrent connections served (default 4)
//!   --jobs N          simulation workers per submission (default: one per CPU)
//!   --cache-dir D     artifact-store directory (default: the lab cache)
//!   --cache-budget B  LRU byte budget for the artifact store
//!   --no-cache        disable the artifact store
//!   --trace-dir D     Chrome trace directory (default target/serve-traces)
//!
//! submit options:
//!   --addr A          daemon address (default 127.0.0.1:8080)
//!   --slots LIST      comma-separated slot counts (default 1,2,4,8)
//!   --ls LIST         load/store units per point, from {1,2} (default 1)
//!   --mode M          pool (default) or interleaved
//!   --timeout SECS    per-job wall-clock timeout
//!   --trace           record Chrome trace artifacts daemon-side (pool mode)
//!
//! trace options:
//!   --slots N         thread slots (default 1)
//!   --width D         per-slot issue width (default 1)
//!   --two-ls          second load/store unit
//!   --format F        chrome (trace_event JSON for chrome://tracing or
//!                     Perfetto, one track per slot and per FU) or text
//!                     (compact line-per-event log; default)
//!   --max-cycles N    watchdog limit
//! ```
//!
//! The command logic lives in this library (returning the would-be
//! terminal output) so it can be tested without spawning processes;
//! `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod debugger;

pub use debugger::debug_session;

use std::fmt::Write as _;
use std::io::IsTerminal;

use hirata_isa::FuConfig;
use hirata_sim::{Config, Machine};

/// A CLI failure: the message to print to stderr (exit status 1) or a
/// usage error (exit status 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Operational failure (bad source file, machine error).
    Failure(String),
    /// Command-line misuse; the usage text should be shown.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Failure(m) | CliError::Usage(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "usage:
  hirata check  <file.s>
  hirata disasm <file.s>
  hirata run    <file.s> [--slots N] [--base] [--width D] [--two-ls]
                         [--no-standby] [--private-fetch] [--trace]
                         [--timeline] [--dump A..B] [--max-cycles N]
  hirata trace  <file.s> [--slots N] [--width D] [--two-ls]
                         [--format chrome|text] [--max-cycles N]
  hirata debug  <file.s> [--slots N]    (commands on stdin: s/c/b/r/f/m/i/q)
  hirata emu    <file.s> [--slots N] [--dump A..B]
  hirata lab    <file.s> [--slots LIST] [--ls LIST] [--jobs N]
                         [--no-cache] [--timeout SECS]
  hirata serve  [--addr A] [--http-workers N] [--jobs N] [--cache-dir D]
                         [--cache-budget B] [--no-cache] [--trace-dir D]
  hirata submit <file.s> [--addr A] [--slots LIST] [--ls LIST]
                         [--mode pool|interleaved] [--timeout SECS] [--trace]
  hirata stats  [--addr A]
  hirata shutdown [--addr A]";

/// Executes the command line (without the program name); returns the
/// stdout text.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, [`CliError::Failure`]
/// for assembly or simulation failures.
pub fn execute(
    args: &[String],
    read: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| CliError::Usage(USAGE.into()))?;
    match cmd.as_str() {
        "check" | "disasm" => {
            let path = it.next().ok_or_else(|| CliError::Usage(USAGE.into()))?;
            if it.next().is_some() {
                return Err(CliError::Usage(USAGE.into()));
            }
            let source =
                read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
            let program = hirata_asm::assemble(&source)
                .map_err(|e| CliError::Failure(format!("{path}:{e}")))?;
            if cmd == "check" {
                Ok(format!(
                    "{path}: ok ({} instructions, {} data words)\n",
                    program.len(),
                    program.data.iter().map(|s| s.words.len()).sum::<usize>()
                ))
            } else {
                Ok(program.listing())
            }
        }
        "run" => run(&args[1..], read),
        "trace" => trace_cmd(&args[1..], read),
        "lab" => lab(&args[1..], read),
        "serve" => serve_cmd(&args[1..]),
        "submit" => submit_cmd(&args[1..], read),
        "stats" => stats_cmd(&args[1..]),
        "shutdown" => shutdown_cmd(&args[1..]),
        "emu" => {
            let mut path: Option<&String> = None;
            let mut slots = 1usize;
            let mut dump: Option<(u64, u64)> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--slots" => slots = parse_num("--slots", rest.next())?,
                    "--dump" => {
                        let spec = rest.next().ok_or_else(|| {
                            CliError::Usage(format!("--dump needs A..B\n{USAGE}"))
                        })?;
                        let (a, b) = spec.split_once("..").ok_or_else(|| {
                            CliError::Usage(format!("--dump needs A..B\n{USAGE}"))
                        })?;
                        let lo = a.parse().map_err(|_| {
                            CliError::Usage(format!("invalid --dump range\n{USAGE}"))
                        })?;
                        let hi = b.parse().map_err(|_| {
                            CliError::Usage(format!("invalid --dump range\n{USAGE}"))
                        })?;
                        dump = Some((lo, hi));
                    }
                    a if a.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{a}`\n{USAGE}")))
                    }
                    _ if path.is_none() => path = Some(arg),
                    other => {
                        return Err(CliError::Usage(format!(
                            "unexpected argument `{other}`\n{USAGE}"
                        )))
                    }
                }
            }
            let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let source =
                read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
            let program = hirata_asm::assemble(&source)
                .map_err(|e| CliError::Failure(format!("{path}:{e}")))?;
            let outcome = hirata_sim::Emulator::execute(&program, slots, 1 << 20, 500_000_000)
                .map_err(|e| CliError::Failure(e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(out, "instructions:  {}", outcome.instructions);
            let _ = writeln!(out, "threads killed: {}", outcome.threads_killed);
            if let Some((lo, hi)) = dump {
                let _ = writeln!(out, "memory [{lo}..{hi}):");
                for addr in lo..hi {
                    let bits =
                        outcome.memory.read(addr).map_err(|e| CliError::Failure(e.to_string()))?;
                    let _ = writeln!(
                        out,
                        "  [{addr:>6}] {bits:#018x}  i64 {:<20}  f64 {}",
                        bits as i64,
                        f64::from_bits(bits)
                    );
                }
            }
            Ok(out)
        }
        "debug" => {
            let mut path: Option<&String> = None;
            let mut slots = 1usize;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--slots" => slots = parse_num("--slots", rest.next())?,
                    a if a.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{a}`\n{USAGE}")))
                    }
                    _ if path.is_none() => path = Some(arg),
                    other => {
                        return Err(CliError::Usage(format!(
                            "unexpected argument `{other}`\n{USAGE}"
                        )))
                    }
                }
            }
            let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
            let source =
                read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
            let program = hirata_asm::assemble(&source)
                .map_err(|e| CliError::Failure(format!("{path}:{e}")))?;
            let mut input = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
                .map_err(|e| CliError::Failure(format!("cannot read stdin: {e}")))?;
            debugger::debug_session(Config::multithreaded(slots), &program, &input)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, CliError> {
    value
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n{USAGE}")))?
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid value for {flag}\n{USAGE}")))
}

fn run(
    args: &[String],
    read: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut slots = 1usize;
    let mut width = 1usize;
    let mut base = false;
    let mut two_ls = false;
    let mut standby = true;
    let mut private_fetch = false;
    let mut trace = false;
    let mut timeline = false;
    let mut dump: Option<(u64, u64)> = None;
    let mut max_cycles: Option<u64> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slots" => slots = parse_num("--slots", it.next())?,
            "--width" => width = parse_num("--width", it.next())?,
            "--base" => base = true,
            "--two-ls" => two_ls = true,
            "--no-standby" => standby = false,
            "--private-fetch" => private_fetch = true,
            "--trace" => trace = true,
            "--timeline" => timeline = true,
            "--max-cycles" => max_cycles = Some(parse_num("--max-cycles", it.next())?),
            "--dump" => {
                let spec = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("--dump needs A..B\n{USAGE}")))?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| CliError::Usage(format!("--dump needs A..B\n{USAGE}")))?;
                let lo: u64 = a
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --dump range\n{USAGE}")))?;
                let hi: u64 = b
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --dump range\n{USAGE}")))?;
                if hi < lo {
                    return Err(CliError::Usage(format!("invalid --dump range\n{USAGE}")));
                }
                dump = Some((lo, hi));
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`\n{USAGE}")))
            }
            _ if path.is_none() => path = Some(arg),
            _ => return Err(CliError::Usage(format!("unexpected argument `{arg}`\n{USAGE}"))),
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let source = read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
    let program =
        hirata_asm::assemble(&source).map_err(|e| CliError::Failure(format!("{path}:{e}")))?;

    let mut config = if base {
        let mut c = Config::base_risc();
        c.thread_slots = slots; // >1 rejected by validation below
        c
    } else {
        Config::multithreaded(slots)
    };
    config.issue_width = width;
    if two_ls {
        config.fu = FuConfig::paper_two_ls();
    }
    config.standby_stations = standby;
    config.private_fetch = private_fetch;
    if let Some(limit) = max_cycles {
        config.max_cycles = limit;
    }
    config.validate().map_err(|e| CliError::Failure(e.to_string()))?;

    let slots_used = config.thread_slots;
    let mut machine =
        Machine::new(config, &program).map_err(|e| CliError::Failure(e.to_string()))?;
    machine.set_trace(trace || timeline);
    machine.run().map_err(|e| CliError::Failure(e.to_string()))?;
    let stats = machine.stats();

    let mut out = String::new();
    if trace {
        for e in machine.trace() {
            let _ = writeln!(
                out,
                "cycle {:>6}  slot {}  @{:<5} {}",
                e.cycle, e.slot, e.pc, program.insts[e.pc as usize]
            );
        }
        let _ = writeln!(out);
    }
    if timeline {
        out.push_str(&render_timeline(machine.trace(), slots_used, 120));
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "cycles:        {}", stats.cycles);
    let _ = writeln!(out, "instructions:  {}", stats.instructions);
    let _ = writeln!(out, "ipc:           {:.3}", stats.ipc());
    let (busiest, util) = stats.busiest_unit();
    let _ = writeln!(out, "busiest unit:  {busiest} ({util:.1}%)");
    out.push_str(&stats.utilization_report());
    if let Some((lo, hi)) = dump {
        let _ = writeln!(out, "memory [{lo}..{hi}):");
        for addr in lo..hi {
            let bits = machine.memory().read(addr).map_err(|e| CliError::Failure(e.to_string()))?;
            let _ = writeln!(
                out,
                "  [{addr:>6}] {bits:#018x}  i64 {:<20}  f64 {}",
                bits as i64,
                f64::from_bits(bits)
            );
        }
    }
    Ok(out)
}

/// `hirata trace`: simulate with a structured-event sink attached and
/// return the rendered trace — Chrome `trace_event` JSON (loadable in
/// `chrome://tracing` or Perfetto, one track per thread slot and per
/// functional unit) or the compact text log.
fn trace_cmd(
    args: &[String],
    read: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut slots = 1usize;
    let mut width = 1usize;
    let mut two_ls = false;
    let mut format = TraceFormat::Text;
    let mut max_cycles: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slots" => slots = parse_num("--slots", it.next())?,
            "--width" => width = parse_num("--width", it.next())?,
            "--two-ls" => two_ls = true,
            "--max-cycles" => max_cycles = Some(parse_num("--max-cycles", it.next())?),
            "--format" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("--format needs a value\n{USAGE}")))?;
                format = match value.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "text" => TraceFormat::Text,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown trace format `{other}` (chrome or text)\n{USAGE}"
                        )))
                    }
                };
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`\n{USAGE}")))
            }
            _ if path.is_none() => path = Some(arg),
            _ => return Err(CliError::Usage(format!("unexpected argument `{arg}`\n{USAGE}"))),
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let source = read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
    let program =
        hirata_asm::assemble(&source).map_err(|e| CliError::Failure(format!("{path}:{e}")))?;

    let mut config = Config::multithreaded(slots);
    config.issue_width = width;
    if two_ls {
        config.fu = FuConfig::paper_two_ls();
    }
    if let Some(limit) = max_cycles {
        config.max_cycles = limit;
    }
    config.validate().map_err(|e| CliError::Failure(e.to_string()))?;
    let fu = config.fu.clone();
    let slots_used = config.thread_slots;

    let mut machine =
        Machine::new(config, &program).map_err(|e| CliError::Failure(e.to_string()))?;
    match format {
        TraceFormat::Chrome => {
            let sink = hirata_sim::ChromeSink::new();
            machine.attach_trace_sink(Box::new(sink.clone()));
            machine.run().map_err(|e| CliError::Failure(e.to_string()))?;
            Ok(sink.render(slots_used, &fu))
        }
        TraceFormat::Text => {
            let sink = hirata_sim::TextSink::new();
            machine.attach_trace_sink(Box::new(sink.clone()));
            machine.run().map_err(|e| CliError::Failure(e.to_string()))?;
            Ok(sink.text())
        }
    }
}

/// Output format of `hirata trace`.
enum TraceFormat {
    Chrome,
    Text,
}

/// `hirata lab`: assemble a program and sweep a slots x load/store
/// grid through the parallel execution engine, one job per grid
/// point. Engine progress and the batch report go to stderr; the
/// result table (identical whatever the worker count or cache state)
/// is the returned stdout text.
fn lab(
    args: &[String],
    read: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut slots_list = vec![1usize, 2, 4, 8];
    let mut ls_list = vec![1usize];
    let mut jobs: Option<usize> = None;
    let mut no_cache = false;
    let mut timeout: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slots" => slots_list = parse_list("--slots", it.next())?,
            "--ls" => ls_list = parse_list("--ls", it.next())?,
            "--jobs" => jobs = Some(parse_num("--jobs", it.next())?),
            "--no-cache" => no_cache = true,
            "--timeout" => timeout = Some(parse_num("--timeout", it.next())?),
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`\n{USAGE}")))
            }
            _ if path.is_none() => path = Some(arg),
            _ => return Err(CliError::Usage(format!("unexpected argument `{arg}`\n{USAGE}"))),
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    if slots_list.is_empty() || slots_list.contains(&0) {
        return Err(CliError::Usage(format!("--slots needs positive counts\n{USAGE}")));
    }
    if ls_list.is_empty() || ls_list.iter().any(|&ls| ls != 1 && ls != 2) {
        return Err(CliError::Usage(format!("--ls entries must be 1 or 2\n{USAGE}")));
    }

    let source = read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;
    let program = std::sync::Arc::new(
        hirata_asm::assemble(&source).map_err(|e| CliError::Failure(format!("{path}:{e}")))?,
    );

    let mut engine = hirata_lab::Lab::new();
    if let Some(jobs) = jobs {
        engine = engine.with_workers(jobs);
    }
    if no_cache {
        engine = engine.without_cache();
    }

    // The engine's own progress line is replaced by per-job `k/n`
    // lines from the completion hook below.
    engine = engine.quiet();

    let grid = hirata_serve::sweep_grid(&slots_list, &ls_list);
    let batch_jobs: Vec<hirata_lab::Job> = grid
        .iter()
        .map(|&(slots, ls)| {
            let mut job = hirata_lab::Job::new(
                format!("{path} s{slots} {ls}LS"),
                hirata_serve::sweep_config(slots, ls),
                std::sync::Arc::clone(&program),
            );
            if let Some(secs) = timeout {
                job = job.with_timeout(std::time::Duration::from_secs(secs));
            }
            job
        })
        .collect();

    let live = std::io::stderr().is_terminal();
    let batch = engine.run_batch_observed(batch_jobs, hirata_lab::Placement::Pool, &mut |event| {
        if let (true, hirata_lab::BatchEvent::Job(summary)) = (live, event) {
            let provenance = match (summary.cached, summary.result.is_ok()) {
                (true, _) => "cached",
                (false, true) => "simulated",
                (false, false) => "failed",
            };
            eprintln!(
                "[lab] {}/{} {} ({provenance})",
                summary.finished, summary.total, summary.name
            );
        }
    });
    eprintln!("[lab] {}", batch.report);

    let rows: Vec<hirata_serve::SweepRow> = grid
        .iter()
        .zip(&batch.results)
        .map(|(&(slots, ls), result)| hirata_serve::SweepRow {
            slots,
            ls,
            outcome: match result {
                Ok(out_job) => Ok((out_job.stats.cycles, out_job.stats.instructions)),
                Err(err) => Err(err.to_string()),
            },
        })
        .collect();
    let out = hirata_serve::render_sweep_table(path, engine.workers(), &rows);
    if batch.report.failed > 0 {
        return Err(CliError::Failure(format!(
            "{} of {} grid points failed\n{out}",
            batch.report.failed,
            grid.len()
        )));
    }
    Ok(out)
}

/// Default daemon address shared by `serve`, `submit`, `stats`, and
/// `shutdown`.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8080";

/// `hirata serve`: boot the simulation-as-a-service daemon and block
/// until a `POST /shutdown` arrives.
fn serve_cmd(args: &[String]) -> Result<String, CliError> {
    let mut config =
        hirata_serve::server::ServeConfig { addr: DEFAULT_SERVE_ADDR.into(), ..Default::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = take_value("--addr", it.next())?;
            }
            "--http-workers" => config.http_workers = parse_num("--http-workers", it.next())?,
            "--jobs" => config.sim_workers = Some(parse_num("--jobs", it.next())?),
            "--cache-dir" => config.cache_dir = Some(take_value("--cache-dir", it.next())?.into()),
            "--cache-budget" => {
                config.cache_budget = Some(parse_num::<u64>("--cache-budget", it.next())?)
            }
            "--no-cache" => config.no_cache = true,
            "--trace-dir" => config.trace_dir = take_value("--trace-dir", it.next())?.into(),
            flag => return Err(CliError::Usage(format!("unknown flag `{flag}`\n{USAGE}"))),
        }
    }
    let server = hirata_serve::server::Server::bind(config)
        .map_err(|e| CliError::Failure(format!("cannot bind daemon: {e}")))?;
    let addr = server.local_addr();
    server.run().map_err(|e| CliError::Failure(format!("daemon failed: {e}")))?;
    Ok(format!("serve: {addr} shut down\n"))
}

/// `hirata submit`: run a sweep on a remote daemon; the result table
/// is byte-identical to `hirata lab` on the same grid.
fn submit_cmd(
    args: &[String],
    read: impl Fn(&str) -> std::io::Result<String>,
) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut slots_list = vec![1usize, 2, 4, 8];
    let mut ls_list = vec![1usize];
    let mut mode = hirata_serve::client::Mode::Pool;
    let mut timeout: Option<u64> = None;
    let mut trace = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value("--addr", it.next())?,
            "--slots" => slots_list = parse_list("--slots", it.next())?,
            "--ls" => ls_list = parse_list("--ls", it.next())?,
            "--mode" => {
                mode = match take_value("--mode", it.next())?.as_str() {
                    "pool" => hirata_serve::client::Mode::Pool,
                    "interleaved" => hirata_serve::client::Mode::Interleaved,
                    other => {
                        return Err(CliError::Usage(format!("unknown mode `{other}`\n{USAGE}")))
                    }
                }
            }
            "--timeout" => timeout = Some(parse_num::<u64>("--timeout", it.next())?),
            "--trace" => trace = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`\n{USAGE}")))
            }
            _ if path.is_none() => path = Some(arg),
            _ => return Err(CliError::Usage(format!("unexpected argument `{arg}`\n{USAGE}"))),
        }
    }
    let path = path.ok_or_else(|| CliError::Usage(USAGE.into()))?;
    if slots_list.is_empty() || slots_list.contains(&0) {
        return Err(CliError::Usage(format!("--slots needs positive counts\n{USAGE}")));
    }
    if ls_list.is_empty() || ls_list.iter().any(|&ls| ls != 1 && ls != 2) {
        return Err(CliError::Usage(format!("--ls entries must be 1 or 2\n{USAGE}")));
    }
    let source = read(path).map_err(|e| CliError::Failure(format!("cannot read `{path}`: {e}")))?;

    let request = hirata_serve::client::SubmitRequest {
        name: path.clone(),
        program: source,
        slots: slots_list,
        ls: ls_list,
        mode,
        timeout_secs: timeout,
        trace,
    };
    let live = std::io::stderr().is_terminal();
    let outcome = hirata_serve::client::submit(&addr, &request, &mut |finished, total| {
        if live {
            eprintln!("[submit] {finished}/{total} done");
        }
    })
    .map_err(|e| CliError::Failure(format!("submit to {addr} failed: {e}")))?;

    let rows: Vec<hirata_serve::SweepRow> = outcome
        .rows
        .iter()
        .map(|row| hirata_serve::SweepRow {
            slots: row.slots,
            ls: row.ls,
            outcome: row.outcome.clone(),
        })
        .collect();
    let out = hirata_serve::render_sweep_table(path, outcome.workers, &rows);
    if outcome.failed > 0 {
        return Err(CliError::Failure(format!(
            "{} of {} grid points failed\n{out}",
            outcome.failed,
            rows.len()
        )));
    }
    Ok(out)
}

/// `hirata stats`: pretty-print a daemon's `/stats` document.
fn stats_cmd(args: &[String]) -> Result<String, CliError> {
    let addr = addr_only_args("stats", args)?;
    let stats = hirata_serve::client::fetch_stats(&addr)
        .map_err(|e| CliError::Failure(format!("stats from {addr} failed: {e}")))?;
    Ok(format!("{}\n", stats.render_pretty()))
}

/// `hirata shutdown`: gracefully stop a daemon.
fn shutdown_cmd(args: &[String]) -> Result<String, CliError> {
    let addr = addr_only_args("shutdown", args)?;
    hirata_serve::client::shutdown(&addr)
        .map_err(|e| CliError::Failure(format!("shutdown of {addr} failed: {e}")))?;
    Ok(format!("shutdown: {addr} asked to stop\n"))
}

/// Parses the `[--addr A]`-only argument form of `stats`/`shutdown`.
fn addr_only_args(cmd: &str, args: &[String]) -> Result<String, CliError> {
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value("--addr", it.next())?,
            flag => {
                return Err(CliError::Usage(format!("{cmd}: unknown argument `{flag}`\n{USAGE}")))
            }
        }
    }
    Ok(addr)
}

/// Requires a flag's value argument.
fn take_value(flag: &str, value: Option<&String>) -> Result<String, CliError> {
    value.cloned().ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n{USAGE}")))
}

/// Parses a comma-separated list of numbers (`1,2,4`).
fn parse_list(flag: &str, value: Option<&String>) -> Result<Vec<usize>, CliError> {
    value
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value\n{USAGE}")))?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value for {flag}\n{USAGE}")))
        })
        .collect()
}

/// Renders the first `max_cycles` cycles of an issue trace as a grid:
/// one column per thread slot, the issued instruction address in each
/// cell, `.` for a cycle with no issue from that slot.
fn render_timeline(trace: &[hirata_sim::IssueEvent], slots: usize, max_cycles: u64) -> String {
    let mut out = String::new();
    if trace.is_empty() {
        return out;
    }
    let last = trace.iter().map(|e| e.cycle).max().expect("non-empty").min(max_cycles);
    let _ = write!(out, "{:>6} ", "cycle");
    for s in 0..slots {
        let _ = write!(out, "{:>6}", format!("s{s}"));
    }
    let _ = writeln!(out);
    let mut idx = 0usize;
    for cycle in 0..=last {
        let mut cells = vec![String::from("."); slots];
        while idx < trace.len() && trace[idx].cycle == cycle {
            cells[trace[idx].slot] = format!("@{}", trace[idx].pc);
            idx += 1;
        }
        if cells.iter().all(|c| c == ".") {
            continue; // skip fully idle cycles
        }
        let _ = write!(out, "{cycle:>6} ");
        for cell in cells {
            let _ = write!(out, "{cell:>6}");
        }
        let _ = writeln!(out);
    }
    if trace.iter().any(|e| e.cycle > max_cycles) {
        let _ = writeln!(out, "  ... (truncated at cycle {max_cycles})");
    }
    out
}

/// Reads files from the real filesystem (the production `read`).
pub fn read_file(path: &str) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_fs(src: &'static str) -> impl Fn(&str) -> std::io::Result<String> {
        move |path| {
            if path == "prog.s" {
                Ok(src.to_owned())
            } else {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"))
            }
        }
    }

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    const PROG: &str = "
        fastfork
        lpid r1
        mul  r2, r1, r1
        sw   r2, 100(r1)
        halt
    ";

    #[test]
    fn check_reports_counts() {
        let out = execute(&args("check prog.s"), fake_fs(PROG)).unwrap();
        assert!(out.contains("ok (5 instructions, 0 data words)"));
    }

    #[test]
    fn disasm_prints_listing() {
        let out = execute(&args("disasm prog.s"), fake_fs(PROG)).unwrap();
        assert!(out.contains("fastfork"));
        assert!(out.contains("@4"));
    }

    #[test]
    fn run_reports_stats_and_dump() {
        let out = execute(&args("run prog.s --slots 4 --dump 100..104"), fake_fs(PROG)).unwrap();
        assert!(out.contains("cycles:"), "{out}");
        assert!(out.contains("int-mul"), "{out}");
        assert!(out.contains("i64 9"), "thread 3 squares to 9: {out}");
    }

    #[test]
    fn run_trace_lists_issues() {
        let out = execute(&args("run prog.s --trace --base"), fake_fs(PROG)).unwrap();
        assert!(out.contains("slot 0"), "{out}");
        assert!(out.contains("mul  r2, r1, r1") || out.contains("mul r2, r1, r1"), "{out}");
    }

    #[test]
    fn trace_text_logs_events() {
        let out = execute(&args("trace prog.s --slots 4"), fake_fs(PROG)).unwrap();
        assert!(out.contains("issue pc=0x0000"), "{out}");
        assert!(out.contains("fu-win"), "{out}");
        assert!(out.contains("stall no-thread"), "{out}");
    }

    #[test]
    fn trace_chrome_emits_trace_event_json() {
        let out = execute(&args("trace prog.s --slots 4 --format chrome"), fake_fs(PROG)).unwrap();
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        for s in 0..4 {
            assert!(out.contains(&format!("slot {s}")), "{out}");
        }
        assert!(out.contains("int-mul.0"), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn trace_usage_errors() {
        for bad in [
            "trace",
            "trace prog.s --format pdf",
            "trace prog.s --bogus",
            "trace prog.s --warp-debug",
            "run prog.s --no-warp",
            "run prog.s --no-fast-forward",
            "trace prog.s --no-fast-forward",
        ] {
            let err = execute(&args(bad), fake_fs(PROG)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn assembly_errors_carry_path_and_line() {
        let err = execute(&args("check prog.s"), fake_fs("bogus r1")).unwrap_err();
        match err {
            CliError::Failure(m) => {
                assert!(m.contains("prog.s:line 1"), "{m}");
                assert!(m.contains("unknown mnemonic"), "{m}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_a_failure() {
        let err = execute(&args("run missing.s"), fake_fs(PROG)).unwrap_err();
        assert!(matches!(err, CliError::Failure(m) if m.contains("missing.s")));
    }

    #[test]
    fn usage_errors() {
        for bad in [
            "",
            "frobnicate prog.s",
            "run prog.s --slots",
            "run prog.s --dump 5",
            "run prog.s --dump 9..3",
            "run prog.s --bogus",
            "run prog.s extra.s",
        ] {
            let err = execute(&args(bad), fake_fs(PROG)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn lab_sweeps_a_grid() {
        let out =
            execute(&args("lab prog.s --slots 1,2 --ls 1,2 --jobs 2 --no-cache"), fake_fs(PROG))
                .unwrap();
        assert!(out.contains("4 grid points"), "{out}");
        // One table row per grid point, every point completed.
        assert_eq!(out.matches("\n     1").count() + out.matches("\n     2").count(), 4, "{out}");
        assert!(!out.contains("failed"), "{out}");
    }

    /// `hirata submit` against a live daemon prints the exact bytes
    /// `hirata lab` prints for the same grid — the contract that lets
    /// CI diff the two paths.
    #[test]
    fn submit_table_matches_lab_table() {
        let cache = std::env::temp_dir().join(format!("hirata-cli-submit-{}", std::process::id()));
        let config = hirata_serve::server::ServeConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 2,
            sim_workers: Some(2),
            cache_dir: Some(cache.clone()),
            quiet: true,
            ..Default::default()
        };
        let (addr, handle) = hirata_serve::server::Server::spawn(config).expect("daemon boots");

        let local =
            execute(&args("lab prog.s --slots 1,2 --ls 1 --jobs 2 --no-cache"), fake_fs(PROG))
                .unwrap();
        let remote = execute(
            &args(&format!("submit prog.s --slots 1,2 --ls 1 --addr {addr}")),
            fake_fs(PROG),
        )
        .unwrap();
        assert_eq!(remote, local, "remote and local tables differ");

        // Resubmission is served from the artifact store, bytes
        // unchanged; interleaved mode reports its single-lane header.
        let cached = execute(
            &args(&format!("submit prog.s --slots 1,2 --ls 1 --addr {addr}")),
            fake_fs(PROG),
        )
        .unwrap();
        assert_eq!(cached, local);
        let interleaved = execute(
            &args(&format!("submit prog.s --slots 1,2 --ls 1 --mode interleaved --addr {addr}")),
            fake_fs(PROG),
        )
        .unwrap();
        assert!(interleaved.contains("2 grid points, 1 workers"), "{interleaved}");

        let stats = execute(&args(&format!("stats --addr {addr}")), fake_fs(PROG)).unwrap();
        assert!(stats.contains("\"submissions\": 3"), "{stats}");

        let bye = execute(&args(&format!("shutdown --addr {addr}")), fake_fs(PROG)).unwrap();
        assert!(bye.contains("asked to stop"));
        handle.join().expect("daemon thread").expect("clean exit");
        let _ = std::fs::remove_dir_all(cache);
    }

    #[test]
    fn lab_usage_errors() {
        for bad in [
            "lab prog.s --slots 0",
            "lab prog.s --ls 3",
            "lab prog.s --slots one",
            "lab prog.s --bogus",
            "lab",
        ] {
            let err = execute(&args(bad), fake_fs(PROG)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn watchdog_is_reported_as_failure() {
        let err = execute(&args("run prog.s --max-cycles 3"), fake_fs("loop: j loop")).unwrap_err();
        assert!(matches!(err, CliError::Failure(m) if m.contains("watchdog")));
    }

    #[test]
    fn base_flag_conflicts_with_slots() {
        let err = execute(&args("run prog.s --base --slots 4"), fake_fs(PROG)).unwrap_err();
        assert!(matches!(err, CliError::Failure(m) if m.contains("single-threaded")));
    }
}
