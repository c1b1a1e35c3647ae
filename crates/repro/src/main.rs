//! `repro` — regenerates every table and figure-level claim of Hirata
//! et al. (ISCA 1992), §3, through the parallel execution engine.
//!
//! ```text
//! repro [table2|table2-private|table3|table4|table5|rotation|
//!        utilization|concurrent|finite-cache|ablations|kernels|
//!        trace-driven|all] [--quick] [--jobs N] [--no-cache]
//!       [--trace-dir DIR]
//! ```
//!
//! `--jobs N` sets the worker count (default: one per CPU);
//! `--no-cache` forces every simulation to run. `--trace-dir DIR`
//! writes a Chrome `trace_event` JSON artifact per executed job under
//! `DIR`, keyed by job content hash (cached results re-simulate when
//! their artifact is missing, so the set comes out complete). Table
//! bytes on stdout — and trace artifact bytes — are identical whatever
//! the worker count and cache state; engine progress goes to stderr.

use std::io::{self, Write};

use hirata_lab::Lab;
use hirata_repro::{render_experiment, Session, Sizes, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let jobs = match parse_jobs(&args) {
        Ok(jobs) => jobs,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let trace_dir = match parse_trace_dir(&args) {
        Ok(dir) => dir,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };

    let which = positional_experiment(&args).unwrap_or("all");
    if which != "all" && !EXPERIMENTS.contains(&which) {
        eprintln!("unknown experiment `{which}`; choose one of: {}, all", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }

    let mut lab = Lab::new();
    if let Some(jobs) = jobs {
        lab = lab.with_workers(jobs);
    }
    if no_cache {
        lab = lab.without_cache();
    }
    if let Some(dir) = trace_dir {
        lab = lab.with_trace_dir(dir);
    }
    let session = Session::new(lab);

    let mut stdout = io::stdout().lock();
    for name in EXPERIMENTS {
        if which == name || which == "all" {
            let table =
                render_experiment(&session, &sizes, name).expect("EXPERIMENTS names are known");
            match writeln!(stdout, "{table}").and_then(|()| stdout.flush()) {
                Ok(()) => {}
                // A reader that closes early, as `head` does, ends the
                // run quietly.
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Extracts the experiment name: the first positional argument that
/// is not the value of a `--flag VALUE` pair.
fn positional_experiment(args: &[String]) -> Option<&str> {
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if arg == "--jobs" || arg == "--trace-dir" {
            skip_next = true;
            continue;
        }
        if !arg.starts_with("--") {
            return Some(arg);
        }
    }
    None
}

/// Parses `--trace-dir DIR` (or `--trace-dir=DIR`). `Ok(None)` when
/// absent.
fn parse_trace_dir(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if arg == "--trace-dir" {
            args.get(i + 1).map(String::as_str)
        } else if let Some(v) = arg.strip_prefix("--trace-dir=") {
            Some(v)
        } else {
            continue;
        };
        let Some(value) = value else {
            return Err("--trace-dir requires a directory".to_owned());
        };
        return Ok(Some(std::path::PathBuf::from(value)));
    }
    Ok(None)
}

/// Parses `--jobs N` (or `--jobs=N`). `Ok(None)` when absent.
fn parse_jobs(args: &[String]) -> Result<Option<usize>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if arg == "--jobs" {
            args.get(i + 1).map(String::as_str)
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v)
        } else {
            continue;
        };
        let Some(value) = value else {
            return Err("--jobs requires a value".to_owned());
        };
        return match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("invalid --jobs value `{value}`: expected a positive integer")),
        };
    }
    Ok(None)
}
