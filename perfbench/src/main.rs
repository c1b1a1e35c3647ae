//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernel|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Work stores live under
//! `target/perfbench/` and are removed at exit; a traced run leaves its
//! spans there as JSON lines. The last line of stdout is the result
//! object; the exit code is non-zero if any op failed.

use std::path::PathBuf;
use std::process::ExitCode;

use hirata_perfbench::{metrics, round_count, run, Golden, Options, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, DEFAULT_SEED, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload kernel|serve [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from("target").join("perfbench");
    let work_dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    // `Lab::new()` opens the default store before the benchmark swaps
    // in its own; keep that default inside the work directory too.
    std::env::set_var("HIRATA_LAB_CACHE", work_dir.join("lab-default"));

    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        rounds: round_count(args.workload, args.seconds),
        ops: args.workload.ops_per_round(),
        traced: args.traced,
        work_dir: work_dir.clone(),
        golden: Golden::recorded(),
    };
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let path = root.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} failed; host times scaled by {:.4}",
        args.workload.name(),
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.host_scale
    );
    println!("{}", metrics::result_line(&outcome, args.traced));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
