//! Simulator-throughput probe: the unit of work that
//! `scripts/ab_bench.sh` alternates between two builds.
//!
//! `throughput_check --probe [--points k1,k2,...]` runs each selected
//! grid point (default: all 12) and prints `key<TAB>cycles/sec`, one
//! line per point. The points are the three EXPERIMENTS.md workloads
//! (ray trace, Livermore K1, the Figure 6 linked-list loop) at 1, 2, 4
//! and 8 thread slots. `--points` also selects Table 3's hybrid shapes
//! `raytrace/d2s4`, `raytrace/d4s2` and `raytrace/d8s1`, which the
//! default leaves out; an unknown key is a usage error (exit status
//! 2) that names it. Each estimate is the fastest of a few short
//! batches of runs; repetition and pairing live in the harness, not
//! here.
//!
//! CI's `perf-gate` job runs the probe built at the merge base with
//! the same arguments as the probe built at the change, so this
//! command line and its output format stay fixed.

use std::time::Instant;

use hirata_bench::{grid, points, GridPoint};
use hirata_sim::Machine;

/// Simulated cycles per wall-clock second at one point: the fastest
/// of three batches of two runs, after one untimed run.
fn cycles_per_sec(point: &GridPoint) -> f64 {
    let run = || {
        let mut m = Machine::new(point.config.clone(), &point.program).expect("machine builds");
        m.run().expect("program runs");
        m.cycles()
    };
    let cycles = run();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..2 {
            run();
        }
        best = best.min(t.elapsed().as_secs_f64() / 2.0);
    }
    cycles as f64 / best
}

fn usage() -> ! {
    eprintln!("usage: throughput_check --probe [--points key1,key2,...]");
    std::process::exit(2)
}

fn main() {
    let mut probe = false;
    let mut keys = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--probe" => probe = true,
            "--points" => keys = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if !probe {
        usage();
    }
    let selected = match keys.as_deref() {
        None => grid(),
        Some(list) => points(&list.split(',').collect::<Vec<_>>()).unwrap_or_else(|e| {
            eprintln!("throughput_check: {e}");
            std::process::exit(2)
        }),
    };
    for point in selected {
        println!("{}\t{:.1}", point.key, cycles_per_sec(&point));
    }
}
