//! Simulator-throughput probe: the unit of work that
//! `scripts/ab_bench.sh` alternates between two builds.
//!
//! `throughput_check --probe [--points k1,k2,...]` runs each selected
//! grid point (default: all 12) and prints `key<TAB>cycles/sec`, one
//! line per point. The points are the three EXPERIMENTS.md workloads
//! (ray trace, Livermore K1, the Figure 6 linked-list loop) at 1, 2, 4
//! and 8 thread slots. Each estimate is the fastest of a few short
//! batches of runs; repetition and pairing live in the harness, not
//! here.
//!
//! CI's `perf-gate` job runs the probe built at the merge base with
//! the same arguments as the probe built at the change, so this
//! command line and its output format stay fixed.

use std::time::Instant;

use hirata_isa::Program;
use hirata_sched::Strategy;
use hirata_sim::{Config, Machine};
use hirata_workloads::linked_list::{eager_program, sequential_program, ListShape};
use hirata_workloads::livermore::kernel1_program;
use hirata_workloads::raytrace::{raytrace_program, RayTraceParams};

struct GridPoint {
    /// Output key, e.g. `raytrace/s4`.
    key: String,
    config: Config,
    program: Program,
}

fn grid() -> Vec<GridPoint> {
    let ray = raytrace_program(&RayTraceParams::default());
    let k1_n = 64;
    let fig6 = ListShape { nodes: 60, break_at: Some(59) };

    let mut points = Vec::new();
    for slots in [1usize, 2, 4, 8] {
        let config = if slots == 1 { Config::base_risc() } else { Config::multithreaded(slots) };
        points.push(GridPoint {
            key: format!("raytrace/s{slots}"),
            config: config.clone(),
            program: ray.clone(),
        });
        // K1 at one slot has no threads to reserve for; use the plain
        // sequential lowering there and the reservation strategy where
        // the machine actually has slots.
        let (k1_prog, fig6_prog) = if slots == 1 {
            (kernel1_program(k1_n, Strategy::None), sequential_program(fig6))
        } else {
            (kernel1_program(k1_n, Strategy::ReservationB { threads: slots }), eager_program(fig6))
        };
        points.push(GridPoint {
            key: format!("livermore-k1/s{slots}"),
            config: config.clone(),
            program: k1_prog,
        });
        points.push(GridPoint { key: format!("fig6-list/s{slots}"), config, program: fig6_prog });
    }
    points
}

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
    let mut points = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--probe" => probe = true,
            "--points" => points = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if !probe {
        usage();
    }
    let keys: Option<Vec<&str>> = points.as_deref().map(|list| list.split(',').collect());
    for point in grid() {
        if keys.as_ref().is_some_and(|keys| !keys.contains(&point.key.as_str())) {
            continue;
        }
        println!("{}\t{:.1}", point.key, cycles_per_sec(&point));
    }
}
