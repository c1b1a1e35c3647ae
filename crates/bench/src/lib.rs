//! Home of the simulator-throughput probe,
//! `examples/throughput_check.rs`, and of the grid points it times.
//! `scripts/ab_bench.sh` runs the probe built from two trees in
//! alternating rounds, and CI's `perf-gate` job pairs the merge base
//! against the change that way. The sampling profiler,
//! `examples/sample_profile.rs`, runs the same points, all of them or
//! one. Both select points by key through [`points`], which also
//! knows Table 3's hybrid shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hirata_isa::Program;
use hirata_sched::Strategy;
use hirata_sim::Config;
use hirata_workloads::linked_list::{eager_program, sequential_program, ListShape};
use hirata_workloads::livermore::kernel1_program;
use hirata_workloads::raytrace::{raytrace_program, RayTraceParams};

/// One point of the perf gate's grid: a program on a machine.
pub struct GridPoint {
    /// Output key, e.g. `raytrace/s4`.
    pub key: String,
    /// The machine.
    pub config: Config,
    /// The program it runs.
    pub program: Program,
}

/// The perf gate's twelve points: the three EXPERIMENTS.md workloads
/// (ray trace, Livermore K1, the Figure 6 linked-list loop) at 1, 2, 4
/// and 8 thread slots.
pub fn grid() -> Vec<GridPoint> {
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

/// Table 3's hybrid shapes at a budget of eight on the ray tracer:
/// (D,S) = (2,4), (4,2) and (8,1), keyed `raytrace/d2s4` and so on.
/// They fill a D-wide decode window every cycle, which the D = 1 grid
/// never does. Selectable by key, but outside the gate's default
/// twelve.
fn hybrid_points() -> Vec<GridPoint> {
    let ray = raytrace_program(&RayTraceParams::default());
    [(2, 4), (4, 2), (8, 1)]
        .into_iter()
        .map(|(width, slots)| GridPoint {
            key: format!("raytrace/d{width}s{slots}"),
            config: Config::hybrid(width, slots),
            program: ray.clone(),
        })
        .collect()
}

/// The grid points and hybrid shapes whose keys are in `keys`, in
/// grid order, hybrids last.
///
/// # Errors
///
/// Names every key that matches no point, so a typo ends in a usage
/// error rather than an empty selection.
pub fn points(keys: &[&str]) -> Result<Vec<GridPoint>, String> {
    let all: Vec<GridPoint> = grid().into_iter().chain(hybrid_points()).collect();
    let unknown: Vec<&str> =
        keys.iter().copied().filter(|&key| !all.iter().any(|point| point.key == key)).collect();
    if !unknown.is_empty() {
        return Err(format!("unknown point key(s): {}", unknown.join(", ")));
    }
    Ok(all.into_iter().filter(|point| keys.contains(&&*point.key)).collect())
}

#[cfg(test)]
mod tests {
    use super::points;

    #[test]
    fn points_come_in_grid_order_and_unknown_keys_are_errors() {
        let keys = |selected: &[&str]| match points(selected) {
            Ok(points) => Ok(points.into_iter().map(|point| point.key).collect::<Vec<_>>()),
            Err(e) => Err(e),
        };
        assert_eq!(
            keys(&["raytrace/d8s1", "fig6-list/s2", "raytrace/s1"]),
            Ok(vec!["raytrace/s1".into(), "fig6-list/s2".into(), "raytrace/d8s1".into()])
        );
        assert_eq!(
            keys(&["raytrace/s1", "no/such-key", ""]),
            Err("unknown point key(s): no/such-key, ".into())
        );
    }
}
