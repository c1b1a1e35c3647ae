//! Batched-stepping contract: round-robin interleaved execution in a
//! [`MachineBatch`] is observationally identical to running each
//! machine to completion on its own — byte-identical statistics for
//! every lane, whatever the stride — and lane failures stay isolated.

use hirata_asm::assemble;
use hirata_isa::{FuConfig, Program};
use hirata_sim::{Config, LaneError, Machine, MachineBatch, MachineError, RunStats};

/// The Figure 6 pointer-chase while loop, shrunk: a genuinely
/// multi-threaded workload with fork/kill and memory traffic.
fn fig6_like() -> Program {
    assemble(
        "
        fastfork
        lpid r1
        mul  r2, r1, r1
        add  r3, r1, r2
        sw   r2, 100(r1)
        sw   r3, 200(r1)
        lw   r4, 100(r1)
        add  r5, r4, r3
        sw   r5, 300(r1)
        halt
    ",
    )
    .expect("assembles")
}

/// The slots x load/store grid the serving daemon sweeps.
fn grid_configs() -> Vec<Config> {
    let mut configs = Vec::new();
    for ls in [1usize, 2] {
        for slots in [1usize, 2, 4, 8] {
            let fu = if ls == 2 { FuConfig::paper_two_ls() } else { FuConfig::paper_one_ls() };
            configs.push(Config::multithreaded(slots).with_fu(fu));
        }
    }
    configs
}

fn solo_stats(program: &Program, config: Config) -> RunStats {
    let mut m = Machine::new(config, program).expect("builds");
    m.run().expect("runs").clone()
}

#[test]
fn batched_stepping_matches_individual_runs() {
    let program = fig6_like();
    let solo: Vec<RunStats> = grid_configs().into_iter().map(|c| solo_stats(&program, c)).collect();

    // Interleaved execution at several strides, including a stride of
    // one cycle (maximal interleaving) and one larger than any run.
    for stride in [1u64, 7, 4096, u64::MAX / 2] {
        let batch = MachineBatch::from_configs(&program, grid_configs()).expect("constructs");
        let results = batch.run_all(stride);
        assert_eq!(results.len(), solo.len());
        for (i, (result, want)) in results.iter().zip(&solo).enumerate() {
            let machine = result.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
            assert_eq!(machine.stats(), want, "lane {i} diverged at stride {stride}");
        }
    }
}

#[test]
fn lanes_join_and_retire_independently() {
    let program = fig6_like();
    let mut batch = MachineBatch::new();
    let a = batch.insert(Machine::new(Config::multithreaded(8), &program).expect("builds"));

    // Step a while, then add a second lane mid-flight.
    batch.step_round(16);
    let b = batch.insert(Machine::new(Config::multithreaded(2), &program).expect("builds"));
    assert_ne!(a, b);

    while batch.step_round(16) > 0 {}
    let mut done = batch.drain_finished();
    done.sort_by_key(|(id, _)| *id);
    assert_eq!(done.len(), 2);
    assert_eq!(
        done[0].1.as_ref().expect("lane a").stats(),
        &solo_stats(&program, Config::multithreaded(8))
    );
    assert_eq!(
        done[1].1.as_ref().expect("lane b").stats(),
        &solo_stats(&program, Config::multithreaded(2))
    );
}

#[test]
fn failing_lane_does_not_poison_siblings() {
    let program = fig6_like();
    // A watchdog-limited infinite loop fails; its sibling completes.
    let looping = assemble("loop: j loop").expect("assembles");
    let mut tight = Config::multithreaded(1);
    tight.max_cycles = 50;

    let mut batch = MachineBatch::new();
    let bad = batch.insert(Machine::new(tight, &looping).expect("builds"));
    let good = batch.insert(Machine::new(Config::multithreaded(4), &program).expect("builds"));

    while batch.step_round(8) > 0 {}
    let done = batch.drain_finished();
    assert_eq!(done.len(), 2);
    for (id, result) in done {
        if id == bad {
            match result {
                Err(LaneError::Machine(MachineError::Watchdog { .. })) => {}
                other => panic!("expected watchdog, got {other:?}"),
            }
        } else {
            assert_eq!(id, good);
            assert_eq!(
                result.expect("sibling completes").stats(),
                &solo_stats(&program, Config::multithreaded(4))
            );
        }
    }
}

#[test]
fn removed_lane_stops_stepping() {
    let program = fig6_like();
    let mut batch = MachineBatch::new();
    let a = batch.insert(Machine::new(Config::multithreaded(2), &program).expect("builds"));
    let b = batch.insert(Machine::new(Config::multithreaded(4), &program).expect("builds"));
    batch.step_round(4);
    let removed = batch.remove(a).expect("still live");
    assert!(removed.cycles() > 0);
    assert_eq!(batch.remove(a).map(|_| ()), None);
    while batch.step_round(64) > 0 {}
    let done = batch.drain_finished();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, b);
}
