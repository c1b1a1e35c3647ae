//! Whole-input `Config` fuzzing: every field drawn at random —
//! including values `Config::validate` must reject — then a short run
//! of every checked-in example and both Figure 6 forms. Each case must
//! end in a completed run, a `ConfigError`, or a typed `MachineError`
//! other than the watchdog (one known cause excepted, see `run_case`);
//! none may panic.
//!
//! Also pins the zero-instance functional-unit contract: an
//! instruction for a class with no instances fails at issue with
//! `MachineError::NoFunctionalUnit` instead of waiting in standby until
//! the watchdog, while a program that never uses the class runs as
//! before.

use hirata_isa::{FuClass, FuConfig, Inst, Program, RotationMode};
use hirata_sim::{Config, Machine, MachineError, PipelineKind, RunStats};
use hirata_workloads::linked_list::{eager_source, sequential_source, ListShape};
use proptest::prelude::*;

/// Every `examples/asm/*.s` program plus both Figure 6 forms.
fn programs() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/asm exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    let mut out: Vec<(String, Program)> = paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).expect("example is readable");
            let program = hirata_asm::assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, program)
        })
        .collect();
    let shape = ListShape { nodes: 24, break_at: Some(17) };
    for (name, src) in
        [("fig6-sequential", sequential_source(shape)), ("fig6-eager", eager_source(shape))]
    {
        out.push((name.to_owned(), hirata_asm::assemble(&src).expect("Figure 6 assembles")));
    }
    out
}

fn flag() -> impl Strategy<Value = bool> {
    prop::sample::select(vec![false, true])
}

/// Mostly small counts, sometimes zero, now and then past the
/// 64-instance cap.
fn fu_count() -> impl Strategy<Value = u8> {
    prop_oneof![30 => 1u8..4, 3 => Just(0u8), 1 => 60u8..70]
}

fn fu_config() -> impl Strategy<Value = FuConfig> {
    prop::collection::vec(fu_count(), FuClass::ALL.len()..FuClass::ALL.len() + 1).prop_map(
        |counts| {
            FuClass::ALL
                .into_iter()
                .zip(counts)
                .fold(FuConfig::paper_one_ls(), |fu, (class, n)| fu.with_count(class, n))
        },
    )
}

fn rotation() -> impl Strategy<Value = RotationMode> {
    prop_oneof![
        12 => (1u32..20).prop_map(|interval| RotationMode::Implicit { interval }),
        1 => Just(RotationMode::Implicit { interval: 0 }),
        4 => Just(RotationMode::Explicit),
    ]
}

/// Slot counts across the whole range, weighted towards the paper's
/// and towards wide machines running one thread.
fn slots() -> impl Strategy<Value = usize> {
    prop_oneof![
        6 => 1usize..9,
        2 => 0usize..71,
        1 => prop::sample::select(vec![63usize, 64, 65]),
    ]
}

/// Mostly values from `valid`, now and then any value from `any`
/// (which may break an invariant `Config::validate` checks).
fn mostly<T: Clone + 'static>(
    valid: impl Strategy<Value = T> + 'static,
    any: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = T> {
    prop_oneof![12 => valid, 1 => any]
}

fn config() -> impl Strategy<Value = Case> {
    let shape = (
        prop_oneof![6 => Just(PipelineKind::Multithreaded), 1 => Just(PipelineKind::BaseRisc)],
        slots(),
        prop_oneof![3 => Just(0usize), 1 => 1usize..6],
        mostly(Just(0usize), 1usize..4),
        mostly(1usize..3, 0usize..6),
        fu_config(),
    );
    let units = (flag(), mostly(1usize..4, 0usize..12), flag(), rotation(), flag(), 0u32..9);
    let memory = (
        mostly(1usize..10, 0usize..1),
        mostly(
            prop::sample::select(vec![1usize << 16, 1 << 20]),
            prop::sample::select(vec![0usize, 1, 256, 4096]),
        ),
        mostly(1u32..4, 0u32..8),
        200_000u64..300_001,
        flag(),
    );
    (shape, units, memory).prop_map(
        |(
            (pipeline, thread_slots, extra_frames, frame_deficit, issue_width, fu),
            (
                standby_stations,
                standby_depth,
                refetch_fallthrough,
                rotation,
                private_fetch,
                switch_penalty,
            ),
            (queue_capacity, mem_words, icache_cycles, max_cycles, stepped),
        )| Case {
            config: Config {
                pipeline,
                thread_slots,
                issue_width,
                fu,
                standby_stations,
                standby_depth,
                refetch_fallthrough,
                rotation,
                private_fetch,
                context_frames: (thread_slots + extra_frames).saturating_sub(frame_deficit),
                switch_penalty,
                queue_capacity,
                mem_words,
                icache_cycles,
                max_cycles,
            },
            stepped,
        },
    )
}

/// One drawn configuration and how to drive it: `run()` (where the
/// event wheel may jump) or a `step()` loop (one cycle per call).
#[derive(Debug, Clone)]
struct Case {
    config: Config,
    stepped: bool,
}

/// Runs `program` on `case.config`; panics (failing the property) on
/// a panic or a watchdog ending.
fn run_case(case: &Case, name: &str, program: &Program) {
    let config = &case.config;
    let outcome = std::panic::catch_unwind(|| {
        let mut machine = Machine::new(config.clone(), program)?;
        if case.stepped {
            while !machine.step()? {}
            Ok(())
        } else {
            machine.run().map(|_| ())
        }
    });
    match outcome {
        Err(_) => panic!("{name} panicked on {config:?}"),
        Ok(Err(err @ MachineError::Watchdog { .. })) => {
            // The one known cause, recorded in ROADMAP item 4: a
            // one-slot queue ring with wide decode can fill the link
            // its own younger instructions would drain.
            let known = config.thread_slots == 1
                && config.issue_width > 1
                && program.insts.iter().any(|i| matches!(i, Inst::QMap { .. }));
            assert!(known, "{name} on {config:?}: {err}");
        }
        Ok(Err(MachineError::Config(_))) => {
            assert!(config.validate().is_err(), "{name}: construction rejected a valid config")
        }
        Ok(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any `Config` either fails validation (and machine construction
    /// with the same error), or runs every program to a result or a
    /// typed, non-watchdog error.
    #[test]
    fn arbitrary_configs_end_in_a_result_or_typed_error(case in config()) {
        let programs = programs();
        match case.config.validate() {
            Err(e) => {
                let built = Machine::new(case.config.clone(), &programs[0].1);
                prop_assert!(matches!(built, Err(MachineError::Config(ref c)) if *c == e));
            }
            Ok(()) => {
                for (name, program) in &programs {
                    run_case(&case, name, program);
                }
            }
        }
    }
}

/// A program that needs every functional-unit class, so zeroing any
/// one of them is observable.
fn every_class_program() -> Program {
    hirata_asm::assemble(
        "
        li   r1, #6
        mul  r2, r1, r1
        sll  r3, r2, #2
        sw   r3, 100(r0)
        lif  f1, #3.0
        lif  f2, #2.0
        fadd f3, f1, f2
        fmul f4, f1, f2
        fdiv f5, f1, f2
        sf   f5, 101(r0)
        halt
    ",
    )
    .expect("assembles")
}

#[test]
fn zeroed_class_in_use_fails_at_issue() {
    let program = every_class_program();
    for class in FuClass::ALL {
        for slots in [1usize, 4] {
            let config =
                Config::multithreaded(slots).with_fu(FuConfig::paper_one_ls().with_count(class, 0));
            config.validate().expect("a zero count is a valid configuration");
            let mut machine = Machine::new(config, &program).expect("builds");
            match machine.run() {
                Err(MachineError::NoFunctionalUnit { slot, pc, class: missing }) => {
                    assert_eq!(missing, class);
                    assert_eq!(slot, 0);
                    let inst = program.insts[pc as usize];
                    assert_eq!(hirata_sim::DecodedInst::of(inst).fu, Some(class), "@{pc}: {inst}");
                    // Fails at the first instruction of the class, long
                    // before any watchdog.
                    assert!(
                        machine.cycles() < 100,
                        "{class}: failed at cycle {}",
                        machine.cycles()
                    );
                }
                other => panic!("{class} zeroed at {slots} slots: {other:?}"),
            }
        }
    }
}

#[test]
fn zeroed_class_out_of_use_changes_nothing() {
    // Integer-only: never touches a floating-point unit.
    let program = hirata_asm::assemble(
        "
        li   r1, #5
        li   r2, #0
    loop:
        add  r2, r2, r1
        sw   r2, 200(r1)
        sub  r1, r1, #1
        bne  r1, #0, loop
        halt
    ",
    )
    .expect("assembles");
    let run = |fu: FuConfig| -> RunStats {
        let mut machine = Machine::new(Config::multithreaded(2).with_fu(fu), &program).unwrap();
        machine.run().expect("runs").clone()
    };
    let full = run(FuConfig::paper_one_ls());
    for class in [FuClass::FpAdd, FuClass::FpMul, FuClass::FpDiv] {
        let zeroed = run(FuConfig::paper_one_ls().with_count(class, 0));
        // Only the instance count itself differs.
        assert_eq!(zeroed.fu_instances[class.index()], 0);
        assert_eq!(RunStats { fu_instances: full.fu_instances, ..zeroed }, full, "{class}");
    }
}
