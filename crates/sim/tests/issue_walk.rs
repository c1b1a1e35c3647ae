//! The issue phase visits the bound slots in one ordered walk per
//! cycle, records each stall where it happens and pushes each
//! functional-unit issue straight into its standby station. These are
//! the walk's edge cases: a visit that changes what a later-ranked slot
//! sees (a queue pop lifting a block, `killothers`, `fastfork`), a
//! fault that ends the phase early, and, at issue widths 2 and 4, a
//! fence (`drain`, `chgpri`) issuing behind a functional-unit op of
//! its own cycle, which already stands in its station by then. Each
//! case pins the whole `RunStats`, stall windows included, for a traced
//! run (every cycle stepped) and an untraced one (the event wheel may
//! jump), and checks in the trace that the edge case happened.

use hirata_sim::{
    Config, Machine, MachineError, RingSink, RunStats, StallBreakdown, StallReason, TraceEvent,
};

/// Runs `src` traced and untraced; both runs must end alike with the
/// same statistics. Returns how the traced run ended, its statistics
/// and its events.
fn run(src: &str, config: Config) -> (Result<(), MachineError>, RunStats, Vec<TraceEvent>) {
    let program = hirata_asm::assemble(src).expect("test program assembles");
    let mut traced = Machine::new(config.clone(), &program).expect("machine builds");
    let sink = RingSink::new(1 << 16);
    traced.attach_trace_sink(Box::new(sink.clone()));
    let ended = traced.run().map(|_| ());
    let mut untraced = Machine::new(config, &program).expect("machine builds");
    assert_eq!(untraced.run().map(|_| ()), ended, "traced and untraced runs end alike");
    assert_eq!(untraced.stats(), traced.stats(), "traced and untraced statistics agree");
    (ended, traced.stats().clone(), sink.events())
}

/// The events of cycle `cycle`, in emission order.
fn at(events: &[TraceEvent], cycle: u64) -> Vec<TraceEvent> {
    events.iter().copied().filter(|e| e.cycle() == cycle).collect()
}

/// The first cycle at which `slot` issues the instruction at `pc`.
fn issue_cycle(events: &[TraceEvent], slot: usize, pc: u32) -> u64 {
    events
        .iter()
        .find_map(|e| match *e {
            TraceEvent::Issue { cycle, slot: s, pc: p, .. } if (s, p) == (slot, pc) => Some(cycle),
            _ => None,
        })
        .unwrap_or_else(|| panic!("slot {slot} never issues pc {pc}"))
}

fn stall(cycle: u64, slot: usize, reason: StallReason, pc: Option<u32>) -> TraceEvent {
    TraceEvent::Stall { cycle, slot, reason, pc }
}

/// The writer (slot 0) holds a `QueueFull` block on its one-entry link
/// until the consumer (slot 1), ranked first since the writer's
/// `chgpri`, pops it: the walk reaches the writer after the pop, finds
/// the block lifted and issues the write in the same cycle.
#[test]
fn a_pop_by_an_earlier_rank_lets_a_blocked_writer_issue_that_cycle() {
    let src = "
        setrot explicit
        qmap r10, r11
        lif  f1, #5.0
        fastfork
        lpid r1
        bne  r1, #0, consumer
        chgpri               ; the consumer's slot takes the highest priority
        li   r5, #1
        add  r11, r5, #4     ; fills the one-entry link
        add  r11, r5, #9     ; QueueFull until the consumer pops
        halt
    consumer:
        fdiv f1, f1, f1
        cvtfi r3, f1         ; 1, after the divide
        add  r22, r10, r3    ; the first pop: 5 + 1
        add  r23, r10, r22   ; 10 + 6
        sw   r23, 320(r0)
        halt
    ";
    let mut config = Config::multithreaded(2);
    config.queue_capacity = 1;
    let (ended, stats, events) = run(src, config);
    assert_eq!(ended, Ok(()));
    let pop = issue_cycle(&events, 1, 13);
    assert!(at(&events, pop - 1).contains(&stall(pop - 1, 0, StallReason::QueueFull, Some(9))));
    let cycle = at(&events, pop);
    let popped = cycle.iter().position(|e| matches!(e, TraceEvent::QueuePop { slot: 1, .. }));
    let wrote = cycle.iter().position(|e| matches!(e, TraceEvent::Issue { slot: 0, pc: 9, .. }));
    assert!(popped.is_some() && popped < wrote, "the writer issues after the pop: {cycle:?}");
    assert_eq!(
        stats,
        RunStats {
            cycles: 58,
            instructions: 19,
            per_slot_issued: vec![11, 8],
            fu_invocations: [7, 0, 0, 2, 0, 1, 1],
            fu_busy: [7, 0, 0, 2, 0, 1, 2],
            fu_instances: [1, 1, 1, 1, 1, 1, 1],
            stalls: StallBreakdown::from_counts([17, 10, 8, 34, 0, 0, 3, 25]),
            stall_windows: vec![[17, 10, 8, 34, 0, 0, 3, 25]],
            context_switches: 0,
            threads_killed: 0,
            rotations: 1,
        }
    );
}

/// Slot 0, ranked first, kills the three spinning slots ranked after
/// it: from the `killothers` cycle on they are unbound, so the walk
/// counts them NoThread that very cycle.
#[test]
fn after_killothers_the_later_ranks_are_idle_that_cycle() {
    let src = "
        setrot explicit
        fastfork
        lpid r1
        beq  r1, #0, killer
        li   r3, #40
    spin:
        sub  r3, r3, #1
        bne  r3, #0, spin
        sw   r3, 600(r1)
        halt
    killer:
        li   r4, #6
    wait:
        sub  r4, r4, #1
        bne  r4, #0, wait
        killothers
        li   r2, #1
        sw   r2, 600(r0)
        halt
    ";
    let (ended, stats, events) = run(src, Config::multithreaded(4));
    assert_eq!(ended, Ok(()));
    let kill = issue_cycle(&events, 0, 12);
    let before = at(&events, kill - 1);
    assert!(before.iter().any(|e| matches!(e, TraceEvent::Issue { slot: 2, .. })));
    let cycle = at(&events, kill);
    for slot in 1..4 {
        assert!(cycle.contains(&stall(kill, slot, StallReason::NoThread, None)), "{cycle:?}");
    }
    assert_eq!(
        stats,
        RunStats {
            cycles: 75,
            instructions: 65,
            per_slot_issued: vec![21, 15, 15, 14],
            fu_invocations: [33, 0, 0, 0, 0, 0, 1],
            fu_busy: [33, 0, 0, 0, 0, 0, 2],
            fu_instances: [1, 1, 1, 1, 1, 1, 1],
            stalls: StallBreakdown::from_counts([36, 76, 58, 65, 0, 0, 0, 0]),
            stall_windows: vec![[36, 76, 58, 65, 0, 0, 0, 0]],
            context_switches: 0,
            threads_killed: 3,
            rotations: 0,
        }
    );
}

/// Four slots: slot 0 waits on a divide chain, slot 1 has halted, and
/// slot 2, ranked after both, faults. The phase ends at the fault with
/// the cycle's stalls of the earlier ranks (slot 0's `Data`, slot 1's
/// NoThread) counted and none of the later ones.
#[test]
fn a_fault_at_a_later_rank_keeps_the_earlier_ranks_stalls() {
    let prologue = "
        setrot explicit
        lif  f1, #5.0
        fastfork
        lpid r1
        beq  r1, #0, divide
        beq  r1, #1, quit
        beq  r1, #2, fault
        li   r3, #30
    spin:
        sub  r3, r3, #1
        bne  r3, #0, spin
        halt
    divide:
        fdiv f1, f1, f1
        fdiv f1, f1, f1
        fdiv f1, f1, f1
        fdiv f1, f1, f1
        fdiv f1, f1, f1
        halt
    quit:
        halt
    fault:
        li   r4, #3
    again:
        sub  r4, r4, #1
        bne  r4, #0, again
    ";
    let off_the_end = format!("{prologue}    add r5, r4, #1 ; the program's last instruction\n");
    let misuse = format!("{prologue}    qmap r10, r11\n    add r5, r11, #1\n    halt\n");
    let faults = [
        (off_the_end, MachineError::PcOutOfRange { slot: 2, pc: 22 }, 13),
        (
            misuse,
            MachineError::QueueMisuse {
                slot: 2,
                pc: 22,
                detail: "read of write-mapped queue register r11".into(),
            },
            12,
        ),
    ];
    for (src, fault, int_alu) in faults {
        let (ended, stats, events) = run(&src, Config::multithreaded(4));
        assert_eq!(ended, Err(fault));
        let last = at(&events, 65);
        assert_eq!(
            last,
            [stall(65, 0, StallReason::Data, Some(14)), stall(65, 1, StallReason::NoThread, None)]
        );
        assert_eq!(
            stats,
            RunStats {
                cycles: 65,
                instructions: 35,
                per_slot_issued: vec![8, 4, 12, 11],
                fu_invocations: [int_alu, 0, 0, 1, 0, 3, 0],
                fu_busy: [int_alu, 0, 0, 1, 0, 3, 0],
                fu_instances: [1, 1, 1, 1, 1, 1, 1],
                stalls: StallBreakdown::from_counts([64, 57, 37, 69, 0, 0, 0, 0]),
                stall_windows: vec![[64, 57, 37, 69, 0, 0, 0, 0]],
                context_switches: 0,
                threads_killed: 0,
                rotations: 0,
            }
        );
    }
}

/// Slot 0's `fastfork` binds slots 1–3, ranked after it: the walk
/// visits them in the fork's own cycle, where each starts fetch
/// starved, waiting for its first fetch.
#[test]
fn after_fastfork_the_children_stall_on_fetch_that_cycle() {
    let src = "
        li   r2, #7
        fastfork
        lpid r1
        add  r3, r1, r2
        sw   r3, 700(r1)
        halt
    ";
    let (ended, stats, events) = run(src, Config::multithreaded(4));
    assert_eq!(ended, Ok(()));
    let fork = issue_cycle(&events, 0, 1);
    let before = at(&events, fork - 1);
    for slot in 1..4 {
        assert!(before.contains(&stall(fork - 1, slot, StallReason::NoThread, None)));
        assert!(at(&events, fork).contains(&stall(fork, slot, StallReason::Fetch, Some(2))));
    }
    assert_eq!(
        stats,
        RunStats {
            cycles: 25,
            instructions: 18,
            per_slot_issued: vec![6, 4, 4, 4],
            fu_invocations: [9, 0, 0, 0, 0, 0, 4],
            fu_busy: [9, 0, 0, 0, 0, 0, 8],
            fu_instances: [1, 1, 1, 1, 1, 1, 1],
            stalls: StallBreakdown::from_counts([38, 18, 8, 18, 0, 0, 0, 0]),
            stall_windows: vec![[38, 18, 8, 18, 0, 0, 0, 0]],
            context_switches: 0,
            threads_killed: 0,
            rotations: 2,
        }
    );
}

/// Slot 0's issues, as `(pc, cycle)` in issue order.
fn issues(events: &[TraceEvent]) -> Vec<(u32, u64)> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Issue { cycle, slot: 0, pc, .. } => Some((pc, cycle)),
            _ => None,
        })
        .collect()
}

/// Runs `src` on one slot of issue width `width`; it must end cleanly.
fn run_wide(src: &str, width: usize) -> (RunStats, Vec<(u32, u64)>) {
    let mut config = Config::multithreaded(1);
    config.issue_width = width;
    let (ended, stats, events) = run(src, config);
    assert_eq!(ended, Ok(()), "width {width}");
    (stats, issues(&events))
}

/// The statistics of a one-slot run with the paper's seven units, its
/// stalls all in the first window.
fn one_slot_stats(
    cycles: u64,
    instructions: u64,
    [fu_invocations, fu_busy]: [[u64; 7]; 2],
    stalls: [u64; 8],
    rotations: u64,
) -> RunStats {
    RunStats {
        cycles,
        instructions,
        per_slot_issued: vec![instructions],
        fu_invocations,
        fu_busy,
        fu_instances: [1; 7],
        stalls: StallBreakdown::from_counts(stalls),
        stall_windows: vec![stalls],
        context_switches: 0,
        threads_killed: 0,
        rotations,
    }
}

/// At issue width 2 and 4 the `add` and the `drain` behind it issue in
/// one cycle: the fence waits only for what its slot had standing by
/// before that cycle, not for the `add` issued beside it.
#[test]
fn at_width_2_and_4_drain_issues_beside_the_op_ahead_of_it() {
    let src = "add r2, r0, #1\ndrain\nadd r3, r0, #2\nhalt";
    for width in [2, 4] {
        let (stats, issued) = run_wide(src, width);
        assert_eq!(issued, [(0, 5), (1, 5), (2, 6), (3, 6)], "width {width}");
        assert_eq!(
            stats,
            one_slot_stats(7, 4, [[2, 0, 0, 0, 0, 0, 0]; 2], [0, 3, 2, 0, 0, 0, 0, 0], 0),
            "width {width}"
        );
    }
}

/// At issue width 2 and 4 the gated `swp` and the `chgpri` behind it
/// issue in one cycle: `chgpri` waits only for gated stores standing by
/// from earlier cycles, not for the `swp` issued beside it.
#[test]
fn at_width_2_and_4_chgpri_issues_beside_the_gated_store_ahead_of_it() {
    let src = "setrot explicit\nli r2, #7\nswp r2, 500(r0)\nchgpri\nli r3, #1\nhalt";
    let cases = [
        (2, [(0, 5), (1, 5), (2, 8), (3, 8), (4, 9), (5, 9)], 10),
        (4, [(0, 5), (1, 5), (2, 8), (3, 8), (4, 8), (5, 8)], 9),
    ];
    for (width, expected, cycles) in cases {
        let (stats, issued) = run_wide(src, width);
        assert_eq!(issued, expected, "width {width}");
        assert_eq!(
            stats,
            one_slot_stats(
                cycles,
                6,
                [[2, 0, 0, 0, 0, 0, 1], [2, 0, 0, 0, 0, 0, 2]],
                [0, 3, 2, 2, 0, 0, 0, 0],
                1
            ),
            "width {width}"
        );
    }
}
