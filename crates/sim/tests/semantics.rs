//! Architectural-semantics tests: forking, queue registers, priority
//! interlocks, eager-execution primitives, context switching, hybrids,
//! and machine checks.

use hirata_asm::assemble;
use hirata_isa::{GReg, Program, RotationMode};
use hirata_mem::DsmMemory;
use hirata_sim::{
    Config, Emulator, Machine, MachineError, RingSink, StallReason, StuckSlot, TraceEvent,
};

fn run(config: Config, src: &str) -> Machine {
    let prog = assemble(src).expect("test program assembles");
    let mut m = Machine::new(config, &prog).expect("machine builds");
    m.run().expect("program runs");
    m
}

fn g(n: u8) -> GReg {
    GReg(n)
}

#[test]
fn fastfork_spawns_one_thread_per_slot_with_unique_lpids() {
    let m = run(Config::multithreaded(4), "fastfork\nlpid r1\nnlp r2\nsw r1, 100(r1)\nhalt");
    for lp in 0..4 {
        assert_eq!(m.memory().read_i64(100 + lp).unwrap(), lp as i64);
    }
}

#[test]
fn fork_copies_parent_registers() {
    let m = run(
        Config::multithreaded(2),
        "li r5, #77\nnop\nnop\nfastfork\nlpid r1\nsw r5, 200(r1)\nhalt",
    );
    assert_eq!(m.memory().read_i64(200).unwrap(), 77);
    assert_eq!(m.memory().read_i64(201).unwrap(), 77);
}

#[test]
fn nlp_reports_machine_width() {
    for slots in [1usize, 2, 4, 8] {
        let m = run(Config::multithreaded(slots), "nlp r1\nsw r1, 50(r0)\nhalt");
        assert_eq!(m.memory().read_i64(50).unwrap(), slots as i64);
    }
}

#[test]
fn strided_work_partition_matches_sequential_result() {
    // Each thread sums its strided share of 1..=20 into mem[300+lpid];
    // total must equal 210 regardless of machine width.
    let src = "
        fastfork
        lpid r1
        nlp  r2
        li   r3, #0         ; accumulator
        add  r4, r1, #1     ; k = lpid + 1
    loop:
        sle  r5, r4, #20
        beq  r5, #0, done
        add  r3, r3, r4
        add  r4, r4, r2
        j    loop
    done:
        sw   r3, 300(r1)
        halt
    ";
    for slots in [1usize, 2, 4] {
        let m = run(Config::multithreaded(slots), src);
        let total: i64 = (0..slots).map(|lp| m.memory().read_i64(300 + lp as u64).unwrap()).sum();
        assert_eq!(total, 210, "{slots} slots");
    }
}

#[test]
fn queue_registers_pass_values_around_the_ring() {
    // Thread 0 sends 41+1 to thread 1; thread 1 adds 1 and stores.
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        bne  r1, #0, consumer
        li   r11, #41       ; producer: enqueue 41
        halt
    consumer:
        add  r2, r10, #1    ; dequeue + 1
        sw   r2, 400(r0)
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(400).unwrap(), 42);
}

#[test]
fn queue_consumer_blocks_until_data_arrives() {
    // The consumer reaches its dequeue long before the producer
    // enqueues; correctness must not depend on arrival order.
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        beq  r1, #0, producer
        add  r2, r10, #0
        sw   r2, 410(r0)
        halt
    producer:
        li   r3, #30        ; dawdle before producing
    spin:
        sub  r3, r3, #1
        bne  r3, #0, spin
        li   r11, #7
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(410).unwrap(), 7);
}

#[test]
fn queue_fifo_order_is_preserved() {
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        bne  r1, #0, consumer
        li   r11, #1
        li   r11, #2
        li   r11, #3
        halt
    consumer:
        add  r2, r10, #0
        add  r3, r10, #0
        add  r4, r10, #0
        sw   r2, 420(r0)
        sw   r3, 421(r0)
        sw   r4, 422(r0)
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(420).unwrap(), 1);
    assert_eq!(m.memory().read_i64(421).unwrap(), 2);
    assert_eq!(m.memory().read_i64(422).unwrap(), 3);
}

/// A writer blocked on a full link, with nothing of its own in flight,
/// is freed by the consumer's pop alone: no writeback, standby pop or
/// queue push reaches the writer's slot meanwhile. The consumer
/// delays its first pop behind a divide chain, so the writer holds its
/// `QueueFull` block for dozens of cycles.
#[test]
fn only_the_consumers_pop_frees_a_writer_blocked_on_a_full_link() {
    let src = "
        qmap r10, r11
        lif  f1, #5.0
        fastfork
        lpid r1
        bne  r1, #0, consumer
        li   r5, #1
        add  r11, r5, #4     ; fills the one-entry link
        add  r11, r5, #9     ; QueueFull until the consumer pops
        halt
    consumer:
        fdiv f1, f1, f1
        fdiv f1, f1, f1
        cvtfi r3, f1         ; 1, after two dependent divides
        add  r22, r10, r3    ; the first pop: 5 + 1
        add  r23, r10, r22   ; 10 + 6
        sw   r23, 320(r0)
        halt
    ";
    let mut config = Config::multithreaded(2);
    config.queue_capacity = 1;
    config.max_cycles = 10_000;
    let m = run(config, src);
    assert_eq!(m.memory().read_i64(320).unwrap(), 16);
    let full = m.stats().stalls.count(StallReason::QueueFull);
    assert!(full >= 30, "the writer waited only {full} cycles on the full link");
}

/// A trapped slot's non-memory standby entry writes back after its
/// context has resumed on another slot, and that writeback is what
/// frees the new slot's `Data` block on the entry's destination. LP 0
/// keeps the one FP multiplier busy every cycle at the highest
/// priority, so LP 1's `fmul` waits in standby while LP 1's remote
/// load traps; LP 2 halted at once, so the woken context binds to slot
/// 2, and its `fadd` blocks on `f7` until LP 0 halts and the `fmul`
/// finally wins the multiplier.
#[test]
fn a_trapped_slots_standby_result_frees_its_context_on_another_slot() {
    let mut hog = String::new();
    for i in 0..60 {
        hog.push_str(&format!("        fmul f{}, f1, f1\n", 10 + i % 10));
    }
    let src = format!(
        "
        lif  f1, #3.0
        fastfork
        lpid r1
        beq  r1, #0, hog
        beq  r1, #2, idle
        fmul f7, f1, f1      ; @5: waits in standby behind LP 0
        lw   r8, 5000(r0)    ; remote: traps, switching the context out
        fadd f9, f7, f1      ; resumes on slot 2, blocked on f7
        sf   f9, 900(r0)
        halt
    idle:
        halt
    hog:
{hog}        halt
    "
    );
    let prog = assemble(&src).unwrap();
    let mut config = Config::multithreaded(3);
    config.rotation = RotationMode::Implicit { interval: 256 };
    config.private_fetch = true;
    config.mem_words = 1 << 16;
    config.max_cycles = 10_000;
    let mut m =
        Machine::with_mem_model(config, &prog, Box::new(DsmMemory::new(4096, 2, 4))).unwrap();
    let ring = RingSink::new(1 << 16);
    m.attach_trace_sink(Box::new(ring.clone()));
    m.run().expect("program runs");
    assert_eq!(m.stats().context_switches, 1);
    assert_eq!(f64::from_bits(m.memory().read(900).unwrap()), 12.0);
    // LP 1's context resumed on slot 2 and stalled there on `f7`
    // before the `fmul` left slot 1's station.
    let events = ring.events();
    let resumed = events
        .iter()
        .find_map(|e| match *e {
            TraceEvent::ThreadBind { cycle, slot: 2, ctx: 1, .. } => Some(cycle),
            _ => None,
        })
        .expect("LP 1's context resumes on slot 2");
    let fmul_done = events
        .iter()
        .find_map(|e| match *e {
            TraceEvent::Writeback { cycle, slot: 1, ctx: 1, pc: 5, .. } => Some(cycle),
            _ => None,
        })
        .expect("the fmul writes back from slot 1");
    assert!(resumed < fmul_done, "bound at {resumed}, fmul wrote back at {fmul_done}");
    let stalled_on_f7 = events.iter().any(|e| {
        matches!(*e, TraceEvent::Stall { cycle, slot: 2, reason: StallReason::Data, .. }
            if cycle > resumed && cycle < fmul_done)
    });
    assert!(stalled_on_f7, "slot 2 must wait on the fmul's result");
}

/// An instruction that names the read-mapped queue register in both
/// source slots pops one entry and reads it into both: an ALU op
/// (`add`) and a decode-unit branch (`beq`) alike. Of the producer's
/// three entries one stays queued, and the machine agrees with the
/// emulator on registers, memory and queue depths, at issue widths 1
/// and 2.
#[test]
fn both_slots_naming_the_queue_register_pop_one_entry() {
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        bne  r1, #0, consumer
        li   r11, #5
        li   r11, #7
        li   r11, #9
        halt
    consumer:
        add  r2, r10, r10    ; pops 5
        beq  r10, r10, taken ; pops 7, equal to itself
        li   r3, #1
    taken:
        sw   r2, 400(r0)
        halt
    ";
    let prog = assemble(src).unwrap();
    let golden = Emulator::execute(&prog, 2, 1 << 20, 10_000).expect("emulator runs");
    for config in [Config::multithreaded(2), Config::hybrid(2, 2)] {
        let width = config.issue_width;
        let mut m = Machine::new(config, &prog).unwrap();
        m.run().expect("program runs");
        assert_eq!((m.reg_g(1, g(2)), m.reg_g(1, g(3))), (10, 0), "width {width}");
        assert_eq!(m.queue_depths(), [0, 1], "width {width}: one entry left");
        assert_eq!(m.queue_depths(), golden.queue_depths, "width {width}");
        assert_eq!(m.memory().read_i64(400).unwrap(), 10, "width {width}");
        assert!(*m.memory() == golden.memory, "width {width}: memory differs from the emulator's");
        for ctx in 0..2 {
            assert_eq!(m.register_image(ctx), golden.regs[ctx], "width {width}, context {ctx}");
        }
    }
}

#[test]
fn chgpri_serializes_gated_stores_round_robin() {
    // Gated stores to one location, turns handed over with chgpri:
    // the stores must land in 1, 2, 3, 4 order, so 4 survives.
    let src = "
        setrot explicit
        fastfork
        lpid r1
        bne  r1, #0, second
        li   r2, #1
        swp  r2, 500(r0)
        chgpri
        li   r2, #3
        swp  r2, 500(r0)
        chgpri
        halt
    second:
        li   r2, #2
        swp  r2, 500(r0)
        chgpri
        li   r2, #4
        swp  r2, 500(r0)
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(500).unwrap(), 4);
    assert_eq!(m.stats().rotations, 3);
}

#[test]
fn killothers_stops_other_threads() {
    // Thread 0 kills the others before they can store.
    let src = "
        setrot explicit
        fastfork
        lpid r1
        beq  r1, #0, killer
        li   r3, #60         ; victims dawdle, then would store
    spin:
        sub  r3, r3, #1
        bne  r3, #0, spin
        li   r2, #1
        sw   r2, 600(r1)
        halt
    killer:
        killothers
        li   r2, #1
        sw   r2, 600(r0)
        halt
    ";
    let m = run(Config::multithreaded(4), src);
    assert_eq!(m.memory().read_i64(600).unwrap(), 1);
    for lp in 1..4 {
        assert_eq!(m.memory().read_i64(600 + lp).unwrap(), 0, "thread {lp} must die");
    }
    assert_eq!(m.stats().threads_killed, 3);
}

#[test]
fn gated_store_waits_for_highest_priority() {
    // In explicit mode, thread 1's gated store cannot land before
    // thread 0 rotates priority to it; thread 0 stores first.
    let src = "
        setrot explicit
        fastfork
        lpid r1
        bne  r1, #0, second
        li   r2, #10
        swp  r2, 700(r0)     ; highest priority: lands immediately
        chgpri               ; hand over priority
        halt
    second:
        lw   r3, 700(r0)     ; will be 10 only if ordering held...
        li   r2, #20
        swp  r2, 701(r0)     ; interlocked until priority arrives
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(701).unwrap(), 20);
    assert_eq!(m.memory().read_i64(700).unwrap(), 10);
}

#[test]
fn concurrent_multithreading_hides_remote_latency() {
    // Two threads each chase remote data; with 2 context frames and 1
    // slot, the data-absence trap lets them overlap.
    let src = "
        lpid r1
        mul  r2, r1, #8
        lw   r3, 5000(r2)    ; remote: traps and switches context
        add  r4, r3, #1
        sw   r4, 800(r1)
        halt
    ";
    let prog = assemble(src).unwrap();
    let mut config = Config::multithreaded(1).with_context_frames(2);
    config.mem_words = 1 << 16;
    let mut m =
        Machine::with_mem_model(config, &prog, Box::new(DsmMemory::new(4096, 2, 200))).unwrap();
    // Seed remote data and add the second thread.
    m.add_thread(0).unwrap();
    m.run().unwrap();
    assert_eq!(m.stats().context_switches, 2);
    assert_eq!(m.memory().read_i64(800).unwrap(), 1); // 0 + 1
    assert_eq!(m.memory().read_i64(801).unwrap(), 1);
    assert!(m.mem_stats().absences >= 2);
}

#[test]
fn context_switch_overlap_beats_serial_waiting() {
    // With one context frame the thread just waits out each remote
    // access; a second frame lets another thread run meanwhile.
    let src = "
        lpid r1
        lw   r3, 5000(r1)
        lw   r4, 5100(r1)
        add  r5, r3, r4
        sw   r5, 810(r1)
        halt
    ";
    let prog = assemble(src).unwrap();
    let mk = |frames: usize, threads: usize| {
        let mut config = Config::multithreaded(1).with_context_frames(frames);
        config.mem_words = 1 << 16;
        let mut m =
            Machine::with_mem_model(config, &prog, Box::new(DsmMemory::new(4096, 2, 300))).unwrap();
        for _ in 1..threads {
            m.add_thread(0).unwrap();
        }
        m.run().unwrap();
        m.stats().cycles
    };
    let serial_two = 2 * mk(1, 1);
    let overlapped_two = mk(2, 2);
    assert!(
        overlapped_two < serial_two * 9 / 10,
        "context switching should overlap remote waits: {overlapped_two} vs {serial_two}"
    );
}

#[test]
fn superscalar_width_issues_independent_ops_together() {
    let src = "
        li r1, #1
        li r2, #2
        li r3, #3
        li r4, #4
        sll r5, r1, #1
        lw  r6, 10(r0)
        halt
    ";
    let narrow = run(Config::hybrid(1, 1), src).stats().cycles;
    let wide = run(Config::hybrid(4, 1), src).stats().cycles;
    assert!(wide < narrow, "4-wide issue must beat 1-wide on independent code");
}

#[test]
fn superscalar_respects_dependences() {
    // A fully serial chain gains nothing from width.
    let src = "
        li r1, #1
        add r1, r1, #1
        add r1, r1, #1
        add r1, r1, #1
        halt
    ";
    let narrow = run(Config::hybrid(1, 1), src);
    let wide = run(Config::hybrid(4, 1), src);
    assert_eq!(narrow.reg_g(0, g(1)), 4);
    assert_eq!(wide.reg_g(0, g(1)), 4);
    // Width cannot shorten the dependence chain itself; at most the
    // final (independent) halt co-issues from the window.
    let (n, w) = (narrow.stats().cycles, wide.stats().cycles);
    assert!(w <= n && n - w <= 1, "serial chain must not speed up: {n} vs {w}");
}

#[test]
fn architectural_results_identical_across_configs() {
    // The same single-thread program produces identical memory and
    // registers on every machine shape (timing differs, results not).
    let src = "
        li   r1, #7
        mul  r2, r1, r1
        cvtif f1, r2
        fadd f2, f1, f1
        lif  f3, #0.5
        fmul f4, f2, f3
        cvtfi r3, f4
        sw   r3, 900(r0)
        sra  r4, r2, #2
        xor  r5, r4, r1
        sw   r5, 901(r0)
        halt
    ";
    let configs = [
        Config::base_risc(),
        Config::multithreaded(1),
        Config::multithreaded(4),
        Config::hybrid(2, 2),
        Config::multithreaded(2).with_standby(false),
        Config::multithreaded(2).with_private_fetch(true),
    ];
    for config in configs {
        let m = run(config.clone(), src);
        assert_eq!(m.memory().read_i64(900).unwrap(), 49, "{config:?}");
        assert_eq!(m.memory().read_i64(901).unwrap(), 12 ^ 7, "{config:?}");
    }
}

#[test]
fn data_image_loads_before_execution() {
    let src = "
        .data
        v: .word 11, 22, 33
        .text
        lw r1, v(r0)
        lw r2, 1(r0)
        add r3, r1, r2
        sw r3, 10(r0)
        halt
    ";
    let m = run(Config::base_risc(), src);
    assert_eq!(m.memory().read_i64(10).unwrap(), 33);
}

// ---------------------------------------------------------------------
// Machine checks
// ---------------------------------------------------------------------

fn run_err(config: Config, src: &str) -> MachineError {
    let prog = assemble(src).unwrap();
    let mut m = Machine::new(config, &prog).unwrap();
    m.run().expect_err("run must fail")
}

#[test]
fn watchdog_catches_infinite_loops() {
    let mut config = Config::base_risc();
    config.max_cycles = 10_000;
    let err = run_err(config, "loop: j loop");
    assert!(matches!(err, MachineError::Watchdog { cycles: 10_000, .. }), "{err:?}");
}

#[test]
fn watchdog_catches_queue_deadlock() {
    // Reading an empty queue with no producer interlocks forever.
    let mut config = Config::multithreaded(2);
    config.max_cycles = 10_000;
    let err = run_err(config, "qmap r10, r11\nadd r1, r10, #0\nhalt");
    assert!(matches!(err, MachineError::Watchdog { .. }));
}

/// The watchdog names what is stuck: here the consumer of a queue link
/// whose producer halted without sending, read from the slot's block
/// at single-issue decode and from one evaluation of its head at wider
/// decode, where no block is held.
#[test]
fn watchdog_names_the_slot_waiting_on_an_empty_queue() {
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        bne  r1, #0, consumer
        halt
    consumer:
        add  r2, r10, #0
        halt
    ";
    for width in [1, 2] {
        let mut config = Config::multithreaded(2);
        config.issue_width = width;
        config.max_cycles = 10_000;
        let err = run_err(config, src);
        let MachineError::Watchdog { cycles, slots } = &err else {
            panic!("width {width}: {err:?}");
        };
        assert_eq!(*cycles, 10_000);
        let stuck =
            StuckSlot { slot: 1, reason: Some(StallReason::QueueEmpty), pc: Some(5), wake: None };
        assert_eq!(slots, &vec![stuck], "width {width}");
        assert!(
            err.to_string().ends_with(": slot 1 @5 queue-empty until an event"),
            "width {width}: {err}"
        );
    }
}

#[test]
fn running_off_the_end_is_a_machine_check() {
    let err = run_err(Config::base_risc(), "nop\nnop");
    assert!(matches!(err, MachineError::PcOutOfRange { .. }), "{err:?}");
}

#[test]
fn memory_fault_reports_pc() {
    let mut config = Config::base_risc();
    config.mem_words = 16;
    let err = run_err(config, "li r1, #1000\nnop\nnop\nlw r2, 0(r1)\nhalt");
    match err {
        MachineError::Mem { pc, .. } => assert_eq!(pc, 3),
        other => panic!("expected Mem error, got {other:?}"),
    }
}

#[test]
fn fork_into_busy_slot_is_an_error() {
    // Fork twice: the second fork finds slots occupied.
    let mut config = Config::multithreaded(2);
    config.context_frames = 4;
    let err = run_err(config, "fastfork\nfastfork\nhalt");
    assert!(matches!(err, MachineError::ForkBusy { .. }), "{err:?}");
}

#[test]
fn queue_misuse_is_detected() {
    let err = run_err(Config::multithreaded(2), "qmap r10, r11\nfastfork\nadd r1, r11, #0\nhalt");
    assert!(matches!(err, MachineError::QueueMisuse { .. }), "{err:?}");

    let err = run_err(Config::multithreaded(2), "qmap r10, r10\nhalt");
    assert!(matches!(err, MachineError::QueueMisuse { .. }), "{err:?}");
}

/// Queue registers (§2.3) and data-absence switching (§2.1.3) do not
/// mix: in this ring LP 0 starts late, so both contexts trap and LP 1
/// wakes first, into slot 0, away from its ring links; switching the
/// contexts out leaves the ring deadlocked until the watchdog. The
/// first trap ends the run with a typed error instead.
#[test]
fn data_absence_trap_in_a_queue_ring_is_queue_misuse() {
    let src = "
        qmap r10, r11
        fastfork
        lpid r1
        bne  r1, #0, ring
        li   r3, #2
    spin:
        sub  r3, r3, #1
        bne  r3, #0, spin
    ring:
        li   r8, #3
    loop:
        add  r11, r8, #0     ; send to the successor
        lw   r3, 5000(r1)    ; remote: a data-absence trap
        add  r5, r5, r10     ; receive from the predecessor
        sub  r8, r8, #1
        bne  r8, #0, loop
        halt
    ";
    let prog = assemble(src).unwrap();
    let mut config = Config::multithreaded(2);
    config.max_cycles = 10_000;
    let mut m =
        Machine::with_mem_model(config, &prog, Box::new(DsmMemory::new(4096, 2, 60))).unwrap();
    match m.run().expect_err("run must fail") {
        MachineError::QueueMisuse { slot, pc, detail } => {
            assert_eq!((slot, pc), (1, 9), "LP 1's load traps first");
            assert!(detail.contains("data-absence trap"), "{detail}");
        }
        other => panic!("expected QueueMisuse, got {other:?}"),
    }
}

#[test]
fn empty_program_rejected() {
    let err = Machine::new(Config::base_risc(), &Program::default()).unwrap_err();
    assert!(matches!(err, MachineError::EmptyProgram));
}

#[test]
fn priority_token_skips_halted_slots() {
    // Thread 0 halts without rotating; thread 1 waits at chgpri. The
    // schedule units skip the empty slot so the rotation token keeps
    // circulating and thread 1 completes instead of deadlocking.
    let mut config = Config::multithreaded(2);
    config.max_cycles = 10_000;
    let m = run(
        config,
        "setrot explicit\nfastfork\nlpid r1\nbeq r1, #0, zero\nchgpri\nhalt\nzero: halt",
    );
    assert_eq!(m.stats().instructions, 5 + 4 /* per-thread paths */);
}

#[test]
fn drain_fences_pending_stores() {
    // Two stores contend for the load/store unit; the second sits in a
    // standby station. `drain` must not let the flag store issue until
    // both are performed, so a polling reader on another thread never
    // observes the flag without the data.
    let src = "
        fastfork
        lpid r1
        bne  r1, #0, reader
        li   r2, #41
        sw   r2, 900(r0)     ; data (may linger in standby)
        li   r3, #42
        sw   r3, 901(r0)     ; more data
        drain                ; fence
        li   r4, #1
        sw   r4, 902(r0)     ; flag
        halt
    reader:
        lw   r5, 902(r0)     ; poll the flag
        beq  r5, #0, reader
        lw   r6, 900(r0)
        lw   r7, 901(r0)
        sw   r6, 903(r0)
        sw   r7, 904(r0)
        halt
    ";
    let m = run(Config::multithreaded(2), src);
    assert_eq!(m.memory().read_i64(903).unwrap(), 41);
    assert_eq!(m.memory().read_i64(904).unwrap(), 42);
}
