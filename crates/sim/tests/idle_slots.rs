//! Idle-slot accounting parity: unbound thread slots are skipped by
//! every per-cycle path and their NoThread stalls counted in bulk, so
//! the counts must come out the same however the machine is driven —
//! untraced (where the event wheel jumps), traced, one `step()` at a
//! time, or batched at any stride — and must match the per-slot
//! `Stall` events a trace sink receives, window by window.
//!
//! Every program here binds and unbinds slots mid-run: one thread on
//! a wide machine, forked threads halting at different times,
//! `killothers`, and data-absence context switches with more context
//! frames than slots.

use hirata_isa::Program;
use hirata_mem::DsmMemory;
use hirata_sim::{
    Config, Machine, MachineBatch, RingSink, RunStats, StallReason, TraceEvent, STALL_WINDOW_CYCLES,
};
use hirata_workloads::linked_list::{eager_source, sequential_source, ListShape};

/// Ring capacity: more than any run here emits.
const RING: usize = 1 << 18;

struct Case {
    name: String,
    program: Program,
    config: Config,
    /// Run on a DSM model whose remote words (4096 up) trap.
    dsm: bool,
    /// Threads added with `add_thread` before running.
    extra_threads: usize,
}

impl Case {
    fn build(&self, config: Config) -> Machine {
        let mut machine = if self.dsm {
            Machine::with_mem_model(config, &self.program, Box::new(DsmMemory::new(4096, 2, 150)))
        } else {
            Machine::new(config, &self.program)
        }
        .expect("machine builds");
        for _ in 0..self.extra_threads {
            machine.add_thread(self.program.entry).expect("a free context frame");
        }
        machine
    }
}

fn asm(src: &str) -> Program {
    hirata_asm::assemble(src).expect("assembles")
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let plain = |name: String, program: Program, config: Config| Case {
        name,
        program,
        config,
        dsm: false,
        extra_threads: 0,
    };
    // One thread on 2, 4 and 8 slots: all but one slot idle throughout.
    let sequential = asm(&sequential_source(ListShape { nodes: 60, break_at: None }));
    // The breaking eager list: `killothers` unbinds every other slot.
    let breaking = asm(&eager_source(ListShape { nodes: 150, break_at: Some(121) }));
    // Forked threads halting at different times: slot `i` spins
    // `150 i + 1` trips before halting.
    let staggered = asm("
        fastfork
        lpid r1
        mul  r2, r1, #150
        add  r2, r2, #1
    spin:
        sub  r2, r2, #1
        bne  r2, #0, spin
        sw   r1, 900(r1)
        halt
    ");
    for slots in [2usize, 4, 8] {
        let config = Config::multithreaded(slots);
        cases.push(plain(format!("sequential/s{slots}"), sequential.clone(), config.clone()));
        cases.push(plain(format!("breaking-eager/s{slots}"), breaking.clone(), config.clone()));
        cases.push(plain(format!("staggered-fork/s{slots}"), staggered.clone(), config));
    }
    // Data-absence traps with more context frames than slots: every
    // thread chases remote words, so slots unbind at each trap and
    // rebind as the remote data arrives.
    let remote = asm("
        lpid r1
        li   r5, #12
    trip:
        mul  r2, r1, #16
        add  r2, r2, r5
        lw   r3, 5000(r2)
        add  r4, r3, r5
        sw   r4, 800(r1)
        sub  r5, r5, #1
        bne  r5, #0, trip
        halt
    ");
    for (slots, frames) in [(2usize, 5usize), (4, 6)] {
        let mut config = Config::multithreaded(slots).with_context_frames(frames);
        config.mem_words = 1 << 16;
        cases.push(Case {
            name: format!("remote-traps/s{slots}f{frames}"),
            program: remote.clone(),
            config,
            dsm: true,
            extra_threads: frames - 1,
        });
    }
    cases
}

fn run(machine: &mut Machine) -> RunStats {
    machine.run().expect("runs").clone()
}

#[test]
fn idle_slot_accounting_matches_across_run_paths() {
    for case in cases() {
        let name = &case.name;
        let untraced = run(&mut case.build(case.config.clone()));
        assert!(
            untraced.stalls.count(StallReason::NoThread) > 0,
            "{name}: no idle slot-cycles to check"
        );
        assert!(untraced.stall_windows.len() > 1, "{name}: a single stall window");

        let sink = RingSink::new(RING);
        let mut traced = case.build(case.config.clone());
        traced.attach_trace_sink(Box::new(sink.clone()));
        assert_eq!(run(&mut traced), untraced, "{name}: traced run");

        let mut stepped = case.build(case.config.clone());
        while !stepped.step().expect("steps") {}
        assert_eq!(*stepped.stats(), untraced, "{name}: step() loop");

        for stride in [1u64, 16, 4096] {
            let mut batch = MachineBatch::new();
            batch.insert(case.build(case.config.clone()));
            let results = batch.run_all(stride);
            let machine = results[0].as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(*machine.stats(), untraced, "{name}: batched at stride {stride}");
        }

        // The sink saw one NoThread `Stall` per idle slot-cycle, in
        // the window the stats attribute it to.
        let events = sink.events();
        assert!(events.len() < RING, "{name}: the ring overflowed");
        let mut windows = vec![0u64; untraced.stall_windows.len()];
        for event in &events {
            if let TraceEvent::Stall { cycle, reason: StallReason::NoThread, .. } = *event {
                windows[(cycle / STALL_WINDOW_CYCLES) as usize] += 1;
            }
        }
        let recorded: Vec<u64> =
            untraced.stall_windows.iter().map(|w| w[StallReason::NoThread.index()]).collect();
        assert_eq!(windows, recorded, "{name}: NoThread stalls per window");
    }
}
