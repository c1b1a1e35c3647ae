//! Demonstrates the allocation-free cycle loop: once a machine is past
//! its warm-up transient (queue rings at their high-water mark,
//! stall-attribution windows within reserved capacity, every touched
//! memory chunk materialized), [`Machine::step`] performs zero heap
//! allocations, and neither do the event wheel's jumps that
//! [`Machine::run_span`] adds between steps.
//!
//! The proof is a counting `#[global_allocator]`: every allocation
//! bumps a counter of the thread that makes it, and the steady-state
//! span of steps must not bump the probing thread's counter at all.
//! The count is per thread because the tests run in parallel threads,
//! whose allocations a process-wide count would charge to the probe.
//! `unsafe` is confined to the thin allocator shim (the simulator
//! crates themselves forbid it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hirata_sim::{Config, Machine, RingSink};
use hirata_workloads::linked_list::{eager_program, ListShape};

/// Counts every allocation and reallocation, per thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so reading it never
    // allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The Figure 6 eager loop is the ideal steady-state probe: it runs
/// for tens of thousands of cycles, exercises queue registers, forks,
/// rotating priorities, and branch redirects every iteration — and
/// performs no data-memory stores until the final break, so no lazily
/// materialized memory chunk can appear mid-span.
///
/// Probed at both 4 and 8 thread slots: the two configurations take
/// different incremental-readiness paths (how often the ready frontier
/// empties, how many block descriptors are live, how the per-class
/// arbitration masks populate), and both must stay allocation-free.
fn assert_steady_state_allocation_free(slots: usize) {
    let shape = ListShape { nodes: 600, break_at: Some(599) };
    let program = eager_program(shape);
    let mut machine = Machine::new(Config::multithreaded(slots), &program).expect("machine builds");

    // Warm-up: 5000 steps puts every ring buffer at its high-water
    // mark and leaves the stall-window vector (one entry per 1000
    // cycles, reserved in power-of-two blocks with a 64-window floor)
    // with capacity through at least cycle 64000 — far past anything
    // the measured span can reach.
    const WARMUP_CYCLES: u64 = 5000;
    const MEASURED_CYCLES: u64 = 1500;
    for _ in 0..WARMUP_CYCLES {
        assert!(!machine.step().expect("machine runs"), "workload ended during warm-up");
    }

    let before = allocations();
    for _ in 0..MEASURED_CYCLES {
        assert!(!machine.step().expect("machine runs"), "workload ended during measurement");
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "Machine::step allocated in steady state at {} slots ({} allocations over {} cycles)",
        slots,
        after - before,
        MEASURED_CYCLES
    );

    // The machine still finishes correctly after the probe.
    let stats = machine.run().expect("machine completes");
    assert!(stats.cycles > WARMUP_CYCLES + MEASURED_CYCLES);
}

#[test]
fn step_is_allocation_free_in_steady_state_s4() {
    assert_steady_state_allocation_free(4);
}

#[test]
fn step_is_allocation_free_in_steady_state_s8() {
    assert_steady_state_allocation_free(8);
}

/// Same probe with a [`RingSink`] attached, driving the `TRACED`
/// monomorphization of the cycle kernel: trace events are `Copy`
/// structs pushed into a ring whose `VecDeque` stops growing once it
/// first reaches capacity during warm-up, so a traced machine must be
/// just as allocation-free in steady state as an untraced one. This
/// also pins down that the predecoded store (operand-capture plans,
/// pre-folded immediates) and the FU release slots are built once at
/// construction — neither path may rebuild or grow anything per
/// cycle, traced or not.
fn assert_traced_steady_state_allocation_free(slots: usize) {
    let shape = ListShape { nodes: 600, break_at: Some(599) };
    let program = eager_program(shape);
    let mut machine = Machine::new(Config::multithreaded(slots), &program).expect("machine builds");
    let sink = RingSink::new(256);
    machine.attach_trace_sink(Box::new(sink.clone()));

    const WARMUP_CYCLES: u64 = 5000;
    const MEASURED_CYCLES: u64 = 1500;
    for _ in 0..WARMUP_CYCLES {
        assert!(!machine.step().expect("machine runs"), "workload ended during warm-up");
    }

    let before = allocations();
    for _ in 0..MEASURED_CYCLES {
        assert!(!machine.step().expect("machine runs"), "workload ended during measurement");
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "traced Machine::step allocated in steady state at {} slots ({} allocations over {} cycles)",
        slots,
        after - before,
        MEASURED_CYCLES
    );

    // The sink really was live the whole time (the kernel took the
    // traced specialization, not the sink-free one).
    assert_eq!(sink.events().len(), 256, "ring should be at capacity after tens of k events");

    let stats = machine.run().expect("machine completes");
    assert!(stats.cycles > WARMUP_CYCLES + MEASURED_CYCLES);
}

#[test]
fn traced_step_is_allocation_free_in_steady_state_s4() {
    assert_traced_steady_state_allocation_free(4);
}

#[test]
fn traced_step_is_allocation_free_in_steady_state_s8() {
    assert_traced_steady_state_allocation_free(8);
}

/// The event wheel's jump path, driven through [`Machine::run_span`]
/// (`step` never jumps): on one slot, a divide chain stalls on its
/// 20-cycle results and on the branch shadow after every back edge,
/// so most calls jump. A span walk reuses the machine's scratch
/// buffers, so jumping must be as allocation-free as stepping.
#[test]
fn run_span_jumps_are_allocation_free() {
    let program = hirata_asm::assemble(
        "
        lif  f1, #5.0
        lif  f2, #1.0
        li   r4, #2000
    loop:
        fdiv f1, f1, f2
        fdiv f1, f1, f2
        sub  r4, r4, #1
        bne  r4, #0, loop
        sf   f1, 300(r0)
        halt
    ",
    )
    .expect("assembles");
    let mut machine = Machine::new(Config::multithreaded(1), &program).expect("machine builds");

    // Same warm-up and window-capacity reasoning as the step probes.
    const WARMUP_CYCLES: u64 = 5000;
    const MEASURED_CYCLES: u64 = 20_000;
    while machine.cycles() < WARMUP_CYCLES {
        assert!(!machine.run_span(1).expect("machine runs"), "workload ended during warm-up");
    }

    let start = machine.cycles();
    let mut jumps = 0u64;
    let before = allocations();
    while machine.cycles() < start + MEASURED_CYCLES {
        let at = machine.cycles();
        assert!(!machine.run_span(1).expect("machine runs"), "workload ended during measurement");
        jumps += u64::from(machine.cycles() > at + 1);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "run_span allocated while jumping ({} allocations over {} cycles)",
        after - before,
        MEASURED_CYCLES
    );
    assert!(jumps > 100, "the event wheel barely fired: {jumps} jumps");

    let stats = machine.run().expect("machine completes");
    assert!(stats.cycles > start + MEASURED_CYCLES);
}
