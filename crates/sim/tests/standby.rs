//! The flattened standby stations (one depth-sized FIFO per
//! `(slot, unit class)` in a buffer sized at construction, with
//! occupancy counters and per-class slot masks) must behave exactly
//! like the simple latches of §2.2: park on lost arbitration, drain in
//! order as units free up, and flush into the access requirement
//! buffer on a data-absence trap. Running these
//! scenarios in a debug build also exercises the internal
//! `debug_assert` rescans that compare the occupancy counters and
//! `SlotSet` masks against a from-scratch recount every cycle.

use hirata_mem::DsmMemory;
use hirata_sim::{Config, Machine, MAX_STANDBY_DEPTH};

/// Occupancy of every slot's standby stations, via the public view.
fn occupancies(m: &Machine, slots: usize) -> Vec<usize> {
    (0..slots).map(|s| m.slot_view(s).standby_occupancy).collect()
}

/// Eight threads hammering shared functional units park losers in
/// standby stations; the program must still complete with the right
/// answer and leave every station empty.
#[test]
fn fu_conflict_parks_and_drains() {
    use hirata_workloads::linked_list::{eager_program, reference, ListShape, RESULT_ADDR};

    let shape = ListShape { nodes: 60, break_at: Some(59) };
    let program = eager_program(shape);
    let slots = 8;
    let mut machine = Machine::new(Config::multithreaded(slots), &program).expect("machine");

    let mut max_parked = 0usize;
    while !machine.step().expect("machine runs") {
        let occ = occupancies(&machine, slots);
        max_parked = max_parked.max(occ.iter().sum());
        // Depth-1 stations can hold at most one instruction per unit
        // class per slot.
        for (s, &o) in occ.iter().enumerate() {
            assert!(o <= 7, "slot {s} exceeds one entry per class: {o}");
        }
    }

    assert!(max_parked > 0, "contended run never parked an instruction");
    assert_eq!(occupancies(&machine, slots), vec![0; slots], "stations empty at completion");
    let (_, expected) = reference(shape);
    assert_eq!(
        machine.memory().read_f64(RESULT_ADDR).expect("result readable"),
        expected.expect("shape breaks"),
        "gated break store survived the standby traffic"
    );
}

/// Deeper stations (an ablation) park more and still drain cleanly.
#[test]
fn deep_stations_drain_in_order() {
    use hirata_workloads::livermore::{kernel1_program, kernel1_reference, X_BASE};

    let n = 64;
    let program = kernel1_program(n, hirata_sched::Strategy::ReservationB { threads: 4 });
    let mut config = Config::multithreaded(4);
    config.standby_depth = 4;
    config.validate().expect("depth 4 is supported");
    let mut machine = Machine::new(config, &program).expect("machine");

    let mut max_parked = 0usize;
    while !machine.step().expect("machine runs") {
        max_parked = max_parked.max(occupancies(&machine, 4).iter().sum());
    }
    assert!(max_parked > 0, "kernel never used the deep stations");
    for (k, want) in kernel1_reference(n).iter().enumerate() {
        let got = machine.memory().read_f64(X_BASE as u64 + k as u64).expect("x[k] readable");
        assert_eq!(got, *want, "x[{k}] after deep-station run");
    }
}

/// A remote (DSM) access raises the §2.1.3 data-absence trap while
/// younger memory operations sit in the load/store standby station;
/// those are flushed into the context's access requirement buffer and
/// replayed after the thread resumes, so the final memory image is
/// exactly the architectural one.
#[test]
fn data_absence_trap_flushes_the_load_store_station() {
    let src = "
        .text
        .entry main
        main:
            li   r1, #5
            li   r2, #7
            li   r3, #9
            sw   r1, 100(r0)
            sw   r2, 101(r0)
            sw   r3, 102(r0)
            drain
            lw   r4, 100(r0)
            lw   r5, 101(r0)
            lw   r6, 102(r0)
            add  r7, r4, r5
            add  r7, r7, r6
            sw   r7, 103(r0)
            halt
    ";
    let program = hirata_asm::assemble(src).expect("program assembles");
    let mut config = Config::multithreaded(2);
    // Deep stations let the back-to-back loads queue up behind the
    // trapping one, exercising the station flush (not just the trap).
    config.standby_depth = 4;
    // Every address is remote: each first touch costs a 60-cycle
    // remote access and a context switch.
    let model = DsmMemory::new(0, 2, 60);
    let mut machine = Machine::with_mem_model(config, &program, Box::new(model)).expect("machine");
    machine.run().expect("program completes despite traps");

    assert_eq!(machine.memory().read(103).expect("sum readable"), 21, "replayed sum");
    let stats = machine.stats();
    assert!(
        stats.context_switches > 0,
        "remote accesses must have switched the thread out at least once"
    );
    assert_eq!(occupancies(&machine, 2), vec![0, 0], "stations empty after replay");
}

/// The flat station array has a compile-time capacity; configurations
/// beyond it (or zero) must be rejected up front, not trusted to
/// panic at run time.
#[test]
fn config_rejects_unsupported_station_depths() {
    let mut config = Config::multithreaded(2);
    config.standby_depth = 0;
    assert!(config.validate().is_err(), "depth 0 rejected");
    config.standby_depth = MAX_STANDBY_DEPTH;
    assert!(config.validate().is_ok(), "maximum depth accepted");
    config.standby_depth = MAX_STANDBY_DEPTH + 1;
    assert!(config.validate().is_err(), "over-capacity depth rejected");
}
