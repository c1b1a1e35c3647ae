//! Differential lockstep testing: every program runs through both the
//! architectural [`Emulator`] (the golden model — no pipelines, no
//! latencies) and the cycle-level [`Machine`], and the two must agree
//! on the final architectural state.
//!
//! Coverage comes from three directions: the checked-in
//! `examples/asm/` programs (which exercise fork/kill/queue-ring/
//! priority semantics), generated straight-line programs (which sweep
//! arithmetic, float, and memory operations without control flow),
//! and a seeded fuzz campaign of structured random programs —
//! branches, counted loops, fig6-style eager queue-ring loops with
//! `chgpri`, gated stores, data-absence traps through the DSM
//! memory model, and long affine counted loops. Fuzzed programs run
//! **three ways**: the emulator, a traced cycle-level machine (a
//! trace sink attached, so it steps every cycle), and an untraced one
//! (`run()`, where the event wheel jumps whenever a single slot is
//! live); the two machines must agree exactly on cycle counts,
//! statistics, issue-event streams (`set_trace`), registers and
//! memory, and both must agree with the emulator on final
//! architectural state. The one accepted machine error is a
//! data-absence trap in a queue-ring context, which both machines
//! must report identically. A fuzz
//! failure is shrunk (greedy line removal preserving the failure
//! category) and the minimal program saved under
//! `target/diff-failures/` for replay. On divergence the lockstep
//! tests dump the last 50 trace events of the offending slot so the
//! failure is diagnosable from the report alone.

use hirata_isa::{Inst, Program};
use hirata_mem::DsmMemory;
use hirata_sim::{
    format_event, Config, Emulator, Machine, MachineError, RingSink, StallReason, TextSink,
    TraceEvent,
};

/// Trace ring capacity: deep enough to hold the full tail of any slot.
const RING: usize = 1 << 16;

/// Runs `program` through emulator and machine on `slots` logical
/// processors and compares final memory — and, unless the program can
/// kill threads (a killed thread's registers depend on exactly where
/// the kill landed, which is timing), final register images too.
fn assert_lockstep(name: &str, program: &Program, slots: usize) {
    let config = Config::multithreaded(slots);
    let mem_words = config.mem_words;
    let max_cycles = config.max_cycles;

    let golden = Emulator::execute(program, slots, mem_words, max_cycles)
        .unwrap_or_else(|e| panic!("{name}/{slots} slots: emulator failed: {e}"));

    let mut machine = Machine::new(config, program)
        .unwrap_or_else(|e| panic!("{name}/{slots} slots: machine rejected program: {e}"));
    let sink = RingSink::new(RING);
    machine.attach_trace_sink(Box::new(sink.clone()));
    machine.run().unwrap_or_else(|e| panic!("{name}/{slots} slots: machine failed: {e}"));

    if golden.memory != *machine.memory() {
        let mismatch = first_memory_mismatch(&golden.memory, machine.memory());
        panic!(
            "{name}/{slots} slots: final memory diverges at word {mismatch:?}\n{}",
            dump_all_slots(&sink, slots)
        );
    }

    let kills = program.insts.iter().any(|i| matches!(i, Inst::KillOthers));
    if kills {
        return; // register state of killed threads is timing-dependent
    }
    for ctx in 0..slots {
        let machine_image = machine.register_image(ctx);
        if golden.regs[ctx] != machine_image {
            let reg = golden.regs[ctx]
                .iter()
                .zip(&machine_image)
                .position(|(a, b)| a != b)
                .expect("images differ");
            panic!(
                "{name}/{slots} slots: context {ctx} register {reg} diverges \
                 (emulator {:#x}, machine {:#x})\n{}",
                golden.regs[ctx][reg],
                machine_image[reg],
                dump_slot(&sink, ctx)
            );
        }
    }
}

fn first_memory_mismatch(a: &hirata_mem::Memory, b: &hirata_mem::Memory) -> Option<u64> {
    (0..a.size()).find(|&addr| a.read(addr).ok() != b.read(addr).ok())
}

fn dump_slot(sink: &RingSink, slot: usize) -> String {
    let tail: Vec<String> = sink.last_for_slot(slot, 50).iter().map(format_event).collect();
    format!("last {} trace events of slot {slot}:\n{}", tail.len(), tail.join("\n"))
}

fn dump_all_slots(sink: &RingSink, slots: usize) -> String {
    (0..slots).map(|s| dump_slot(sink, s)).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------- examples

/// Every checked-in example program, against every slot count its
/// header advertises (they all self-adapt via `nlp`).
#[test]
fn examples_match_the_golden_model() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/asm exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "expected the full example set, found {names:?}");
    for path in names {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("example is readable");
        let program =
            hirata_asm::assemble(&src).unwrap_or_else(|e| panic!("{name} assembles: {e}"));
        for slots in [1, 2, 4] {
            assert_lockstep(&name, &program, slots);
        }
    }
}

/// Every example also runs three-way (emulator, traced machine,
/// untraced machine): the event wheel must be invisible on real
/// control-flow-heavy programs, not just generated ones.
#[test]
fn examples_three_way_parity() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm");
    for entry in std::fs::read_dir(dir).expect("examples/asm exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "s") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("example is readable");
        for slots in [1, 2, 4] {
            let case = FuzzCase { src: src.clone(), slots, remote_base: None };
            three_way(&case, &src)
                .unwrap_or_else(|e| panic!("{name} at {slots} slots diverges: {e}"));
        }
    }
}

/// A directed case the fuzzer does not reach: four slots share one
/// fetch unit, so slot 0's straight-line run starves while the other
/// three fetch; once they halt, slot 0 is the one live slot and holds a
/// `Fetch` block until its refill lands. Untraced, the event wheel
/// jumps over that wait and must lift the block where the refill
/// lands. The traced run shows the wait: slot 0 alone, fetch starved,
/// then a plain refill.
#[test]
fn a_fetch_block_held_across_a_refill_landing_runs_three_way() {
    let mut src = String::from("fastfork\nlpid r1\nbne r1, #0, other\n");
    for i in 0..80 {
        src.push_str(&format!("add r{}, r0, #1\n", 2 + i % 8));
    }
    src.push_str("halt\nother:\nfadd f10, f1, f1\nhalt\n");
    let case = FuzzCase { src: src.clone(), slots: 4, remote_base: None };
    assert_eq!(three_way(&case, &src), Ok(false));

    let program = hirata_asm::assemble(&src).expect("directed case assembles");
    let mut machine = Machine::new(Config::multithreaded(4), &program).expect("machine builds");
    let sink = RingSink::new(RING);
    machine.attach_trace_sink(Box::new(sink.clone()));
    machine.run().expect("directed case runs");
    let events = sink.events();
    let alone_and_starved = |t: u64| {
        let cycle: Vec<_> = events.iter().filter(|e| e.cycle() == t).collect();
        let stalled = |slot, want: StallReason| {
            cycle.iter().any(|e| {
                matches!(**e, TraceEvent::Stall { slot: s, reason, .. }
                if s == slot && reason == want)
            })
        };
        stalled(0, StallReason::Fetch) && (1..4).all(|s| stalled(s, StallReason::NoThread))
    };
    let landed = events.iter().any(|e| match *e {
        TraceEvent::Fetch { cycle, slot: 0, redirect: false } => {
            cycle >= 2 && alone_and_starved(cycle - 1) && alone_and_starved(cycle - 2)
        }
        _ => false,
    });
    assert!(landed, "slot 0 never waited alone on a refill");
}

// ------------------------------------------------- generated straight-line

/// Deterministic 64-bit generator (SplitMix64) so the generated
/// programs are identical on every run — no time or OS entropy.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random straight-line program: seed a few registers, then a run of
/// arithmetic / float / load / store instructions with no control
/// flow, finishing with stores of every live register and `halt`.
fn straight_line_program(seed: u64, len: usize) -> String {
    let mut rng = SplitMix(seed);
    let mut src = String::from(".text\n.entry main\nmain:\n");
    for r in 1..=6 {
        src.push_str(&format!("    li r{r}, #{}\n", rng.below(2000) as i64 - 1000));
    }
    for f in 1..=4 {
        src.push_str(&format!("    lif f{f}, #{}.{}\n", rng.below(40), rng.below(100)));
    }
    for _ in 0..len {
        let (d, a, b) = (1 + rng.below(6), 1 + rng.below(6), 1 + rng.below(6));
        let (fd, fa, fb) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let addr = rng.below(64);
        match rng.below(10) {
            0 => src.push_str(&format!("    add r{d}, r{a}, r{b}\n")),
            1 => src.push_str(&format!("    sub r{d}, r{a}, r{b}\n")),
            2 => src.push_str(&format!("    mul r{d}, r{a}, r{b}\n")),
            3 => src.push_str(&format!("    add r{d}, r{a}, #{}\n", rng.below(100))),
            4 => src.push_str(&format!("    sw r{a}, {addr}(r0)\n")),
            5 => src.push_str(&format!("    lw r{d}, {addr}(r0)\n")),
            6 => src.push_str(&format!("    fadd f{fd}, f{fa}, f{fb}\n")),
            7 => src.push_str(&format!("    fmul f{fd}, f{fa}, f{fb}\n")),
            8 => src.push_str(&format!("    sf f{fa}, {}(r0)\n", 64 + addr)),
            _ => src.push_str(&format!("    lf f{fd}, {}(r0)\n", 64 + addr)),
        }
    }
    for r in 1..=6 {
        src.push_str(&format!("    sw r{r}, {}(r0)\n", 200 + r));
    }
    for f in 1..=4 {
        src.push_str(&format!("    sf f{f}, {}(r0)\n", 210 + f));
    }
    src.push_str("    halt\n");
    src
}

#[test]
fn generated_straight_line_programs_match_the_golden_model() {
    for seed in 0..24u64 {
        let len = 8 + (seed as usize % 5) * 16; // 8..=72 instructions
        let src = straight_line_program(0xC0FFEE ^ (seed.wrapping_mul(0x9E3779B9)), len);
        let program = hirata_asm::assemble(&src)
            .unwrap_or_else(|e| panic!("seed {seed} assembles: {e}\n{src}"));
        for slots in [1, 4] {
            assert_lockstep(&format!("straight-line seed {seed}"), &program, slots);
        }
    }
}

// ---------------------------------------------------- three-way fuzz

/// Seeds in the default campaign; `DIFF_FUZZ_SEEDS` overrides (CI runs
/// a larger budgeted campaign, `DIFF_FUZZ_SEEDS=50` gives a quick
/// smoke pass).
const DEFAULT_FUZZ_SEEDS: u64 = 500;

/// Cycle watchdog for fuzzed programs: generated programs finish in a
/// few thousand cycles, so anything longer is a hang (e.g. a shrink
/// attempt that unbalanced the queue ring) and should fail fast.
const FUZZ_MAX_CYCLES: u64 = 50_000;

/// One generated fuzz case: the program source plus the machine shape
/// it runs under.
struct FuzzCase {
    src: String,
    slots: usize,
    /// `Some(base)`: run the machines on a DSM memory model where
    /// accesses at or above `base` raise data-absence traps.
    remote_base: Option<u64>,
}

/// Runs one machine, recording issue events (`set_trace`) and — when
/// `traced` — the full event stream through a [`TextSink`], which
/// makes the machine step every cycle. Without a sink, `run()` lets
/// the event wheel jump. Returns the machine, how its run ended, and
/// the event text.
fn run_machine(
    program: &Program,
    slots: usize,
    traced: bool,
    remote_base: Option<u64>,
) -> Result<(Machine, Result<(), MachineError>, String), String> {
    let mut config = Config::multithreaded(slots);
    config.max_cycles = FUZZ_MAX_CYCLES;
    let mut machine = match remote_base {
        Some(base) => {
            Machine::with_mem_model(config, program, Box::new(DsmMemory::new(base, 2, 40)))
        }
        None => Machine::new(config, program),
    }
    .map_err(|e| format!("[build] machine rejected program: {e}"))?;
    machine.set_trace(true);
    let text_sink = TextSink::new();
    if traced {
        machine.attach_trace_sink(Box::new(text_sink.clone()));
    }
    let ended = machine.run().map(|_| ());
    Ok((machine, ended, text_sink.text()))
}

/// A data-absence trap in a context with queue registers mapped: the
/// one machine error a fuzz case may end in (the ring family on the
/// DSM model).
fn is_ring_trap(e: &MachineError) -> bool {
    matches!(e, MachineError::QueueMisuse { detail, .. } if detail.contains("data-absence trap"))
}

/// The fuzz oracle. Errors carry a stable `[category]` prefix so the
/// shrinker can insist on preserving the original failure mode.
/// `Ok(true)` when both machines ended in the ring trap.
fn three_way(case: &FuzzCase, src: &str) -> Result<bool, String> {
    let program =
        hirata_asm::assemble(src).map_err(|e| format!("[assemble] program rejected: {e}"))?;
    let slots = case.slots;
    let golden = Emulator::execute(&program, slots, 1 << 20, 1_000_000)
        .map_err(|e| format!("[emulator] failed: {e}"))?;
    let (traced, traced_ended, traced_text) = run_machine(&program, slots, true, case.remote_base)?;
    let (untraced, untraced_ended, _) = run_machine(&program, slots, false, case.remote_base)?;
    let ring_trap = match (&traced_ended, &untraced_ended) {
        (Ok(()), Ok(())) => false,
        (Err(t), Err(u)) if is_ring_trap(t) && t == u => true,
        (t, u) => {
            return Err(format!("[machine-error] run failed: traced {t:?}, untraced {u:?}"));
        }
    };

    // Traced (stepped every cycle) vs untraced (the wheel may jump):
    // the event wheel must be invisible — identical cycle counts,
    // statistics tables, and issue events.
    if traced.cycles() != untraced.cycles() {
        return Err(format!(
            "[cycles] traced {} vs untraced {}",
            traced.cycles(),
            untraced.cycles()
        ));
    }
    if traced.stats() != untraced.stats() {
        return Err(format!(
            "[stats] diverge:\ntraced:   {:?}\nuntraced: {:?}",
            traced.stats(),
            untraced.stats()
        ));
    }
    if traced.trace() != untraced.trace() {
        let at = traced.trace().iter().zip(untraced.trace()).position(|(a, b)| a != b);
        return Err(format!(
            "[issues] issue events diverge at index {at:?} (traced {}, untraced {} events)\n{}",
            traced.trace().len(),
            untraced.trace().len(),
            traced_text.lines().rev().take(20).collect::<Vec<_>>().join("\n")
        ));
    }
    for ctx in 0..slots {
        if traced.register_image(ctx) != untraced.register_image(ctx) {
            return Err(format!("[regs-wheel] context {ctx} register images diverge"));
        }
    }
    if *traced.memory() != *untraced.memory() {
        let at = first_memory_mismatch(traced.memory(), untraced.memory());
        return Err(format!("[memory-wheel] traced and untraced memories diverge at word {at:?}"));
    }
    // A run cut short by the trap has no final state to hold against
    // the emulator's.
    if ring_trap {
        return Ok(true);
    }

    // Traced machine vs the golden model: final architectural state.
    if golden.memory != *traced.memory() {
        let at = first_memory_mismatch(&golden.memory, traced.memory());
        return Err(format!("[memory] emulator and machine memories diverge at word {at:?}"));
    }
    if !program.insts.iter().any(|i| matches!(i, Inst::KillOthers)) {
        for ctx in 0..slots {
            let machine_image = traced.register_image(ctx);
            if let Some(reg) = golden.regs[ctx].iter().zip(&machine_image).position(|(a, b)| a != b)
            {
                return Err(format!(
                    "[regs] context {ctx} register {reg}: emulator {:#x}, machine {:#x}",
                    golden.regs[ctx][reg], machine_image[reg]
                ));
            }
        }
    }
    Ok(false)
}

/// Slot counts the fuzzer draws from. `DIFF_FUZZ_SLOTS` (comma-
/// separated) overrides the default `1,2,4` — CI's quick tier pins
/// `2,8` so every push exercises both the two-slot interleavings and
/// the widest ready-frontier/arbitration-mask configuration without
/// waiting for the big seeded campaign.
fn slot_choices() -> &'static [usize] {
    static CHOICES: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CHOICES.get_or_init(|| match std::env::var("DIFF_FUZZ_SLOTS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("DIFF_FUZZ_SLOTS holds slot counts"))
            .collect(),
        Err(_) => vec![1, 2, 4],
    })
}

/// Generates one structured random program. Four families, all
/// terminating by construction:
///
/// * **branchy straight-line** — SPMD over shared addresses (every
///   slot computes identical values, so store order cannot matter),
///   with forward if/else diamonds;
/// * **counted loop** — per-LP private memory banks (`lpid * 64`),
///   data-dependent early break, random arithmetic/memory body;
/// * **eager ring loop** — the fig6 shape: explicit rotation, queue
///   registers mapped over the ring, each trip writes the successor
///   *before* reading the predecessor (so the ring never deadlocks),
///   `chgpri` per trip, optional priority-gated stores to the private
///   bank;
/// * **affine loops** — long counted loops (strided stores, constant
///   register increments, optional nesting and `fastfork`), with trip
///   counts from zero to thousands: long steady-state stretches for
///   the event wheel's branch-shadow spans.
///
/// The straight-line, counted-loop and ring families may additionally
/// address the remote region (word 4096 up) to exercise data-absence
/// traps when the case runs on the DSM model; a ring body on that model
/// always holds one remote access. In a ring the first such trap ends
/// the run with `QueueMisuse` (a context with queue registers mapped
/// cannot be switched out), which `three_way` accepts.
fn fuzz_case(seed: u64) -> FuzzCase {
    let mut rng = SplitMix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1FF_CA5E);
    let family = rng.below(4);
    let choices = slot_choices();
    let slots = choices[rng.below(choices.len() as u64) as usize];
    // Traps in a third of the cases of families A–C; remote words
    // live at 4096+. The affine-loop family (D) stays local: its banks
    // sit above the remote boundary by construction.
    let remote_base = (family < 3 && rng.below(3) == 0).then_some(4096);
    let remote = remote_base.is_some();
    let mut src = String::from(".text\n.entry main\nmain:\n");

    // A deterministic register seeding shared by all families.
    for r in 1..=6 {
        src.push_str(&format!("    li r{r}, #{}\n", rng.below(512) as i64 - 256));
    }
    for f in 1..=3 {
        src.push_str(&format!("    lif f{f}, #{}.{}\n", rng.below(20), rng.below(100)));
    }

    // A remote access (load into `d` or store of `a`, at `off` past
    // the remote boundary): a trap on the DSM model, an ordinary
    // (identical-value or private) word otherwise.
    let remote_op =
        |rng: &mut SplitMix, src: &mut String, bank: &str, (d, a, off): (u64, u64, u64)| {
            if rng.below(2) == 0 {
                src.push_str(&format!("    lw r{d}, {}({bank})\n", 4096 + off));
            } else {
                src.push_str(&format!("    sw r{a}, {}({bank})\n", 4096 + off));
            }
        };

    // One random body instruction. `bank`: base register holding the
    // LP-private bank address (families B/C) or r0 with shared
    // addresses (family A, SPMD-safe).
    let body_op = |rng: &mut SplitMix, src: &mut String, bank: &str, gated_ok: bool| {
        let (d, a, b) = (2 + rng.below(5), 2 + rng.below(5), 2 + rng.below(5));
        let (fd, fa, fb) = (1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3));
        let off = rng.below(48);
        match rng.below(14) {
            0 => src.push_str(&format!("    add r{d}, r{a}, r{b}\n")),
            1 => src.push_str(&format!("    sub r{d}, r{a}, r{b}\n")),
            2 => src.push_str(&format!("    mul r{d}, r{a}, r{b}\n")),
            3 => src.push_str(&format!("    add r{d}, r{a}, #{}\n", rng.below(64))),
            4 => src.push_str(&format!("    sw r{a}, {off}({bank})\n")),
            5 => src.push_str(&format!("    lw r{d}, {off}({bank})\n")),
            6 => src.push_str(&format!("    fadd f{fd}, f{fa}, f{fb}\n")),
            7 => src.push_str(&format!("    fmul f{fd}, f{fa}, f{fb}\n")),
            8 => src.push_str(&format!("    sf f{fa}, {}({bank})\n", 48 + rng.below(8))),
            9 => src.push_str(&format!("    lf f{fd}, {}({bank})\n", 48 + rng.below(8))),
            10 => src.push_str(&format!("    cvtif f{fd}, r{a}\n")),
            11 => src.push_str(&format!("    fcmplt r{d}, f{fa}, f{fb}\n")),
            12 if remote => remote_op(rng, src, bank, (d, a, off)),
            13 if gated_ok => src.push_str(&format!("    swp r{a}, {off}({bank})\n")),
            _ => src.push_str(&format!("    add r{d}, r{a}, #1\n")),
        }
    };

    match family {
        // Family A: branchy straight-line, SPMD over shared memory.
        0 => {
            let diamonds = 1 + rng.below(3);
            for i in 0..diamonds {
                for _ in 0..rng.below(4) {
                    body_op(&mut rng, &mut src, "r0", false);
                }
                let (r, k) = (2 + rng.below(5), rng.below(8) as i64 - 4);
                let cond = if rng.below(2) == 0 { "beq" } else { "bne" };
                src.push_str(&format!("    {cond} r{r}, #{k}, else{i}\n"));
                for _ in 0..1 + rng.below(3) {
                    body_op(&mut rng, &mut src, "r0", false);
                }
                src.push_str(&format!("    j join{i}\nelse{i}:\n"));
                for _ in 0..1 + rng.below(3) {
                    body_op(&mut rng, &mut src, "r0", false);
                }
                src.push_str(&format!("join{i}:\n"));
            }
        }
        // Family B: fastfork + per-LP counted loop over a private bank.
        1 => {
            src.push_str("    fastfork\n    lpid r1\n    mul r9, r1, #64\n");
            src.push_str(&format!("    li r8, #{}\n", 2 + rng.below(4)));
            src.push_str("loop:\n");
            for _ in 0..2 + rng.below(6) {
                body_op(&mut rng, &mut src, "r9", false);
            }
            if rng.below(2) == 0 {
                let (r, k) = (2 + rng.below(5), rng.below(8) as i64 - 4);
                src.push_str(&format!("    beq r{r}, #{k}, done\n"));
            }
            src.push_str("    sub r8, r8, #1\n    bne r8, #0, loop\ndone:\n");
        }
        // Family C: the fig6 eager shape over the queue ring.
        2 => {
            let rot = if rng.below(2) == 0 {
                "    setrot explicit\n".to_string()
            } else {
                format!("    setrot implicit #{}\n", 1 << rng.below(4))
            };
            src.push_str(&rot);
            src.push_str("    qmap r10, r11\n    fastfork\n    lpid r1\n    mul r9, r1, #64\n");
            src.push_str(&format!("    li r8, #{}\n", 2 + rng.below(4)));
            src.push_str("loop:\n");
            // Write the successor first — the ring stays supplied
            // however the trips interleave.
            src.push_str(&format!("    add r11, r8, #{}\n", rng.below(16)));
            let ops = 1 + rng.below(5);
            // On the DSM model one op is always remote, so the case
            // reaches the ring trap.
            let remote_at = if remote { rng.below(ops) } else { ops };
            for i in 0..ops {
                if i == remote_at {
                    let operands = (2 + rng.below(5), 2 + rng.below(5), rng.below(48));
                    remote_op(&mut rng, &mut src, "r9", operands);
                } else {
                    body_op(&mut rng, &mut src, "r9", true);
                }
            }
            src.push_str("    chgpri\n");
            src.push_str("    mv r4, r10\n    add r5, r5, r4\n");
            src.push_str("    sub r8, r8, #1\n    bne r8, #0, loop\n");
        }
        // Family D: affine counted loops (optionally nested,
        // optionally forked per LP) of adds, subtracts and strided
        // stores, with trip counts of 0, 1, a few, and long runs T
        // with a ±1 jitter. A quarter of the cases plant a load in
        // the body.
        _ => {
            let multi = rng.below(2) == 0;
            if multi {
                src.push_str("    fastfork\n    lpid r1\n");
                src.push_str("    mul r9, r1, #16384\n    add r9, r9, #16384\n");
            } else {
                src.push_str("    li r9, #16384\n");
            }
            let nested = rng.below(3) == 0;
            let outer = if nested { 2 + rng.below(2) } else { 1 };
            // Keep the runs under the cycle watchdog: per-trip
            // latency grows with slot contention on the shared fetch
            // unit, so wide machines get shorter loops (they cannot
            // leap anyway — standby stations stay occupied at ≥4
            // slots — so nothing is lost).
            let max_total = 3200 / outer / (slots as u64).clamp(1, 4);
            let trips = (match rng.below(6) {
                0 => 0,
                1 => 1,
                2 => 2 + rng.below(6),
                _ => max_total / 2 + rng.below(max_total / 2),
            } as i64
                + (rng.below(3) as i64 - 1))
                .max(0);
            let stride = 1 + rng.below(4);
            let inc = rng.below(16) as i64 - 8;
            let impure = rng.below(4) == 0;
            src.push_str(&format!("    li r6, #{outer}\nouter:\n"));
            src.push_str(&format!("    li r8, #{trips}\n    li r7, #0\n    mv r5, r9\n"));
            src.push_str("    beq r8, #0, next\ninner:\n");
            src.push_str(&format!("    sw r7, 0(r5)\n    add r5, r5, #{stride}\n"));
            src.push_str(&format!("    add r7, r7, #{inc}\n"));
            if impure {
                src.push_str("    lw r4, 0(r9)\n");
            }
            src.push_str("    sub r8, r8, #1\n    bne r8, #0, inner\nnext:\n");
            src.push_str("    sub r6, r6, #1\n    bne r6, #0, outer\n");
        }
    }

    // Epilogue: store every live register so divergences in any of
    // them surface as memory divergences too. Private banks where LPs
    // differ, shared (identical-value) words in family A.
    let bank = if family == 0 { "r0" } else { "r9" };
    for r in 2..=6 {
        src.push_str(&format!("    sw r{r}, {}({bank})\n", 56 + r - 2));
    }
    src.push_str(&format!("    sf f1, {}({bank})\n", 61));
    src.push_str(&format!("    sf f2, {}({bank})\n", 62));
    src.push_str("    halt\n");
    FuzzCase { src, slots, remote_base }
}

/// The `[category]` prefix of a fuzz-oracle error.
fn failure_tag(err: &str) -> &str {
    err.split(']').next().unwrap_or("[?")
}

/// Greedy line-removal shrinker: repeatedly drop any single
/// non-structural line whose removal keeps the program failing with
/// the same category, to a fixed point. Labels and `halt` stay (so
/// the program always assembles and terminates the shrink quickly).
fn shrink(case: &FuzzCase, tag: &str) -> String {
    let removable = |line: &str| {
        let t = line.trim();
        !t.is_empty() && !t.ends_with(':') && t != "halt"
    };
    let mut lines: Vec<String> = case.src.lines().map(String::from).collect();
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < lines.len() {
            if removable(&lines[i]) {
                let mut cand = lines.clone();
                cand.remove(i);
                let cand_src = cand.join("\n");
                let still_fails =
                    matches!(three_way(case, &cand_src), Err(e) if failure_tag(&e) == tag);
                if still_fails {
                    lines = cand;
                    removed = true;
                    continue;
                }
            }
            i += 1;
        }
        if !removed {
            return lines.join("\n");
        }
    }
}

#[test]
fn fuzzed_programs_three_way_match() {
    let seeds: u64 = std::env::var("DIFF_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_FUZZ_SEEDS);
    let out_dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("target/diff-failures");
    let mut failures = Vec::new();
    let mut dsm_rings = 0;
    for seed in 0..seeds {
        let case = fuzz_case(seed);
        let dsm_ring = case.remote_base.is_some() && case.src.contains("qmap");
        dsm_rings += dsm_ring as u64;
        match three_way(&case, &case.src) {
            Ok(trapped) => {
                if dsm_ring && !trapped {
                    failures.push(format!(
                        "seed {seed}: a ring case on the DSM model ({} slots) ended without \
                         the ring trap",
                        case.slots
                    ));
                }
            }
            Err(err) => {
                let minimal = shrink(&case, failure_tag(&err));
                std::fs::create_dir_all(&out_dir).expect("create target/diff-failures");
                let path = out_dir.join(format!("seed-{seed}.s"));
                let header = format!(
                    "; fuzz seed {seed}: {} slots, remote_base {:?}\n; {}\n",
                    case.slots,
                    case.remote_base,
                    err.replace('\n', "\n; ")
                );
                std::fs::write(&path, format!("{header}{minimal}\n")).expect("write minimal repro");
                failures.push(format!("seed {seed}: {} (minimized to {})", err, path.display()));
            }
        }
        if failures.len() >= 3 {
            break; // enough divergences to diagnose — stop fuzzing
        }
    }
    assert!(failures.is_empty(), "{} fuzz divergence(s):\n{}", failures.len(), failures.join("\n"));
    if seeds >= DEFAULT_FUZZ_SEEDS {
        assert!(dsm_rings > 0, "no ring case ran on the DSM model in {seeds} seeds");
    }
}
