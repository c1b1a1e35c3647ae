//! The predecoded instruction store is a pure derivation of the
//! program: every [`DecodedInst`] must agree with the raw [`Inst`]
//! accessors the cycle loop used before predecoding existed. These
//! tests sweep every instruction form, the checked-in example
//! programs, the generated workloads, and seeded random programs —
//! and check that machines sharing one predecoded store behave
//! identically to machines that lower the program themselves.

use std::sync::Arc;

use hirata_isa::{
    BranchCond, FReg, FpBinOp, FpUnOp, GReg, GSrc, Inst, IntOp, Program, Reg, RotationMode,
};
use hirata_sim::predecode::{NO_REG, SRC_IMM};
use hirata_sim::{Config, DecodedInst, Machine, PredecodedProgram};

/// One representative of every `Inst` variant (and both store
/// flavours), so a new field or flag that breaks the lowering of any
/// form fails here by name.
fn all_instruction_forms() -> Vec<Inst> {
    vec![
        Inst::IntOp { op: IntOp::Add, rd: GReg(1), rs: GReg(2), src2: GSrc::Reg(GReg(3)) },
        Inst::IntOp { op: IntOp::Div, rd: GReg(4), rs: GReg(5), src2: GSrc::Imm(7) },
        Inst::Li { rd: GReg(6), imm: -42 },
        Inst::LiF { fd: FReg(1), imm: 0.5 },
        Inst::FpBin { op: FpBinOp::FMul, fd: FReg(2), fs: FReg(3), ft: FReg(4) },
        Inst::FpUn { op: FpUnOp::FNeg, fd: FReg(5), fs: FReg(6) },
        Inst::FpCmp { cond: BranchCond::Lt, rd: GReg(7), fs: FReg(1), ft: FReg(2) },
        Inst::CvtIF { fd: FReg(3), rs: GReg(1) },
        Inst::CvtFI { rd: GReg(2), fs: FReg(4) },
        Inst::Load { dst: Reg::G(GReg(3)), base: GReg(4), off: 16 },
        Inst::Load { dst: Reg::F(FReg(5)), base: GReg(6), off: -8 },
        Inst::Store { src: Reg::G(GReg(7)), base: GReg(1), off: 0, gated: false },
        Inst::Store { src: Reg::F(FReg(6)), base: GReg(2), off: 4, gated: true },
        Inst::Branch { cond: BranchCond::Ne, rs: GReg(3), src2: GSrc::Imm(0), target: 9 },
        Inst::Branch { cond: BranchCond::Eq, rs: GReg(3), src2: GSrc::Reg(GReg(4)), target: 2 },
        Inst::Jump { target: 0 },
        Inst::JumpReg { rs: GReg(4) },
        Inst::Halt,
        Inst::Nop,
        Inst::FastFork,
        Inst::ChgPri,
        Inst::KillOthers,
        Inst::SetRotation { mode: RotationMode::Explicit },
        Inst::QMap { read: Reg::G(GReg(5)), write: Reg::G(GReg(6)) },
        Inst::QUnmap,
        Inst::Lpid { rd: GReg(7) },
        Inst::Nlp { rd: GReg(1) },
        Inst::Drain,
    ]
}

/// Asserts one decoded entry agrees with the raw accessors on `inst`.
fn assert_lowering_matches(d: &DecodedInst, inst: Inst, what: &str) {
    assert_eq!(d.inst, inst, "{what}: instruction preserved");
    assert_eq!(d.fu, inst.fu_class(), "{what}: functional-unit class");
    // Each operand byte is the dense index of the register the raw
    // accessor names; an immediate second operand takes slot 1.
    let imm = match inst {
        Inst::IntOp { src2: GSrc::Imm(i), .. } | Inst::Branch { src2: GSrc::Imm(i), .. } => Some(i),
        _ => None,
    };
    for (slot, reg) in inst.srcs().into_iter().enumerate() {
        let want = match (reg, imm) {
            (Some(r), _) => r.dense_index() as u8,
            (None, Some(_)) if slot == 1 => SRC_IMM,
            (None, _) => NO_REG,
        };
        assert_eq!(d.src[slot], want, "{what}: source slot {slot}");
    }
    assert_eq!(d.imm, imm.map_or(0, |i| i as u64), "{what}: folded immediate");
    assert_eq!(d.dst, inst.dest().map_or(NO_REG, |r| r.dense_index() as u8), "{what}: destination");
    assert_eq!(d.latency, inst.latency(), "{what}: latency");
    let mut src_mask = 0u64;
    for r in inst.srcs().into_iter().flatten() {
        src_mask |= 1 << r.dense_index();
    }
    assert_eq!(d.src_mask, src_mask, "{what}: source mask");
    assert_eq!(
        d.dest_mask,
        inst.dest().map_or(0, |r| 1 << r.dense_index()),
        "{what}: destination mask"
    );
    assert_eq!(d.is_mem(), inst.is_mem(), "{what}: memory flag");
    assert_eq!(d.is_store(), matches!(inst, Inst::Store { .. }), "{what}: store flag");
    assert_eq!(
        d.needs_highest_priority(),
        inst.needs_highest_priority(),
        "{what}: priority gate flag"
    );
    assert_eq!(
        d.is_gated_store(),
        matches!(inst, Inst::Store { gated: true, .. }),
        "{what}: gated-store flag"
    );
    assert_eq!(d.is_decode_unit(), inst.fu_class().is_none(), "{what}: decode-unit flag");
    assert_eq!(d.issue_latency(), inst.latency().issue, "{what}: issue latency");
}

#[test]
fn every_instruction_form_lowers_consistently() {
    for inst in all_instruction_forms() {
        assert_lowering_matches(&DecodedInst::of(inst), inst, &format!("{inst}"));
    }
}

/// The dense store produced by `PredecodedProgram::new` must be
/// element-for-element the raw lowering of the program text.
fn assert_store_matches_raw(program: &Program, what: &str) {
    let pre = PredecodedProgram::new(program).expect("program predecodes");
    assert_eq!(pre.len(), program.insts.len(), "{what}: store length");
    assert_eq!(pre.entry(), program.entry, "{what}: entry point");
    assert_eq!(pre.data(), program.data.as_slice(), "{what}: data segments");
    for (pc, (&inst, d)) in program.insts.iter().zip(pre.insts()).enumerate() {
        assert_eq!(*d, DecodedInst::of(inst), "{what}: entry at pc {pc}");
        assert_lowering_matches(d, inst, &format!("{what} pc {pc}"));
    }
}

#[test]
fn checked_in_examples_predecode_to_their_raw_lowering() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/asm exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("example readable");
        let program = hirata_asm::assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_store_matches_raw(&program, &name);
    }
}

#[test]
fn generated_workloads_predecode_to_their_raw_lowering() {
    use hirata_workloads::linked_list::{eager_program, ListShape};
    use hirata_workloads::livermore::kernel1_program;
    use hirata_workloads::raytrace::{raytrace_program, RayTraceParams};

    assert_store_matches_raw(&raytrace_program(&RayTraceParams::default()), "raytrace");
    assert_store_matches_raw(
        &kernel1_program(64, hirata_sched::Strategy::ReservationB { threads: 4 }),
        "livermore-k1",
    );
    assert_store_matches_raw(
        &eager_program(ListShape { nodes: 60, break_at: Some(59) }),
        "fig6-list",
    );
}

/// Deterministic SplitMix64 so the random sweep reproduces exactly.
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

/// A random instruction drawn across every form the assembler can
/// produce (fields randomized within architectural ranges).
fn random_inst(rng: &mut SplitMix) -> Inst {
    let g = |rng: &mut SplitMix| GReg(1 + rng.below(7) as u8);
    let f = |rng: &mut SplitMix| FReg(1 + rng.below(7) as u8);
    match rng.below(16) {
        0 => Inst::IntOp {
            op: [IntOp::Add, IntOp::Sub, IntOp::Mul, IntOp::Div, IntOp::And, IntOp::Sll]
                [rng.below(6) as usize],
            rd: g(rng),
            rs: g(rng),
            src2: if rng.below(2) == 0 {
                GSrc::Reg(g(rng))
            } else {
                GSrc::Imm(rng.below(100) as i64 - 50)
            },
        },
        1 => Inst::Li { rd: g(rng), imm: rng.below(1000) as i64 - 500 },
        2 => Inst::LiF { fd: f(rng), imm: rng.below(100) as f64 / 8.0 },
        3 => Inst::FpBin {
            op: [FpBinOp::FAdd, FpBinOp::FSub, FpBinOp::FMul, FpBinOp::FDiv][rng.below(4) as usize],
            fd: f(rng),
            fs: f(rng),
            ft: f(rng),
        },
        4 => Inst::FpUn {
            op: [FpUnOp::FAbs, FpUnOp::FNeg, FpUnOp::FMov][rng.below(3) as usize],
            fd: f(rng),
            fs: f(rng),
        },
        5 => Inst::FpCmp { cond: BranchCond::Le, rd: g(rng), fs: f(rng), ft: f(rng) },
        6 => Inst::CvtIF { fd: f(rng), rs: g(rng) },
        7 => Inst::CvtFI { rd: g(rng), fs: f(rng) },
        8 => Inst::Load {
            dst: if rng.below(2) == 0 { Reg::G(g(rng)) } else { Reg::F(f(rng)) },
            base: g(rng),
            off: rng.below(64) as i64,
        },
        9 => Inst::Store {
            src: if rng.below(2) == 0 { Reg::G(g(rng)) } else { Reg::F(f(rng)) },
            base: g(rng),
            off: rng.below(64) as i64,
            gated: rng.below(4) == 0,
        },
        10 => Inst::Branch {
            cond: [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt, BranchCond::Ge]
                [rng.below(4) as usize],
            rs: g(rng),
            src2: GSrc::Imm(0),
            target: rng.below(4) as u32,
        },
        11 => Inst::Jump { target: rng.below(4) as u32 },
        12 => Inst::Lpid { rd: g(rng) },
        13 => Inst::Nlp { rd: g(rng) },
        14 => Inst::Nop,
        _ => Inst::Drain,
    }
}

#[test]
fn seeded_random_programs_predecode_to_their_raw_lowering() {
    for seed in 0..32u64 {
        let mut rng = SplitMix(0xDEC0DE ^ seed.wrapping_mul(0x9E3779B9));
        let mut program = Program::default();
        for _ in 0..64 {
            program.insts.push(random_inst(&mut rng));
        }
        program.insts.push(Inst::Halt);
        assert_store_matches_raw(&program, &format!("random seed {seed}"));
    }
}

/// Machines built from one shared `Arc<PredecodedProgram>` must be
/// indistinguishable from machines that lowered the program privately:
/// identical cycle counts, instruction counts, and final memory.
#[test]
fn shared_store_machines_match_fresh_lowering() {
    use hirata_workloads::linked_list::{eager_program, ListShape};

    let program = eager_program(ListShape { nodes: 60, break_at: Some(59) });
    let shared: Arc<PredecodedProgram> =
        PredecodedProgram::shared(&program).expect("program predecodes");
    for slots in [2usize, 4, 8] {
        let config = Config::multithreaded(slots);
        let mut fresh = Machine::new(config.clone(), &program).expect("fresh machine");
        let mut reused =
            Machine::from_predecoded(config, Arc::clone(&shared)).expect("shared machine");
        fresh.run().expect("fresh run");
        reused.run().expect("shared run");
        assert_eq!(fresh.cycles(), reused.cycles(), "{slots} slots: cycle count");
        assert_eq!(
            fresh.stats().instructions,
            reused.stats().instructions,
            "{slots} slots: instruction count"
        );
        assert_eq!(fresh.memory(), reused.memory(), "{slots} slots: final memory");
    }
    // The store is genuinely shared, not cloned per machine.
    assert_eq!(Arc::strong_count(&shared), 1, "machines dropped their references");
}
