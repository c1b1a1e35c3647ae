//! One-time lowering of a [`Program`] into a dense predecoded
//! instruction store.
//!
//! The cycle loop interrogates every window entry several times per
//! cycle — functional-unit class, source and destination registers,
//! memory/priority classification, latencies. Recomputing those from
//! the [`Inst`] enum on every query keeps the simulator correct but
//! slow; [`PredecodedProgram`] computes them once at load time into a
//! flat [`DecodedInst`] array indexed by instruction address, and
//! machines share the store through an [`std::sync::Arc`] instead of
//! cloning the whole program (labels included) per machine.
//!
//! The lowering is pure derivation: every field of a [`DecodedInst`]
//! is a function of its [`Inst`]. Debug builds re-check that
//! invariant on the execution path (see
//! [`crate::exec`]'s `debug_assert_fresh_decode`), and the
//! `predecode` integration test sweeps every instruction form.

use std::sync::Arc;

use hirata_isa::{
    BranchCond, DataSegment, FpBinOp, FpUnOp, FuClass, GSrc, Inst, IntOp, Latency, Program, Reg,
};

use crate::error::MachineError;

/// Classification flags precomputed from an instruction (bit set in
/// [`DecodedInst::flags`]).
pub mod flags {
    /// Memory operation (load or store).
    pub const IS_MEM: u8 = 1 << 0;
    /// Store (subset of `IS_MEM`).
    pub const IS_STORE: u8 = 1 << 1;
    /// Interlocks until the issuing slot holds the highest priority
    /// (`chgpri`, `killothers`, gated stores).
    pub const NEEDS_HIGHEST: u8 = 1 << 2;
    /// Redirects control flow (branches and jumps).
    pub const IS_CONTROL: u8 = 1 << 3;
    /// Executed entirely inside the decode unit (no functional-unit
    /// class).
    pub const DECODE_UNIT: u8 = 1 << 4;
}

/// Dense execution code of one µop: every distinct functional-unit
/// operation gets its own code, so execute-time dispatch is a single
/// indexed load from the [`crate::exec`] handler table instead of the
/// nested `Inst`/`IntOp`/`FpBinOp`/[`BranchCond`] matches it replaced.
///
/// Like every other [`DecodedInst`] field, the code is a pure function
/// of the instruction (see [`ExecOp::of`]); debug builds cross-check
/// each dispatch against a fresh enum-match evaluation
/// (`exec::fu_action`), and the `uop` integration test sweeps every
/// instruction form plus seeded random programs through both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExecOp {
    /// Executed inside the decode unit — never dispatched to a
    /// functional unit (the machine surfaces an attempt as
    /// [`MachineError::DecodeAtFu`]).
    DecodeUnit = 0,
    /// `add` — wrapping integer add.
    IntAdd,
    /// `sub` — wrapping integer subtract.
    IntSub,
    /// `and` — bitwise and.
    IntAnd,
    /// `or` — bitwise or.
    IntOr,
    /// `xor` — bitwise exclusive or.
    IntXor,
    /// `slt` — set if less than (signed).
    IntSlt,
    /// `sle` — set if less or equal (signed).
    IntSle,
    /// `seq` — set if equal.
    IntSeq,
    /// `sne` — set if not equal.
    IntSne,
    /// `sll` — shift left logical (shift amount masked to 6 bits).
    IntSll,
    /// `srl` — shift right logical.
    IntSrl,
    /// `sra` — shift right arithmetic.
    IntSra,
    /// `mul` — wrapping integer multiply.
    IntMul,
    /// `div` — wrapping integer divide (0 on a zero divisor).
    IntDiv,
    /// `rem` — wrapping integer remainder (0 on a zero divisor).
    IntRem,
    /// `li` / `lif` — write the pre-extracted immediate bits.
    LoadImm,
    /// `fadd`.
    FAdd,
    /// `fsub`.
    FSub,
    /// `fmul`.
    FMul,
    /// `fdiv` (IEEE semantics; division by zero gives an infinity).
    FDiv,
    /// `fabs`.
    FAbs,
    /// `fneg`.
    FNeg,
    /// `fmov`.
    FMov,
    /// `fcmp.eq` — floating compare, writes 0/1 to an integer register.
    FCmpEq,
    /// `fcmp.ne`.
    FCmpNe,
    /// `fcmp.lt`.
    FCmpLt,
    /// `fcmp.le`.
    FCmpLe,
    /// `fcmp.gt`.
    FCmpGt,
    /// `fcmp.ge`.
    FCmpGe,
    /// `cvtif` — integer to float.
    CvtIF,
    /// `cvtfi` — float to integer (truncating).
    CvtFI,
    /// `lpid` — read the logical-processor id.
    Lpid,
    /// `nlp` — read the number of logical processors.
    Nlp,
    /// `lw` / `lf` — load from `vals[0] + imm`.
    Load,
    /// `sw` / `sf` (and gated variants) — store `vals[0]` to
    /// `vals[1] + imm`.
    Store,
}

/// Number of [`ExecOp`] codes (the handler-table length).
pub const EXEC_OP_COUNT: usize = ExecOp::Store as usize + 1;

impl ExecOp {
    /// Lowers one instruction to its µop code — a pure derivation,
    /// like the rest of the predecode pass.
    pub fn of(inst: &Inst) -> Self {
        match *inst {
            Inst::IntOp { op, .. } => match op {
                IntOp::Add => ExecOp::IntAdd,
                IntOp::Sub => ExecOp::IntSub,
                IntOp::And => ExecOp::IntAnd,
                IntOp::Or => ExecOp::IntOr,
                IntOp::Xor => ExecOp::IntXor,
                IntOp::Slt => ExecOp::IntSlt,
                IntOp::Sle => ExecOp::IntSle,
                IntOp::Seq => ExecOp::IntSeq,
                IntOp::Sne => ExecOp::IntSne,
                IntOp::Sll => ExecOp::IntSll,
                IntOp::Srl => ExecOp::IntSrl,
                IntOp::Sra => ExecOp::IntSra,
                IntOp::Mul => ExecOp::IntMul,
                IntOp::Div => ExecOp::IntDiv,
                IntOp::Rem => ExecOp::IntRem,
            },
            Inst::Li { .. } | Inst::LiF { .. } => ExecOp::LoadImm,
            Inst::FpBin { op, .. } => match op {
                FpBinOp::FAdd => ExecOp::FAdd,
                FpBinOp::FSub => ExecOp::FSub,
                FpBinOp::FMul => ExecOp::FMul,
                FpBinOp::FDiv => ExecOp::FDiv,
            },
            Inst::FpUn { op, .. } => match op {
                FpUnOp::FAbs => ExecOp::FAbs,
                FpUnOp::FNeg => ExecOp::FNeg,
                FpUnOp::FMov => ExecOp::FMov,
            },
            Inst::FpCmp { cond, .. } => match cond {
                BranchCond::Eq => ExecOp::FCmpEq,
                BranchCond::Ne => ExecOp::FCmpNe,
                BranchCond::Lt => ExecOp::FCmpLt,
                BranchCond::Le => ExecOp::FCmpLe,
                BranchCond::Gt => ExecOp::FCmpGt,
                BranchCond::Ge => ExecOp::FCmpGe,
            },
            Inst::CvtIF { .. } => ExecOp::CvtIF,
            Inst::CvtFI { .. } => ExecOp::CvtFI,
            Inst::Lpid { .. } => ExecOp::Lpid,
            Inst::Nlp { .. } => ExecOp::Nlp,
            Inst::Load { .. } => ExecOp::Load,
            Inst::Store { .. } => ExecOp::Store,
            _ => ExecOp::DecodeUnit,
        }
    }
}

/// Operand-capture plan entry: take the pre-folded immediate
/// ([`DecodedInst::imm`]) for this operand slot.
pub const CAP_IMM: u8 = 0xFE;
/// Operand-capture plan entry: the slot is unused (captures 0).
pub const CAP_NONE: u8 = 0xFF;

/// One instruction with every hot-loop-relevant property resolved at
/// load time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInst {
    /// The architectural instruction (still needed for execution
    /// semantics and tracing).
    pub inst: Inst,
    /// Functional-unit class, or `None` for decode-unit instructions.
    pub fu: Option<FuClass>,
    /// Source registers read (at most two).
    pub srcs: [Option<Reg>; 2],
    /// Destination register written, if any.
    pub dest: Option<Reg>,
    /// Dense-index bitmask of `srcs` (see [`Reg::dense_index`]).
    pub src_mask: u64,
    /// Dense-index bitmask of `dest`.
    pub dest_mask: u64,
    /// Issue/result latency per Table 1.
    pub latency: Latency,
    /// Classification bits from [`flags`].
    pub flags: u8,
    /// Dense execution code for the [`crate::exec`] handler table.
    pub exec_op: ExecOp,
    /// Operand-capture plan: per operand slot, either a register-bank
    /// dense index (0..63), [`CAP_IMM`] for the pre-folded immediate,
    /// or [`CAP_NONE`] for an unused slot — so issue-time capture is
    /// two indexed loads with zero enum matches (queue-mapped contexts
    /// fall back to the exact resolver, which has pop side effects).
    pub cap: [u8; 2],
    /// Pre-extracted immediate bits: the `li` value / `lif` bit
    /// pattern, the load/store displacement, or the folded second
    /// operand of an immediate-form `IntOp`/`Branch` (the uses never
    /// overlap, so one field serves all three).
    pub imm: u64,
}

impl DecodedInst {
    /// Lowers one instruction. The result is a pure function of
    /// `inst`; see the module docs.
    pub fn of(inst: Inst) -> Self {
        let srcs = inst.srcs();
        let dest = inst.dest();
        let mut src_mask = 0u64;
        for r in srcs.into_iter().flatten() {
            src_mask |= 1u64 << r.dense_index();
        }
        let dest_mask = dest.map_or(0, |d| 1u64 << d.dense_index());
        let fu = inst.fu_class();
        let mut fl = 0u8;
        if inst.is_mem() {
            fl |= flags::IS_MEM;
        }
        if matches!(inst, Inst::Store { .. }) {
            fl |= flags::IS_STORE;
        }
        if inst.needs_highest_priority() {
            fl |= flags::NEEDS_HIGHEST;
        }
        if inst.is_control() {
            fl |= flags::IS_CONTROL;
        }
        if fu.is_none() {
            fl |= flags::DECODE_UNIT;
        }
        let mut cap = [CAP_NONE; 2];
        for (slot, r) in srcs.iter().enumerate() {
            if let Some(r) = r {
                cap[slot] = r.dense_index() as u8;
            }
        }
        // The immediate second operand occupies the register-free slot
        // (mirroring `exec::resolve_operands`); `li`/`lif` and memory
        // displacements are consumed by the handlers instead.
        let imm = match inst {
            Inst::IntOp { src2: GSrc::Imm(i), .. } | Inst::Branch { src2: GSrc::Imm(i), .. } => {
                cap[1] = CAP_IMM;
                i as u64
            }
            Inst::Li { imm, .. } => imm as u64,
            Inst::LiF { imm, .. } => imm.to_bits(),
            Inst::Load { off, .. } | Inst::Store { off, .. } => off as u64,
            _ => 0,
        };
        DecodedInst {
            inst,
            fu,
            srcs,
            dest,
            src_mask,
            dest_mask,
            latency: inst.latency(),
            flags: fl,
            exec_op: ExecOp::of(&inst),
            cap,
            imm,
        }
    }

    /// Memory operation?
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.flags & flags::IS_MEM != 0
    }

    /// Store?
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & flags::IS_STORE != 0
    }

    /// Priority-gated store (`swp`/`sfp`)?
    #[inline]
    pub fn is_gated_store(&self) -> bool {
        const GATED: u8 = flags::IS_STORE | flags::NEEDS_HIGHEST;
        self.flags & GATED == GATED
    }

    /// Interlocks until the issuing slot holds the highest priority?
    #[inline]
    pub fn needs_highest_priority(&self) -> bool {
        self.flags & flags::NEEDS_HIGHEST != 0
    }

    /// Executed inside the decode unit (no functional-unit class)?
    #[inline]
    pub fn is_decode_unit(&self) -> bool {
        self.flags & flags::DECODE_UNIT != 0
    }

    /// Issue latency (cycles the functional unit is held).
    #[inline]
    pub fn issue_latency(&self) -> u32 {
        self.latency.issue
    }
}

/// A program lowered once into dense [`DecodedInst`] entries, shared
/// between machines by `Arc` (see [`crate::Machine::from_predecoded`]).
///
/// Label metadata is dropped at this point — the machine resolves
/// nothing at run time — which is also why sharing the predecoded form
/// beats cloning the [`Program`] per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedProgram {
    insts: Box<[DecodedInst]>,
    data: Vec<DataSegment>,
    entry: u32,
}

impl PredecodedProgram {
    /// Validates and lowers `program`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if the program fails
    /// [`Program::validate`] or has no instructions.
    pub fn new(program: &Program) -> Result<Self, MachineError> {
        program.validate()?;
        if program.is_empty() {
            return Err(MachineError::EmptyProgram);
        }
        Ok(PredecodedProgram {
            insts: program.insts.iter().map(|&i| DecodedInst::of(i)).collect(),
            data: program.data.clone(),
            entry: program.entry,
        })
    }

    /// Convenience: lower and wrap in an [`Arc`] for sharing across
    /// machines.
    ///
    /// # Errors
    ///
    /// As for [`PredecodedProgram::new`].
    pub fn shared(program: &Program) -> Result<Arc<Self>, MachineError> {
        Self::new(program).map(Arc::new)
    }

    /// The decoded instruction store, indexed by instruction address.
    #[inline]
    pub fn insts(&self) -> &[DecodedInst] {
        &self.insts
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions (never the case for a
    /// constructed `PredecodedProgram`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Initial data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// Entry address.
    pub fn entry(&self) -> u32 {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_asm::assemble;
    use hirata_isa::{GReg, GSrc, IntOp};

    #[test]
    fn lowering_matches_accessors() {
        let inst =
            Inst::IntOp { op: IntOp::Mul, rd: GReg(1), rs: GReg(2), src2: GSrc::Reg(GReg(3)) };
        let d = DecodedInst::of(inst);
        assert_eq!(d.fu, inst.fu_class());
        assert_eq!(d.srcs, inst.srcs());
        assert_eq!(d.dest, inst.dest());
        assert_eq!(d.latency, inst.latency());
        assert_eq!(d.src_mask, (1 << 2) | (1 << 3));
        assert_eq!(d.dest_mask, 1 << 1);
        assert!(!d.is_mem() && !d.needs_highest_priority() && !d.is_decode_unit());
    }

    #[test]
    fn gated_store_flags() {
        let d = DecodedInst::of(Inst::Store {
            src: Reg::G(GReg(1)),
            base: GReg(2),
            off: 0,
            gated: true,
        });
        assert!(d.is_mem() && d.is_store() && d.is_gated_store() && d.needs_highest_priority());
        let plain = DecodedInst::of(Inst::Store {
            src: Reg::G(GReg(1)),
            base: GReg(2),
            off: 0,
            gated: false,
        });
        assert!(plain.is_store() && !plain.is_gated_store());
    }

    #[test]
    fn capture_plans_fold_immediates_and_offsets() {
        // Register form: both slots are dense register indices.
        let rr = DecodedInst::of(Inst::IntOp {
            op: IntOp::Add,
            rd: GReg(1),
            rs: GReg(2),
            src2: GSrc::Reg(GReg(3)),
        });
        assert_eq!(rr.cap, [2, 3]);
        assert_eq!(rr.exec_op, ExecOp::IntAdd);

        // Immediate form: slot 1 takes the pre-folded immediate.
        let ri = DecodedInst::of(Inst::IntOp {
            op: IntOp::Sub,
            rd: GReg(1),
            rs: GReg(2),
            src2: GSrc::Imm(-3),
        });
        assert_eq!(ri.cap, [2, CAP_IMM]);
        assert_eq!(ri.imm as i64, -3);

        // li/lif: no sources, handler consumes the immediate bits.
        let li = DecodedInst::of(Inst::Li { rd: GReg(4), imm: -9 });
        assert_eq!(li.cap, [CAP_NONE, CAP_NONE]);
        assert_eq!((li.exec_op, li.imm as i64), (ExecOp::LoadImm, -9));
        let lif = DecodedInst::of(Inst::LiF { fd: hirata_isa::FReg(1), imm: 2.5 });
        assert_eq!((lif.exec_op, lif.imm), (ExecOp::LoadImm, 2.5f64.to_bits()));

        // Memory displacement rides in `imm`; base registers in `cap`.
        let lw = DecodedInst::of(Inst::Load { dst: Reg::G(GReg(5)), base: GReg(6), off: -4 });
        assert_eq!((lw.exec_op, lw.cap[0], lw.imm as i64), (ExecOp::Load, 6, -4));
        let sw = DecodedInst::of(Inst::Store {
            src: Reg::G(GReg(7)),
            base: GReg(8),
            off: 12,
            gated: false,
        });
        assert_eq!((sw.exec_op, sw.cap, sw.imm as i64), (ExecOp::Store, [7, 8], 12));

        // Decode-unit instructions carry the sentinel code.
        assert_eq!(DecodedInst::of(Inst::Halt).exec_op, ExecOp::DecodeUnit);
        assert_eq!(DecodedInst::of(Inst::Jump { target: 3 }).exec_op, ExecOp::DecodeUnit);
    }

    #[test]
    fn program_lowering_preserves_data_and_entry() {
        let prog = assemble("li r1, #1\nsw r1, 0(r0)\nhalt").unwrap();
        let pre = PredecodedProgram::new(&prog).unwrap();
        assert_eq!(pre.len(), prog.insts.len());
        assert_eq!(pre.entry(), prog.entry);
        assert_eq!(pre.data(), prog.data.as_slice());
        for (d, &i) in pre.insts().iter().zip(&prog.insts) {
            assert_eq!(d.inst, i);
        }
    }

    #[test]
    fn empty_program_is_rejected() {
        let prog = Program::default();
        assert!(matches!(PredecodedProgram::new(&prog), Err(MachineError::EmptyProgram)));
    }
}
