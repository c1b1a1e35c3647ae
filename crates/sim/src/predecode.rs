//! One-time lowering of a [`Program`] into a dense predecoded
//! instruction store.
//!
//! The cycle loop interrogates every window entry several times per
//! cycle — functional-unit class, operands, memory/priority
//! classification, latencies. Recomputing those from the [`Inst`]
//! enum on every query keeps the simulator correct but slow;
//! [`PredecodedProgram`] computes them once at load time into a flat
//! [`DecodedInst`] array indexed by instruction address, and machines
//! share the store through an [`std::sync::Arc`] instead of cloning
//! the whole program (labels included) per machine.
//!
//! Each operand has one encoding, an operand byte: a register's dense
//! index (0..63, [`Reg::dense_index`]'s layout, the index the
//! register bank and its scoreboard take), [`SRC_IMM`] for the folded
//! immediate, or [`NO_REG`]. Issue checks, operand reads and
//! writeback use these bytes alone.
//!
//! The lowering is pure derivation: every field of a [`DecodedInst`]
//! is a function of its [`Inst`]. Debug builds re-check that
//! invariant on the execution path (see
//! [`crate::exec`]'s `debug_assert_fresh_decode`), and the
//! `predecode` integration test sweeps every instruction form.

use std::sync::Arc;

use hirata_isa::{DataSegment, FuClass, GSrc, Inst, Latency, Program, Reg};

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

/// Operand byte of a source slot that takes the folded immediate
/// ([`DecodedInst::imm`]).
pub const SRC_IMM: u8 = 0xFE;
/// Operand byte of an unused source slot, or of no destination.
pub const NO_REG: u8 = 0xFF;

/// The operand byte naming `reg`: its dense index.
pub(crate) fn operand(reg: Reg) -> u8 {
    reg.dense_index() as u8
}

/// The register an operand byte names, for traces and error texts.
pub(crate) fn reg_name(op: u8) -> Reg {
    Reg::from_dense_index(op.into()).expect("the operand byte names a register")
}

/// True if an operand byte names a register (not [`SRC_IMM`] or
/// [`NO_REG`]).
#[inline]
pub(crate) fn is_reg(op: u8) -> bool {
    op < SRC_IMM
}

/// One instruction with every hot-loop-relevant property resolved at
/// load time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInst {
    /// The architectural instruction (still needed for execution
    /// semantics and tracing).
    pub inst: Inst,
    /// Functional-unit class, or `None` for decode-unit instructions.
    pub fu: Option<FuClass>,
    /// Source operand bytes in [`Inst::srcs`] order: a register's
    /// dense index, [`SRC_IMM`] (only in slot 1), or [`NO_REG`].
    pub src: [u8; 2],
    /// Destination operand byte: the dense index of [`Inst::dest`], or
    /// [`NO_REG`].
    pub dst: u8,
    /// Bitmask of the source registers by dense index, for the issue
    /// window's hazard accumulators (D > 1).
    pub src_mask: u64,
    /// Bitmask of the destination register by dense index.
    pub dest_mask: u64,
    /// Issue/result latency per Table 1.
    pub latency: Latency,
    /// Classification bits from [`flags`].
    pub flags: u8,
    /// The folded second operand of an immediate-form `IntOp`/`Branch`
    /// (read through [`SRC_IMM`]); 0 for every other instruction.
    pub imm: u64,
}

impl DecodedInst {
    /// Lowers one instruction. The result is a pure function of
    /// `inst`; see the module docs.
    pub fn of(inst: Inst) -> Self {
        let mut src = inst.srcs().map(|r| r.map_or(NO_REG, operand));
        let dst = inst.dest().map_or(NO_REG, operand);
        // The immediate second operand occupies the register-free slot
        // (mirroring `exec::resolve_operands`).
        let imm = match inst {
            Inst::IntOp { src2: GSrc::Imm(i), .. } | Inst::Branch { src2: GSrc::Imm(i), .. } => {
                src[1] = SRC_IMM;
                i as u64
            }
            _ => 0,
        };
        let bit = |op: u8| if is_reg(op) { 1u64 << op } else { 0 };
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
        DecodedInst {
            inst,
            fu,
            src,
            dst,
            src_mask: bit(src[0]) | bit(src[1]),
            dest_mask: bit(dst),
            latency: inst.latency(),
            flags: fl,
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
    use hirata_isa::{FReg, GReg, GSrc, IntOp};

    #[test]
    fn lowering_matches_accessors() {
        let inst =
            Inst::IntOp { op: IntOp::Mul, rd: GReg(1), rs: GReg(2), src2: GSrc::Reg(GReg(3)) };
        let d = DecodedInst::of(inst);
        assert_eq!(d.fu, inst.fu_class());
        assert_eq!((d.src, d.dst), ([2, 3], 1));
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
    fn operands_fold_immediates_and_offsets() {
        // Immediate form: slot 1 takes the folded immediate.
        let ri = DecodedInst::of(Inst::IntOp {
            op: IntOp::Sub,
            rd: GReg(1),
            rs: GReg(2),
            src2: GSrc::Imm(-3),
        });
        assert_eq!((ri.src, ri.dst), ([2, SRC_IMM], 1));
        assert_eq!(ri.imm as i64, -3);

        // li/lif: no sources; the value is the instruction's own.
        let li = DecodedInst::of(Inst::Li { rd: GReg(4), imm: -9 });
        assert_eq!((li.src, li.dst, li.imm), ([NO_REG, NO_REG], 4, 0));

        // Memory operations name their registers, floating ones past
        // the 32 integer registers; the displacement stays in the
        // instruction.
        let lf = DecodedInst::of(Inst::Load { dst: Reg::F(FReg(5)), base: GReg(6), off: -4 });
        assert_eq!((lf.src, lf.dst, lf.imm), ([6, NO_REG], 37, 0));
        let sw = DecodedInst::of(Inst::Store {
            src: Reg::G(GReg(7)),
            base: GReg(8),
            off: 12,
            gated: false,
        });
        assert_eq!((sw.src, sw.dst, sw.imm), ([7, 8], NO_REG, 0));
        assert_eq!((sw.src_mask, sw.dest_mask), ((1 << 7) | (1 << 8), 0));
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
