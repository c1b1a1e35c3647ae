//! Architectural execution of functional-unit instructions.
//!
//! The machine captures operand *values* at issue time (operands are
//! read in stage S and carried into standby stations, §2.1.1), so
//! execution here is a pure function of the instruction and its
//! captured operand bits: [`fu_action`], which the cycle-level machine
//! and the architectural emulator both call.
//!
//! Operand reads differ by design. The emulator, the independent
//! reference, resolves each instruction's operands from the
//! instruction itself (`resolve_operands` over [`Inst::srcs`]). The
//! machine reads the predecoded operand bytes, and debug builds check
//! every such read against the same resolver.

use hirata_isa::{BranchCond, FpBinOp, FpUnOp, GSrc, Inst, IntOp};

use crate::predecode::DecodedInst;

/// Debug-only check that a predecoded entry still matches a fresh
/// decode of its instruction — the differential guard for the
/// predecode pass (including the operand bytes and the folded
/// immediate). Release builds compile this to nothing.
#[inline]
pub(crate) fn debug_assert_fresh_decode(d: &DecodedInst) {
    debug_assert_eq!(
        *d,
        DecodedInst::of(d.inst),
        "predecoded entry diverged from a fresh decode of `{}`",
        d.inst
    );
}

/// What a functional unit does when it finally executes an
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FuAction {
    /// Write the given bits to the destination register.
    Write(u64),
    /// Load from data memory into the destination register.
    Load {
        /// Word address.
        addr: u64,
    },
    /// Store to data memory.
    Store {
        /// Word address.
        addr: u64,
        /// Raw bits to store.
        bits: u64,
    },
}

/// Resolves the two operand slots of `inst` to concrete bit patterns.
/// `read` supplies register bits for the registers named by
/// [`Inst::srcs`]; immediates are folded in here. The emulator's
/// operand read, and the machine's debug cross-check.
pub(crate) fn resolve_operands(
    inst: &Inst,
    mut read: impl FnMut(hirata_isa::Reg) -> u64,
) -> [u64; 2] {
    let regs = inst.srcs();
    let mut vals = [0u64; 2];
    for (slot, reg) in regs.iter().enumerate() {
        if let Some(r) = reg {
            vals[slot] = read(*r);
        }
    }
    // Immediate second operands occupy the register-free slot.
    match inst {
        Inst::IntOp { src2: GSrc::Imm(i), .. } | Inst::Branch { src2: GSrc::Imm(i), .. } => {
            vals[1] = *i as u64;
        }
        _ => {}
    }
    vals
}

/// Evaluates a branch condition on integer operand bits.
pub(crate) fn branch_taken(cond: BranchCond, vals: [u64; 2]) -> bool {
    cond.eval(vals[0] as i64, vals[1] as i64)
}

fn int_op(op: IntOp, a: i64, b: i64) -> i64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Slt => (a < b) as i64,
        IntOp::Sle => (a <= b) as i64,
        IntOp::Seq => (a == b) as i64,
        IntOp::Sne => (a != b) as i64,
        IntOp::Sll => a.wrapping_shl(b as u32 & 63),
        IntOp::Srl => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        IntOp::Sra => a.wrapping_shr(b as u32 & 63),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IntOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
    }
}

fn fp_cmp(cond: BranchCond, a: f64, b: f64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => a < b,
        BranchCond::Le => a <= b,
        BranchCond::Gt => a > b,
        BranchCond::Ge => a >= b,
    }
}

/// Computes the effect of a functional-unit instruction from its
/// captured operand bits. `lpid` and `nlp` feed the `lpid`/`nlp`
/// special reads.
///
/// Returns `None` for decode-unit instructions (those never reach a
/// functional unit); callers surface that as
/// [`crate::MachineError::DecodeAtFu`] so a malformed program becomes
/// a reportable machine check instead of a panic.
pub fn fu_action(inst: &Inst, vals: [u64; 2], lpid: i64, nlp: i64) -> Option<FuAction> {
    Some(match *inst {
        Inst::IntOp { op, .. } => {
            FuAction::Write(int_op(op, vals[0] as i64, vals[1] as i64) as u64)
        }
        Inst::Li { imm, .. } => FuAction::Write(imm as u64),
        Inst::LiF { imm, .. } => FuAction::Write(imm.to_bits()),
        Inst::FpBin { op, .. } => {
            let (a, b) = (f64::from_bits(vals[0]), f64::from_bits(vals[1]));
            let r = match op {
                FpBinOp::FAdd => a + b,
                FpBinOp::FSub => a - b,
                FpBinOp::FMul => a * b,
                FpBinOp::FDiv => a / b,
            };
            FuAction::Write(r.to_bits())
        }
        Inst::FpUn { op, .. } => {
            let a = f64::from_bits(vals[0]);
            let r = match op {
                FpUnOp::FAbs => a.abs(),
                FpUnOp::FNeg => -a,
                FpUnOp::FMov => a,
            };
            FuAction::Write(r.to_bits())
        }
        Inst::FpCmp { cond, .. } => {
            let (a, b) = (f64::from_bits(vals[0]), f64::from_bits(vals[1]));
            FuAction::Write(fp_cmp(cond, a, b) as u64)
        }
        Inst::CvtIF { .. } => FuAction::Write(((vals[0] as i64) as f64).to_bits()),
        Inst::CvtFI { .. } => FuAction::Write((f64::from_bits(vals[0]) as i64) as u64),
        Inst::Lpid { .. } => FuAction::Write(lpid as u64),
        Inst::Nlp { .. } => FuAction::Write(nlp as u64),
        Inst::Load { off, .. } => {
            FuAction::Load { addr: (vals[0] as i64).wrapping_add(off) as u64 }
        }
        Inst::Store { off, .. } => {
            FuAction::Store { addr: (vals[1] as i64).wrapping_add(off) as u64, bits: vals[0] }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_isa::{FReg, GReg, Reg};

    fn g(n: u8) -> Reg {
        Reg::G(GReg(n))
    }

    #[test]
    fn resolve_folds_immediates() {
        let inst = Inst::IntOp { op: IntOp::Add, rd: GReg(1), rs: GReg(2), src2: GSrc::Imm(-3) };
        let vals = resolve_operands(&inst, |r| {
            assert_eq!(r, g(2));
            10u64
        });
        assert_eq!(vals[0], 10);
        assert_eq!(vals[1] as i64, -3);
    }

    #[test]
    fn integer_semantics() {
        let cases = [
            (IntOp::Add, 3, 4, 7),
            (IntOp::Sub, 3, 4, -1),
            (IntOp::And, 0b1100, 0b1010, 0b1000),
            (IntOp::Or, 0b1100, 0b1010, 0b1110),
            (IntOp::Xor, 0b1100, 0b1010, 0b0110),
            (IntOp::Slt, -1, 0, 1),
            (IntOp::Sle, 5, 5, 1),
            (IntOp::Seq, 5, 6, 0),
            (IntOp::Sne, 5, 6, 1),
            (IntOp::Sll, 1, 4, 16),
            (IntOp::Srl, -1, 60, 15),
            (IntOp::Sra, -16, 2, -4),
            (IntOp::Mul, -3, 7, -21),
            (IntOp::Div, 7, 2, 3),
            (IntOp::Div, 7, 0, 0),
            (IntOp::Rem, 7, 2, 1),
            (IntOp::Rem, 7, 0, 0),
        ];
        for (op, a, b, want) in cases {
            assert_eq!(int_op(op, a, b), want, "{op:?} {a} {b}");
        }
    }

    #[test]
    fn overflow_wraps() {
        assert_eq!(int_op(IntOp::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(int_op(IntOp::Mul, i64::MAX, 2), -2);
        // i64::MIN / -1 would overflow a naive division.
        assert_eq!(int_op(IntOp::Div, i64::MIN, -1), i64::MIN);
    }

    #[test]
    fn fp_semantics() {
        let fadd = Inst::FpBin { op: FpBinOp::FAdd, fd: FReg(0), fs: FReg(1), ft: FReg(2) };
        let vals = [1.5f64.to_bits(), 2.25f64.to_bits()];
        assert_eq!(fu_action(&fadd, vals, 0, 1).unwrap(), FuAction::Write(3.75f64.to_bits()));

        let fdiv = Inst::FpBin { op: FpBinOp::FDiv, fd: FReg(0), fs: FReg(1), ft: FReg(2) };
        let vals = [1.0f64.to_bits(), 0.0f64.to_bits()];
        assert_eq!(fu_action(&fdiv, vals, 0, 1).unwrap(), FuAction::Write(f64::INFINITY.to_bits()));

        let fneg = Inst::FpUn { op: FpUnOp::FNeg, fd: FReg(0), fs: FReg(1) };
        assert_eq!(
            fu_action(&fneg, [2.0f64.to_bits(), 0], 0, 1).unwrap(),
            FuAction::Write((-2.0f64).to_bits())
        );
    }

    #[test]
    fn fp_compare_writes_zero_or_one() {
        let cmp = Inst::FpCmp { cond: BranchCond::Lt, rd: GReg(1), fs: FReg(0), ft: FReg(1) };
        assert_eq!(
            fu_action(&cmp, [1.0f64.to_bits(), 2.0f64.to_bits()], 0, 1).unwrap(),
            FuAction::Write(1)
        );
        assert_eq!(
            fu_action(&cmp, [2.0f64.to_bits(), 1.0f64.to_bits()], 0, 1).unwrap(),
            FuAction::Write(0)
        );
        // NaN compares false.
        assert_eq!(
            fu_action(&cmp, [f64::NAN.to_bits(), 1.0f64.to_bits()], 0, 1).unwrap(),
            FuAction::Write(0)
        );
    }

    #[test]
    fn conversions() {
        let cvtif = Inst::CvtIF { fd: FReg(0), rs: GReg(1) };
        assert_eq!(
            fu_action(&cvtif, [(-7i64) as u64, 0], 0, 1).unwrap(),
            FuAction::Write((-7.0f64).to_bits())
        );
        let cvtfi = Inst::CvtFI { rd: GReg(1), fs: FReg(0) };
        assert_eq!(
            fu_action(&cvtfi, [(-7.9f64).to_bits(), 0], 0, 1).unwrap(),
            FuAction::Write(-7i64 as u64)
        );
    }

    #[test]
    fn load_store_addressing() {
        let load = Inst::Load { dst: g(1), base: GReg(2), off: -4 };
        assert_eq!(fu_action(&load, [100, 0], 0, 1).unwrap(), FuAction::Load { addr: 96 });

        let store = Inst::Store { src: g(1), base: GReg(2), off: 8, gated: false };
        // vals[0] = value, vals[1] = base.
        assert_eq!(
            fu_action(&store, [42, 100], 0, 1).unwrap(),
            FuAction::Store { addr: 108, bits: 42 }
        );
    }

    #[test]
    fn lpid_and_nlp_reads() {
        assert_eq!(
            fu_action(&Inst::Lpid { rd: GReg(1) }, [0, 0], 3, 4).unwrap(),
            FuAction::Write(3)
        );
        assert_eq!(
            fu_action(&Inst::Nlp { rd: GReg(1) }, [0, 0], 3, 4).unwrap(),
            FuAction::Write(4)
        );
    }

    #[test]
    fn branch_taken_on_integers() {
        assert!(branch_taken(BranchCond::Lt, [(-1i64) as u64, 0]));
        assert!(!branch_taken(BranchCond::Gt, [(-1i64) as u64, 0]));
    }

    #[test]
    fn decode_op_is_rejected() {
        assert_eq!(fu_action(&Inst::Halt, [0, 0], 0, 1), None);
        assert_eq!(fu_action(&Inst::Nop, [0, 0], 0, 1), None);
    }
}
