//! The [`Program`] container: instructions, an initial data image, and
//! a label map.
//!
//! Instruction memory and data memory are separate address spaces, as
//! in the paper's Harvard-style split of instruction and data caches
//! (Figure 2). Instruction addresses are indices into
//! [`Program::insts`]; data addresses are word indices into the data
//! memory of the simulated machine.

use std::collections::BTreeMap;
use std::fmt;

use crate::inst::{Inst, RotationMode};

/// A contiguous run of initialized data words.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataSegment {
    /// First word address covered by `words`.
    pub base: u64,
    /// Raw 64-bit memory words (integer values as two's complement
    /// `i64` bits, floats as `f64` bits).
    pub words: Vec<u64>,
}

impl DataSegment {
    /// One past the last initialized address.
    pub fn end(&self) -> u64 {
        self.base + self.words.len() as u64
    }
}

/// An executable program: instructions plus initialized data.
///
/// # Examples
///
/// ```
/// use hirata_isa::{GReg, Inst, Program};
///
/// let prog = Program::from_insts(vec![
///     Inst::Li { rd: GReg(1), imm: 42 },
///     Inst::Halt,
/// ]);
/// assert_eq!(prog.len(), 2);
/// prog.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Instruction memory.
    pub insts: Vec<Inst>,
    /// Initialized data segments (non-overlapping, sorted by base).
    pub data: Vec<DataSegment>,
    /// Entry point (instruction address of the first instruction the
    /// initial thread executes).
    pub entry: u32,
    /// Label name → instruction address, retained for diagnostics and
    /// disassembly.
    pub labels: BTreeMap<String, u32>,
}

/// Error found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch or jump targets an address outside the program.
    TargetOutOfRange {
        /// Address of the offending instruction.
        at: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// The entry point is outside the program.
    EntryOutOfRange {
        /// The out-of-range entry address.
        entry: u32,
    },
    /// Two initialized data segments overlap.
    OverlappingData {
        /// Base address of the second of the overlapping segments.
        base: u64,
    },
    /// A `setrot implicit` instruction carries a zero interval (the
    /// assembler and `Config` validation reject one too; only a binary
    /// program can spell it).
    ZeroRotationInterval {
        /// Address of the offending instruction.
        at: u32,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction @{at} targets out-of-range address @{target}")
            }
            ProgramError::EntryOutOfRange { entry } => {
                write!(f, "entry point @{entry} is outside the program")
            }
            ProgramError::OverlappingData { base } => {
                write!(f, "data segment at word {base} overlaps an earlier segment")
            }
            ProgramError::ZeroRotationInterval { at } => {
                write!(f, "instruction @{at} sets a zero rotation interval")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Builds a program from bare instructions with entry point 0 and
    /// no data.
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Program { insts, ..Program::default() }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Looks up a label's address.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Checks structural invariants: entry point and all control-flow
    /// targets in range, rotation intervals positive, data segments
    /// non-overlapping.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] encountered.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let n = self.insts.len() as u32;
        if self.entry >= n && !(self.entry == 0 && n == 0) {
            return Err(ProgramError::EntryOutOfRange { entry: self.entry });
        }
        for (at, inst) in self.insts.iter().enumerate() {
            if let Inst::SetRotation { mode: RotationMode::Implicit { interval: 0 } } = inst {
                return Err(ProgramError::ZeroRotationInterval { at: at as u32 });
            }
            let target = match *inst {
                Inst::Branch { target, .. } | Inst::Jump { target } => Some(target),
                _ => None,
            };
            if let Some(target) = target {
                if target >= n {
                    return Err(ProgramError::TargetOutOfRange { at: at as u32, target });
                }
            }
        }
        let mut segs: Vec<&DataSegment> = self.data.iter().collect();
        segs.sort_by_key(|s| s.base);
        for pair in segs.windows(2) {
            if pair[1].base < pair[0].end() {
                return Err(ProgramError::OverlappingData { base: pair[1].base });
            }
        }
        Ok(())
    }

    /// Renders a disassembly listing with addresses and label comments.
    ///
    /// # Examples
    ///
    /// ```
    /// use hirata_isa::{GReg, Inst, Program};
    /// let prog = Program::from_insts(vec![Inst::Li { rd: GReg(1), imm: 7 }, Inst::Halt]);
    /// let listing = prog.listing();
    /// assert!(listing.contains("li r1, #7"));
    /// ```
    pub fn listing(&self) -> String {
        use fmt::Write as _;
        let mut rev: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, &addr) in &self.labels {
            rev.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (addr, inst) in self.insts.iter().enumerate() {
            if let Some(names) = rev.get(&(addr as u32)) {
                for name in names {
                    let _ = writeln!(out, "{name}:");
                }
            }
            let _ = writeln!(out, "  @{addr:<5} {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchCond, GSrc};
    use crate::reg::GReg;

    #[test]
    fn validate_accepts_well_formed() {
        let prog = Program::from_insts(vec![
            Inst::Li { rd: GReg(1), imm: 1 },
            Inst::Branch { cond: BranchCond::Ne, rs: GReg(1), src2: GSrc::Imm(0), target: 0 },
            Inst::Halt,
        ]);
        assert_eq!(prog.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_target() {
        let prog = Program::from_insts(vec![Inst::Jump { target: 5 }]);
        assert_eq!(prog.validate(), Err(ProgramError::TargetOutOfRange { at: 0, target: 5 }));
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut prog = Program::from_insts(vec![Inst::Halt]);
        prog.entry = 3;
        assert_eq!(prog.validate(), Err(ProgramError::EntryOutOfRange { entry: 3 }));
    }

    #[test]
    fn validate_rejects_zero_rotation_interval() {
        let setrot = |interval| Inst::SetRotation { mode: RotationMode::Implicit { interval } };
        let prog = Program::from_insts(vec![setrot(1), setrot(0), Inst::Halt]);
        assert_eq!(prog.validate(), Err(ProgramError::ZeroRotationInterval { at: 1 }));
    }

    #[test]
    fn validate_rejects_overlapping_data() {
        let mut prog = Program::from_insts(vec![Inst::Halt]);
        prog.data.push(DataSegment { base: 0, words: vec![1, 2, 3] });
        prog.data.push(DataSegment { base: 2, words: vec![4] });
        assert_eq!(prog.validate(), Err(ProgramError::OverlappingData { base: 2 }));
    }

    #[test]
    fn adjacent_data_segments_are_fine() {
        let mut prog = Program::from_insts(vec![Inst::Halt]);
        prog.data.push(DataSegment { base: 0, words: vec![1, 2] });
        prog.data.push(DataSegment { base: 2, words: vec![3] });
        assert_eq!(prog.validate(), Ok(()));
    }

    #[test]
    fn listing_includes_labels() {
        let mut prog = Program::from_insts(vec![Inst::Nop, Inst::Halt]);
        prog.labels.insert("loop".into(), 1);
        let listing = prog.listing();
        assert!(listing.contains("loop:"));
        assert!(listing.contains("@0"));
        assert!(listing.contains("halt"));
    }

    #[test]
    fn empty_program_is_valid() {
        assert_eq!(Program::default().validate(), Ok(()));
    }
}
