//! Architectural register names.
//!
//! Each register bank (one per context frame, §2.1.1) holds 32
//! general-purpose registers `r0..r31` and 32 floating-point registers
//! `f0..f31`. `r0` is hardwired to zero in the usual RISC fashion:
//! reads return 0 and writes are discarded by the simulator.

use std::fmt;
use std::str::FromStr;

/// Number of general-purpose registers in a bank.
pub const NUM_GREGS: usize = 32;
/// Number of floating-point registers in a bank.
pub const NUM_FREGS: usize = 32;

/// A general-purpose (integer) register, `r0`–`r31`.
///
/// `r0` reads as zero and ignores writes.
///
/// # Examples
///
/// ```
/// use hirata_isa::GReg;
/// assert_eq!(GReg(7).to_string(), "r7");
/// assert_eq!("r7".parse::<GReg>().unwrap(), GReg(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GReg(pub u8);

/// A floating-point register, `f0`–`f31`.
///
/// # Examples
///
/// ```
/// use hirata_isa::FReg;
/// assert_eq!(FReg(12).to_string(), "f12");
/// assert_eq!("f12".parse::<FReg>().unwrap(), FReg(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

/// Either kind of architectural register.
///
/// Loads, stores and queue-register mappings may name either file, so
/// operand lists are expressed in terms of `Reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// A general-purpose register.
    G(GReg),
    /// A floating-point register.
    F(FReg),
}

impl GReg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: GReg = GReg(0);

    /// Returns true if this register is valid (index below [`NUM_GREGS`]).
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_GREGS
    }
}

impl FReg {
    /// Returns true if this register is valid (index below [`NUM_FREGS`]).
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_FREGS
    }
}

impl Reg {
    /// Returns true if the register index is in range for its file.
    pub fn is_valid(self) -> bool {
        match self {
            Reg::G(r) => r.is_valid(),
            Reg::F(r) => r.is_valid(),
        }
    }

    /// Dense index over both files: `r0..r31` map to `0..32`,
    /// `f0..f31` map to `32..64`. Useful for scoreboard bit vectors.
    pub fn dense_index(self) -> usize {
        match self {
            Reg::G(GReg(n)) => n as usize,
            Reg::F(FReg(n)) => NUM_GREGS + n as usize,
        }
    }

    /// The register at a dense index (the inverse of
    /// [`Reg::dense_index`]), or `None` past `f31`.
    pub fn from_dense_index(index: usize) -> Option<Reg> {
        match index {
            i if i < NUM_GREGS => Some(Reg::G(GReg(i as u8))),
            i if i < NUM_GREGS + NUM_FREGS => Some(Reg::F(FReg((i - NUM_GREGS) as u8))),
            _ => None,
        }
    }
}

impl From<GReg> for Reg {
    fn from(r: GReg) -> Self {
        Reg::G(r)
    }
}

impl From<FReg> for Reg {
    fn from(r: FReg) -> Self {
        Reg::F(r)
    }
}

impl fmt::Display for GReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::G(r) => r.fmt(f),
            Reg::F(r) => r.fmt(f),
        }
    }
}

/// Error returned when parsing a register name fails.
///
/// # Examples
///
/// ```
/// use hirata_isa::GReg;
/// assert!("r99".parse::<GReg>().is_err());
/// assert!("x3".parse::<GReg>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl ParseRegError {
    fn new(text: &str) -> Self {
        ParseRegError { text: text.to_owned() }
    }
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register name `{}`", self.text)
    }
}

impl std::error::Error for ParseRegError {}

fn parse_index(text: &str, prefix: char, limit: usize) -> Result<u8, ParseRegError> {
    let rest = text.strip_prefix(prefix).ok_or_else(|| ParseRegError::new(text))?;
    // Reject forms like "r03" so that each register has one spelling.
    if rest.len() > 1 && rest.starts_with('0') {
        return Err(ParseRegError::new(text));
    }
    let n: usize = rest.parse().map_err(|_| ParseRegError::new(text))?;
    if n >= limit {
        return Err(ParseRegError::new(text));
    }
    Ok(n as u8)
}

impl FromStr for GReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_index(s, 'r', NUM_GREGS).map(GReg)
    }
}

impl FromStr for FReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_index(s, 'f', NUM_FREGS).map(FReg)
    }
}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.starts_with('r') {
            s.parse::<GReg>().map(Reg::G)
        } else if s.starts_with('f') {
            s.parse::<FReg>().map(Reg::F)
        } else {
            Err(ParseRegError::new(s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_gregs() {
        for n in 0..NUM_GREGS as u8 {
            let r = GReg(n);
            assert_eq!(r.to_string().parse::<GReg>().unwrap(), r);
        }
    }

    #[test]
    fn display_round_trips_fregs() {
        for n in 0..NUM_FREGS as u8 {
            let r = FReg(n);
            assert_eq!(r.to_string().parse::<FReg>().unwrap(), r);
        }
    }

    #[test]
    fn reg_parses_either_file() {
        assert_eq!("r5".parse::<Reg>().unwrap(), Reg::G(GReg(5)));
        assert_eq!("f31".parse::<Reg>().unwrap(), Reg::F(FReg(31)));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!("r32".parse::<GReg>().is_err());
        assert!("f32".parse::<FReg>().is_err());
        assert!("f-1".parse::<FReg>().is_err());
    }

    #[test]
    fn leading_zero_rejected() {
        assert!("r01".parse::<GReg>().is_err());
        assert!("r0".parse::<GReg>().is_ok());
    }

    #[test]
    fn junk_rejected() {
        for bad in ["", "r", "f", "q1", "r1x", "R1"] {
            assert!(bad.parse::<Reg>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn dense_index_is_injective() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..NUM_GREGS as u8 {
            assert!(seen.insert(Reg::G(GReg(n)).dense_index()));
        }
        for n in 0..NUM_FREGS as u8 {
            assert!(seen.insert(Reg::F(FReg(n)).dense_index()));
        }
        assert_eq!(seen.len(), NUM_GREGS + NUM_FREGS);
    }

    #[test]
    fn from_dense_index_inverts_dense_index() {
        for i in 0..NUM_GREGS + NUM_FREGS {
            let r = Reg::from_dense_index(i).expect("every dense index names a register");
            assert_eq!(r.dense_index(), i);
            assert!(r.is_valid());
        }
        assert_eq!(Reg::from_dense_index(NUM_GREGS + NUM_FREGS), None);
    }

    #[test]
    fn error_message_mentions_input() {
        let err = "r99".parse::<GReg>().unwrap_err();
        assert!(err.to_string().contains("r99"));
    }
}
