//! Machine-level errors.

use std::fmt;

use hirata_isa::{FuClass, ProgramError};
use hirata_mem::MemError;

use crate::config::ConfigError;
use crate::stats::StallReason;

/// A fatal simulation error (machine check).
///
/// These indicate either an invalid configuration/program or a bug in
/// the simulated software (running off the end of the program,
/// touching unmapped memory, misusing queue registers, forking into a
/// busy slot). They are never silently swallowed: [`crate::Machine::run`]
/// stops and reports the faulting slot and instruction address.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The program failed validation.
    Program(ProgramError),
    /// The program has no instructions.
    EmptyProgram,
    /// A data access faulted.
    Mem {
        /// Thread slot that executed the access.
        slot: usize,
        /// Instruction address of the access.
        pc: u32,
        /// The underlying fault.
        source: MemError,
    },
    /// A thread ran past the end of instruction memory.
    PcOutOfRange {
        /// Thread slot.
        slot: usize,
        /// The out-of-range instruction address.
        pc: u32,
    },
    /// `fastfork` found another thread already occupying a slot.
    ForkBusy {
        /// The occupied slot.
        slot: usize,
        /// Address of the `fastfork`.
        pc: u32,
    },
    /// `fastfork` or `add_thread` found no free context frame.
    NoFreeContext {
        /// Address of the `fastfork` (or `u32::MAX` for `add_thread`).
        pc: u32,
    },
    /// Illegal use of a mapped queue register (reading the write-mapped
    /// register, writing the read-mapped register, or mapping both
    /// directions onto one register).
    QueueMisuse {
        /// Thread slot.
        slot: usize,
        /// Instruction address.
        pc: u32,
        /// What went wrong.
        detail: String,
    },
    /// A decode-unit instruction reached a functional unit — the
    /// program encodes an instruction mix the pipeline cannot route.
    DecodeAtFu {
        /// Thread slot.
        slot: usize,
        /// Instruction address.
        pc: u32,
        /// Rendering of the offending instruction.
        inst: String,
    },
    /// An instruction reached issue for a functional-unit class the
    /// configuration has no instance of, so it could never execute.
    NoFunctionalUnit {
        /// Thread slot.
        slot: usize,
        /// Instruction address.
        pc: u32,
        /// The class with zero instances.
        class: FuClass,
    },
    /// The run exceeded `max_cycles` — a livelock/deadlock backstop.
    Watchdog {
        /// The cycle limit that was hit.
        cycles: u64,
        /// What each bound thread slot was doing at the limit, in slot
        /// order (empty from the emulator, which has no slots).
        slots: Vec<StuckSlot>,
    },
}

/// A bound thread slot as the watchdog found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckSlot {
    /// Thread slot.
    pub slot: usize,
    /// Why the slot's head instruction cannot issue, or `None` when it
    /// can (the slot is running, as in a runaway loop).
    pub reason: Option<StallReason>,
    /// Address of the head instruction (the fetch address when the
    /// slot's window is empty).
    pub pc: Option<u32>,
    /// The cycle at which the stall lifts by the advance of time
    /// alone, or `None` when only an event (a writeback, a queue push
    /// or pop, a fetch delivery, a rotation) can lift it.
    pub wake: Option<u64>,
}

impl fmt::Display for StuckSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.slot)?;
        if let Some(pc) = self.pc {
            write!(f, " @{pc}")?;
        }
        match (self.reason, self.wake) {
            (None, _) => write!(f, " can issue"),
            (Some(reason), Some(wake)) => write!(f, " {reason} until cycle {wake}"),
            (Some(reason), None) => write!(f, " {reason} until an event"),
        }
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(e) => e.fmt(f),
            MachineError::Program(e) => e.fmt(f),
            MachineError::EmptyProgram => write!(f, "program has no instructions"),
            MachineError::Mem { slot, pc, source } => {
                write!(f, "memory fault at slot {slot}, @{pc}: {source}")
            }
            MachineError::PcOutOfRange { slot, pc } => {
                write!(f, "slot {slot} ran past the end of the program (@{pc})")
            }
            MachineError::ForkBusy { slot, pc } => {
                write!(f, "fastfork at @{pc} found slot {slot} already running a thread")
            }
            MachineError::NoFreeContext { pc } => {
                write!(f, "no free context frame (fastfork/add_thread at @{pc})")
            }
            MachineError::QueueMisuse { slot, pc, detail } => {
                write!(f, "queue register misuse at slot {slot}, @{pc}: {detail}")
            }
            MachineError::DecodeAtFu { slot, pc, inst } => {
                write!(f, "decode-unit instruction `{inst}` reached a functional unit at slot {slot}, @{pc}")
            }
            MachineError::NoFunctionalUnit { slot, pc, class } => {
                write!(f, "no {class} unit is configured for the instruction at slot {slot}, @{pc}")
            }
            MachineError::Watchdog { cycles, slots } => {
                write!(f, "watchdog: run exceeded {cycles} cycles (deadlock or runaway loop)")?;
                for (i, slot) in slots.iter().enumerate() {
                    write!(f, "{} {slot}", if i == 0 { ":" } else { ";" })?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Config(e) => Some(e),
            MachineError::Program(e) => Some(e),
            MachineError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ConfigError> for MachineError {
    fn from(e: ConfigError) -> Self {
        MachineError::Config(e)
    }
}

impl From<ProgramError> for MachineError {
    fn from(e: ProgramError) -> Self {
        MachineError::Program(e)
    }
}
