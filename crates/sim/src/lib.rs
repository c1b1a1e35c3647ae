//! Cycle-level simulator of the Hirata et al. (ISCA 1992)
//! multithreaded elementary processor.
//!
//! The machine implements the full §2 architecture:
//!
//! * thread slots (instruction queue unit + decode unit) sharing an
//!   instruction fetch unit and cache (Figure 2);
//! * scoreboarded in-order issue per slot with the Figure 3(a)
//!   pipeline timing (or the Figure 3(b) baseline RISC pipeline);
//! * instruction schedule units with multi-level rotating priorities
//!   in implicit- and explicit-rotation modes (§2.2, Figure 4);
//! * depth-one standby stations enabling bounded out-of-order
//!   execution (§2.1.1);
//! * per-context register banks, context frames, the access
//!   requirement buffer and data-absence context switching (§2.1.3);
//! * the queue-register ring for doacross/eager loop execution
//!   (§2.3.1, Figure 5) with `fastfork`, `chgpri`, `killothers` and
//!   priority-gated stores (§2.3.3);
//! * per-slot superscalar issue windows for the §3.3 `(D,S)` hybrids.
//!
//! # Examples
//!
//! Run the paper's baseline and a two-slot multithreaded machine on
//! the same program and compare cycle counts:
//!
//! ```
//! use hirata_asm::assemble;
//! use hirata_sim::{Config, Machine};
//!
//! let prog = assemble("
//!     fastfork
//!     lpid r1
//!     mul  r2, r1, r1
//!     sw   r2, 100(r1)
//!     halt
//! ")?;
//! let mut base = Machine::new(Config::base_risc(), &prog)?;
//! let mut dual = Machine::new(Config::multithreaded(2), &prog)?;
//! base.run()?;
//! dual.run()?;
//! assert_eq!(base.memory().read_i64(100)?, 0);
//! assert_eq!(dual.memory().read_i64(101)?, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod config;
pub mod emu;
mod error;
pub mod exec;
mod fetch;
mod machine;
pub mod predecode;
mod priority;
mod queue;
mod regfile;
mod stats;
pub mod trace;
pub mod trace_driven;

pub use batch::{LaneError, LaneResult, MachineBatch, DEFAULT_STRIDE};
pub use config::{Config, ConfigError, PipelineKind, MAX_STANDBY_DEPTH, MAX_THREAD_SLOTS};
pub use emu::{EmuOutcome, Emulator};
pub use error::{MachineError, StuckSlot};
pub use machine::{IssueEvent, Machine, SlotView};
pub use predecode::{DecodedInst, PredecodedProgram};
pub use stats::{
    RunStats, StallBreakdown, StallReason, StallWindow, STALL_REASON_COUNT, STALL_WINDOW_CYCLES,
};
pub use trace::{
    chrome_trace_json, format_event, ChromeSink, NullSink, RingSink, RotationKind, SlotSet,
    TextSink, TraceEvent, TraceSink,
};
pub use trace_driven::{build_trace_program, TraceError};
