//! Batched round-robin stepping of many machines.
//!
//! The paper's pipeline absorbs many concurrent instruction streams;
//! the serving analogue is one worker thread absorbing many concurrent
//! simulations. A [`MachineBatch`] holds independently-configured
//! [`Machine`]s — cheap to mass-construct thanks to the `Arc`-shared
//! predecoded instruction store ([`PredecodedProgram::shared`]) — and
//! steps each of them a bounded stride of cycles per round, so every
//! resident simulation makes steady progress regardless of how many
//! are in flight.
//!
//! Lanes are identified by stable insertion ids, so new machines can
//! join while earlier ones retire (the `hirata serve` daemon feeds
//! lanes from many client requests into one batch). A lane that
//! panics mid-step is captured as [`LaneError::Panicked`] and removed;
//! its siblings keep stepping.
//!
//! Batched stepping is observationally equivalent to running each
//! machine to completion on its own: cycle counts and statistics are
//! byte-identical (enforced by `tests/batch.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hirata_isa::Program;

use crate::error::MachineError;
use crate::machine::Machine;
use crate::predecode::PredecodedProgram;
use crate::Config;

/// Default cycles each lane advances per [`MachineBatch::step_round`].
///
/// Large enough that per-round bookkeeping is negligible against
/// simulation work, small enough that a batch of tens of machines
/// visits every lane several times per wall-clock millisecond.
pub const DEFAULT_STRIDE: u64 = 4096;

/// Why a lane stopped without completing.
#[derive(Debug)]
pub enum LaneError {
    /// The machine raised a machine check.
    Machine(MachineError),
    /// The machine panicked mid-step (a simulator bug); the lane was
    /// dropped and its siblings kept running.
    Panicked(String),
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::Machine(e) => write!(f, "{e}"),
            LaneError::Panicked(msg) => write!(f, "lane panicked: {msg}"),
        }
    }
}

impl std::error::Error for LaneError {}

/// The result of one finished lane: the completed machine (stats and
/// memory intact) or the error that stopped it.
pub type LaneResult = Result<Box<Machine>, LaneError>;

struct Lane {
    id: usize,
    machine: Box<Machine>,
}

/// A set of machines stepped round-robin. See the module docs.
#[derive(Default)]
pub struct MachineBatch {
    lanes: Vec<Lane>,
    next_id: usize,
    finished: Vec<(usize, LaneResult)>,
}

impl MachineBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MachineBatch::default()
    }

    /// Mass-constructs one machine per configuration over a single
    /// program, predecoding it once and sharing the instruction store.
    ///
    /// # Errors
    ///
    /// Returns the first construction error (invalid configuration or
    /// program); no machines are inserted in that case.
    pub fn from_configs(
        program: &Program,
        configs: impl IntoIterator<Item = Config>,
    ) -> Result<Self, MachineError> {
        let shared = PredecodedProgram::shared(program)?;
        let mut batch = MachineBatch::new();
        for config in configs {
            batch.insert(Machine::from_predecoded(config, Arc::clone(&shared))?);
        }
        Ok(batch)
    }

    /// Adds a machine; returns its stable lane id.
    pub fn insert(&mut self, machine: Machine) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.lanes.push(Lane { id, machine: Box::new(machine) });
        id
    }

    /// Machines still running.
    pub fn live(&self) -> usize {
        self.lanes.len()
    }

    /// True when no lane is running (finished lanes may still await
    /// [`MachineBatch::drain_finished`]).
    pub fn is_idle(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Removes a still-running lane (e.g. on a client timeout).
    /// Returns its machine, or `None` if the lane already finished or
    /// never existed.
    pub fn remove(&mut self, id: usize) -> Option<Box<Machine>> {
        let at = self.lanes.iter().position(|lane| lane.id == id)?;
        Some(self.lanes.remove(at).machine)
    }

    /// Steps every live lane up to `stride` cycles (or to completion /
    /// error / panic, whichever comes first), then returns the number
    /// of lanes still live. Finished lanes move to the internal queue
    /// until collected with [`MachineBatch::drain_finished`].
    pub fn step_round(&mut self, stride: u64) -> usize {
        let mut keep: Vec<Lane> = Vec::with_capacity(self.lanes.len());
        for mut lane in self.lanes.drain(..) {
            let outcome = catch_unwind(AssertUnwindSafe(|| step_lane(&mut lane.machine, stride)));
            match outcome {
                Ok(Ok(false)) => keep.push(lane),
                Ok(Ok(true)) => self.finished.push((lane.id, Ok(lane.machine))),
                Ok(Err(e)) => self.finished.push((lane.id, Err(LaneError::Machine(e)))),
                Err(payload) => {
                    // The machine's invariants may be torn mid-cycle;
                    // drop it with the lane.
                    self.finished.push((lane.id, Err(LaneError::Panicked(panic_text(&*payload)))));
                }
            }
        }
        self.lanes = keep;
        self.lanes.len()
    }

    /// Takes the lanes that finished since the last drain, as
    /// `(lane id, result)` pairs in completion order.
    pub fn drain_finished(&mut self) -> Vec<(usize, LaneResult)> {
        std::mem::take(&mut self.finished)
    }

    /// Runs every lane to completion and returns results indexed by
    /// lane id (for batches built with [`MachineBatch::from_configs`],
    /// ids are 0..n in configuration order).
    pub fn run_all(mut self, stride: u64) -> Vec<LaneResult> {
        while self.step_round(stride) > 0 {}
        let mut done = self.drain_finished();
        done.sort_by_key(|(id, _)| *id);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// Steps one machine through a whole stride of `stride` cycles;
/// `Ok(true)` means done.
///
/// The stride is measured in simulated cycles, not steps: in an
/// untraced lane an event-wheel jump can follow a step and advance many
/// cycles, and counting steps would let a stalled-but-jumping lane race
/// arbitrarily far ahead of its siblings within a round. Every step
/// advances at least one cycle, so the loop is bounded. Where a round ends is pure
/// scheduling, not semantics: each machine's cycles and statistics
/// are independent of it.
fn step_lane(machine: &mut Machine, stride: u64) -> Result<bool, MachineError> {
    // `run_span` hoists the trace-sink dispatch out of the loop, so an
    // untraced lane steps the sink-free monomorphized kernel
    // throughout its round.
    machine.run_span(stride)
}

/// The message of a caught panic's payload, as [`LaneError::Panicked`]
/// carries it.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
