//! The cycle-level machine: thread slots, decode, schedule units with
//! standby stations, functional-unit pipelines, context frames, and
//! the queue-register ring — the processor of Figure 2.

use std::collections::VecDeque;
use std::sync::Arc;

use hirata_isa::{FuClass, GReg, Inst, Program, FU_CLASS_COUNT};
use hirata_mem::{Access, DataMemModel, IdealCache, MemStats, Memory};

mod fupool;
mod wheel;

use crate::config::{Config, MAX_STANDBY_DEPTH};
use crate::error::{MachineError, StuckSlot};
use crate::exec::{branch_taken, debug_assert_fresh_decode, fu_action, resolve_operands, FuAction};
use crate::fetch::{Delivery, FetchSystem};
use crate::machine::fupool::FuPool;
use crate::predecode::{
    is_reg, operand, reg_name, DecodedInst, PredecodedProgram, NO_REG, SRC_IMM,
};
use crate::priority::Priorities;
use crate::queue::QueueRing;
use crate::regfile::RegBank;
use crate::stats::{RunStats, StallReason};
use crate::trace::{RotationKind, SlotSet, TraceEvent, TraceSink};

/// An issued instruction travelling to (or waiting in a standby
/// station of) a functional unit, with its operand values captured at
/// issue (§2.1.1).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    slot: usize,
    ctx: usize,
    pc: u32,
    di: DecodedInst,
    vals: [u64; 2],
    /// Re-execution from the access requirement buffer: the remote
    /// request already completed, so the memory model is bypassed.
    replayed: bool,
    /// Cycle the instruction issued (distinguishes fresh standby
    /// arrivals from holdovers in the trace).
    issued_at: u64,
}

impl InFlight {
    /// Placeholder filling unused standby-station capacity; never
    /// observable (stations expose only their first `len` entries).
    fn vacant() -> Self {
        InFlight {
            slot: 0,
            ctx: 0,
            pc: 0,
            di: DecodedInst::of(Inst::Nop),
            vals: [0; 2],
            replayed: false,
            issued_at: 0,
        }
    }
}

/// One standby station: a fixed-capacity inline FIFO of issued
/// instructions waiting for their functional unit (§2.1.1 — the
/// paper's depth is one; deeper stations are an ablation, bounded by
/// [`MAX_STANDBY_DEPTH`]). Inline storage keeps the arbitration loop
/// free of heap traffic and pointer chasing.
#[derive(Debug, Clone, Copy)]
struct StandbyStation {
    buf: [InFlight; MAX_STANDBY_DEPTH],
    len: u8,
}

impl StandbyStation {
    fn new() -> Self {
        StandbyStation { buf: [InFlight::vacant(); MAX_STANDBY_DEPTH], len: 0 }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&InFlight> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[0])
        }
    }

    #[inline]
    fn push_back(&mut self, f: InFlight) {
        assert!(self.len() < MAX_STANDBY_DEPTH, "standby station overflow");
        self.buf[self.len()] = f;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> InFlight {
        debug_assert!(self.len > 0);
        let f = self.buf[0];
        let len = self.len as usize;
        self.buf.copy_within(1..len, 0);
        self.len -= 1;
        f
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn iter(&self) -> std::slice::Iter<'_, InFlight> {
        self.buf[..self.len()].iter()
    }
}

/// Per-machine scratch buffers reused across cycles so the steady
/// state of [`Machine::step`] performs no heap allocation. Taken out
/// with `mem::take` for the duration of a phase (to sidestep borrow
/// conflicts with `&mut self` calls) and restored afterwards with
/// their capacity intact.
#[derive(Debug, Default)]
struct Scratch {
    /// Schedule-unit candidates issued this cycle.
    cands: Vec<InFlight>,
    /// Fetch deliveries surfacing this cycle.
    deliveries: Vec<Delivery>,
}

/// A proven slot block (the ready-frontier entry for one bound slot):
/// the slot provably re-records exactly this stall every cycle strictly
/// before `wake`, unless a clearing event lifts it first. `wake` is
/// `u64::MAX` for blocks only an event can lift. Unbound slots never
/// hold one: they are outside the bound-slot mask, and their NoThread
/// stalls are counted in bulk. The reason doubles as the block's kind:
///
/// * `BranchShadow` — `now < earliest_issue`; `wake` is the shadow
///   expiry, and every event that moves `earliest_issue` (redirect
///   delivery, rebind) clears or rewrites the block.
/// * `Fetch` — empty window with no fetch credits; cleared by any
///   fetch delivery to the slot.
/// * head stalls (`Data`, `QueueEmpty`, `QueueFull`, `FuConflict`) —
///   the memoized single-issue head stall inherited from the old
///   `StallMemo`: created only when the window holds exactly one
///   fresh non-gated head, cleared by register writeback to the bound
///   context, standby pops/clears for the slot, queue pushes/pops on
///   the slot's links, and any rebind/redirect/kill.
///
/// Rotations never flip a block: none of the blockable conditions
/// reads the priority order (priority-gated stalls are deliberately
/// not blockable). See DESIGN.md §8 for the full invariant table.
#[derive(Debug, Clone, Copy)]
struct SlotBlock {
    reason: StallReason,
    pc: Option<u32>,
    wake: u64,
}

/// One entry of a slot's decode window.
#[derive(Debug, Clone, Copy)]
enum WinEntry {
    /// Freshly fetched instruction at this address.
    Fresh(u32),
    /// A replayed memory access from the access requirement buffer
    /// (§2.1.3), with operands captured before the context switch.
    Replay(Inst, [u64; 2]),
}

/// `repr(C)` orders the fields hot-first: the per-cycle issue path
/// reads `ctx`/`block`/`earliest_issue`/`fetch_pc` for every bound slot, so
/// they pack into the leading bytes; the window's `VecDeque` header
/// (three pointers-worth, touched only when the slot actually decodes)
/// trails.
#[derive(Debug)]
#[repr(C)]
struct Slot {
    /// The bound context frame (mirrored by the machine's `bound`
    /// mask).
    ctx: Option<usize>,
    /// The slot's ready-frontier state: `None` whenever no proof of a
    /// stable stall is held. Purely an optimization: replaying the
    /// block records exactly the stall a fresh evaluation would.
    block: Option<SlotBlock>,
    earliest_issue: u64,
    fetch_pc: u32,
    window: VecDeque<WinEntry>,
}

impl Slot {
    fn new() -> Self {
        Slot { ctx: None, block: None, earliest_issue: 0, fetch_pc: 0, window: VecDeque::new() }
    }
}

/// Lifecycle of a context frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxState {
    /// Unallocated frame.
    Free,
    /// Runnable, waiting for a thread slot.
    Ready,
    /// Bound to a thread slot.
    Running,
    /// Switched out on a data-absence trap until the given cycle.
    Waiting { until: u64 },
    /// Finished (halted or killed).
    Done,
}

/// A context frame (§2.1.3): register sets, saved program counter,
/// queue-register mapping (as operand bytes, so the queue rules
/// compare bytes), and the access requirement buffer.
///
/// `repr(C)` splits the frame hot-first: issue and capture touch the
/// register bank, queue mapping, state, and `lpid` every cycle, so
/// those lead; the trap-only resume machinery (`resume_pc`, the replay
/// buffer, `started`) is cold and trails.
#[derive(Debug)]
#[repr(C)]
struct Context {
    regs: RegBank,
    qread: Option<u8>,
    qwrite: Option<u8>,
    state: CtxState,
    lpid: i64,
    resume_pc: u32,
    /// False until first bound to a slot (suppresses the context-switch
    /// penalty for a thread's very first dispatch).
    started: bool,
    replay: Vec<(Inst, [u64; 2])>,
}

impl Context {
    fn free() -> Self {
        Context {
            regs: RegBank::new(),
            qread: None,
            qwrite: None,
            state: CtxState::Free,
            lpid: 0,
            resume_pc: 0,
            started: false,
            replay: Vec::new(),
        }
    }
}

/// Why an instruction could not issue this cycle. Stalls carry the
/// first cycle at which the failed condition could pass by the advance
/// of time alone (`u64::MAX` when only an event can lift it), or
/// `None` when the condition is not provably stable — only stalls with
/// a hint are eligible for a head-stall block.
enum IssueBlock {
    Stall(StallReason, Option<u64>),
    Fault(MachineError),
}

/// The simulated processor.
///
/// Construct with [`Machine::new`], run with [`Machine::run`], then
/// inspect [`Machine::stats`], [`Machine::memory`], and the register
/// accessors.
///
/// # Examples
///
/// ```
/// use hirata_sim::{Config, Machine};
/// use hirata_asm::assemble;
///
/// let prog = assemble("li r1, #2\nadd r2, r1, r1\nhalt")?;
/// let mut m = Machine::new(Config::base_risc(), &prog)?;
/// m.run()?;
/// assert_eq!(m.reg_g(0, "r2".parse()?), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    config: Config,
    program: Arc<PredecodedProgram>,
    memory: Memory,
    mem_model: Box<dyn DataMemModelDebug>,
    slots: Vec<Slot>,
    contexts: Vec<Context>,
    /// Standby stations, flattened: the station of slot `s` and FU
    /// class index `ci` lives at `s * FU_CLASS_COUNT + ci`.
    standby: Vec<StandbyStation>,
    /// Per FU class, the slots whose standby station for that class is
    /// non-empty — kept in sync with `standby` at every mutation so
    /// the tracing path reads competitor sets without rescanning the
    /// stations each cycle.
    standby_mask: [SlotSet; FU_CLASS_COUNT],
    /// Occupied standby entries per slot (all classes), for the O(1)
    /// "does this slot have anything standing by" queries in the
    /// decode-blocking, `drain`, rebind, and trap paths.
    standby_slot_count: Vec<u16>,
    /// Occupied standby entries machine-wide, so `is_done` need not
    /// rescan the stations every cycle.
    standby_total: usize,
    /// Contexts that are not `Done`/`Free` — kept in sync at every
    /// state transition so [`Machine::is_done`] is O(1) in the cycle
    /// loop instead of rescanning every frame twice per step.
    live_contexts: usize,
    /// Contexts in `Ready` or `Waiting` state — the population
    /// `wake_and_bind` serves. Kept in sync at the same transitions
    /// as [`Self::live_contexts`] so the per-cycle wake-and-bind scan
    /// exits O(1) when every context is running (the steady state of
    /// fully-bound workloads); a debug assert in `wake_and_bind`
    /// rescans the frames to prove the counter exact.
    idle_contexts: usize,
    fu_pool: FuPool,
    queues: QueueRing,
    fetch: FetchSystem,
    prio: Priorities,
    stats: RunStats,
    cycle: u64,
    /// The bound-slot mask: slot `s` is set iff `slots[s].ctx` is
    /// `Some` — kept in lockstep at every bind (`wake_and_bind`,
    /// `fastfork`) and unbind (`detach`, `killothers`). Every per-cycle
    /// path (issue, forced rotation, fetch round-robin, writeback
    /// unblocking, the event wheel's probe and stall accounting)
    /// visits only these slots; the others record a NoThread stall
    /// each, counted in one bulk add per cycle or skipped span. Debug
    /// builds rescan the slots each issue phase to prove the mirror
    /// exact.
    bound: SlotSet,
    /// A head-issue proof from the event wheel: `(cycle, slot, pc)`
    /// means the wheel's end-of-step probe ran `check_issue` on the
    /// head `slot` will evaluate at `cycle` and it passed. The wheel
    /// runs only with a single live slot (see
    /// [`Machine::single_live_slot`]), so nothing between the probe and
    /// that evaluation mutates state `check_issue` reads (a slot bound
    /// in between cannot issue on its bind cycle). Purely an
    /// optimization — the issue path skips its own head check instead
    /// of repeating it.
    head_pass: Option<(u64, usize, u32)>,
    scratch: Scratch,
    trace: Option<Vec<IssueEvent>>,
    sink: Option<Box<dyn TraceSink>>,
}

/// One issue event, recorded when tracing is enabled with
/// [`Machine::set_trace`]. `cycle` is the instruction's S stage (D2
/// stage on the base pipeline) — the reference point for all the
/// paper's timing statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueEvent {
    /// Cycle the instruction issued.
    pub cycle: u64,
    /// Thread slot that issued it.
    pub slot: usize,
    /// Context frame it belongs to.
    pub ctx: usize,
    /// Instruction address.
    pub pc: u32,
}

/// A point-in-time view of one thread slot (see
/// [`Machine::slot_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Context frame bound to the slot, if any.
    pub context: Option<usize>,
    /// Logical-processor id of the running thread.
    pub lpid: Option<i64>,
    /// Address of the next fresh instruction the slot will issue.
    pub next_pc: Option<u32>,
    /// Decoded-but-unissued instructions in the window.
    pub window_len: usize,
    /// Instructions parked across this slot's standby stations.
    pub standby_occupancy: usize,
}

/// `DataMemModel` + `Debug`, so the machine itself can derive `Debug`.
trait DataMemModelDebug: DataMemModel + std::fmt::Debug {}
impl<T: DataMemModel + std::fmt::Debug> DataMemModelDebug for T {}

impl Machine {
    /// Builds a machine running `program` with the paper's ideal
    /// (always-hit, two-cycle) data cache.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if the configuration or program is
    /// invalid, or the program's data does not fit in memory.
    pub fn new(config: Config, program: &Program) -> Result<Self, MachineError> {
        Self::with_mem_model(config, program, Box::new(IdealCache::default()))
    }

    /// Builds a machine with a custom data-memory timing model (finite
    /// cache or DSM, see `hirata-mem`).
    ///
    /// # Errors
    ///
    /// As for [`Machine::new`].
    pub fn with_mem_model(
        config: Config,
        program: &Program,
        mem_model: Box<dyn DataMemModel>,
    ) -> Result<Self, MachineError> {
        config.validate()?;
        let program = PredecodedProgram::shared(program)?;
        Self::with_mem_model_predecoded(config, program, mem_model)
    }

    /// Builds a machine from an already-lowered program, sharing the
    /// instruction store instead of cloning it — the cheap way to run
    /// the same program on many configurations (see
    /// [`PredecodedProgram::shared`]).
    ///
    /// # Errors
    ///
    /// As for [`Machine::new`].
    pub fn from_predecoded(
        config: Config,
        program: Arc<PredecodedProgram>,
    ) -> Result<Self, MachineError> {
        Self::with_mem_model_predecoded(config, program, Box::new(IdealCache::default()))
    }

    /// [`Machine::from_predecoded`] with a custom data-memory timing
    /// model.
    ///
    /// # Errors
    ///
    /// As for [`Machine::new`].
    pub fn with_mem_model_predecoded(
        config: Config,
        program: Arc<PredecodedProgram>,
        mem_model: Box<dyn DataMemModel>,
    ) -> Result<Self, MachineError> {
        config.validate()?;
        let mut memory = Memory::new(config.mem_words);
        for seg in program.data() {
            memory.load_block(seg.base, &seg.words).map_err(|source| MachineError::Mem {
                slot: 0,
                pc: 0,
                source,
            })?;
        }
        let s = config.thread_slots;
        let mut contexts: Vec<Context> =
            (0..config.context_frames).map(|_| Context::free()).collect();
        contexts[0].state = CtxState::Ready;
        contexts[0].resume_pc = program.entry();
        let fu_pool = FuPool::new(std::array::from_fn(|i| config.fu.count(FuClass::ALL[i])));
        let mut stats = RunStats { per_slot_issued: vec![0; s], ..RunStats::default() };
        for class in FuClass::ALL {
            stats.fu_instances[class.index()] = config.fu.count(class) as u64;
        }
        // A wrapper because Box<dyn DataMemModel> lacks Debug; rebox.
        struct Wrap(Box<dyn DataMemModel>);
        impl std::fmt::Debug for Wrap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("DataMemModel")
            }
        }
        impl DataMemModel for Wrap {
            fn access(&mut self, addr: u64, write: bool, now: u64) -> Access {
                self.0.access(addr, write, now)
            }
            fn stats(&self) -> MemStats {
                self.0.stats()
            }
        }
        Ok(Machine {
            fetch: FetchSystem::new(
                s,
                config.icache_cycles as u64,
                config.ibuf_words(),
                config.private_fetch,
            ),
            prio: Priorities::new(s, config.rotation),
            queues: QueueRing::new(s, config.queue_capacity),
            slots: (0..s).map(|_| Slot::new()).collect(),
            standby: vec![StandbyStation::new(); s * FU_CLASS_COUNT],
            standby_mask: [SlotSet::EMPTY; FU_CLASS_COUNT],
            standby_slot_count: vec![0; s],
            standby_total: 0,
            live_contexts: 1,
            idle_contexts: 1, // contexts[0] starts Ready

            contexts,
            fu_pool,
            memory,
            mem_model: Box::new(Wrap(mem_model)),
            program,
            config,
            stats,
            cycle: 0,
            bound: SlotSet::EMPTY,
            head_pass: None,
            scratch: Scratch {
                cands: Vec::with_capacity(s * 2),
                deliveries: Vec::with_capacity(s),
            },
            trace: None,
            sink: None,
        })
    }

    // ------------------------------------------------------------------
    // Ready-frontier bookkeeping
    // ------------------------------------------------------------------

    /// Installs a proven block for `s`, dropping it from the ready
    /// frontier. Callers must guarantee the [`SlotBlock`] contract: the
    /// slot re-records exactly this stall every cycle before `wake`,
    /// and every event that could change that outcome runs through
    /// [`Machine::unblock`].
    #[inline]
    fn block_slot(&mut self, s: usize, reason: StallReason, pc: Option<u32>, wake: u64) {
        self.slots[s].block = Some(SlotBlock { reason, pc, wake });
    }

    /// Clears `s`'s block (if any), returning it to the ready frontier
    /// — the universal "something about this slot changed"
    /// notification.
    #[inline]
    fn unblock(&mut self, s: usize) {
        self.slots[s].block = None;
    }

    /// Slots with anything parked in a standby station.
    #[inline]
    fn standby_slots(&self) -> SlotSet {
        self.standby_mask.iter().fold(SlotSet::EMPTY, |acc, &m| acc.union(m))
    }

    /// True when at most one slot can act: a one-slot machine, or a
    /// single bound slot with nothing standing by in any other slot.
    /// A priority rotation then never changes which slot acts first
    /// (the forced rotation hands the token straight back), so the
    /// event wheel treats the machine as a single-slot one.
    fn single_live_slot(&self) -> bool {
        self.slots.len() == 1
            || (self.bound.len() == 1 && self.standby_slots().minus(self.bound).is_empty())
    }

    // ------------------------------------------------------------------
    // Standby-station bookkeeping (occupancy masks and counts are kept
    // in lockstep with the stations; `arbitrate` rescans them in debug
    // builds)
    // ------------------------------------------------------------------

    #[inline]
    fn station(&self, s: usize, ci: usize) -> &StandbyStation {
        &self.standby[s * FU_CLASS_COUNT + ci]
    }

    #[inline]
    fn standby_push(&mut self, s: usize, ci: usize, f: InFlight) {
        self.standby[s * FU_CLASS_COUNT + ci].push_back(f);
        self.standby_mask[ci].insert(s);
        self.standby_slot_count[s] += 1;
        self.standby_total += 1;
    }

    #[inline]
    fn standby_pop(&mut self, s: usize, ci: usize) -> InFlight {
        let st = &mut self.standby[s * FU_CLASS_COUNT + ci];
        let f = st.pop_front();
        if st.is_empty() {
            self.standby_mask[ci].remove(s);
        }
        self.standby_slot_count[s] -= 1;
        self.standby_total -= 1;
        self.unblock(s); // a station drained: FuConflict may lift
        f
    }

    /// Empties one station, fixing up the occupancy bookkeeping;
    /// returns how many entries were dropped.
    fn standby_clear(&mut self, s: usize, ci: usize) -> usize {
        let st = &mut self.standby[s * FU_CLASS_COUNT + ci];
        let n = st.len();
        st.clear();
        self.standby_mask[ci].remove(s);
        self.standby_slot_count[s] -= n as u16;
        self.standby_total -= n;
        self.unblock(s);
        n
    }

    /// True if any of `s`'s standby stations holds an instruction.
    #[inline]
    fn slot_has_standby(&self, s: usize) -> bool {
        self.standby_slot_count[s] > 0
    }

    /// Disjoint `(&contexts[a], &mut contexts[b])` borrows for
    /// parent-to-child copies.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    fn pair_mut(contexts: &mut [Context], a: usize, b: usize) -> (&Context, &mut Context) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = contexts.split_at_mut(b);
            (&lo[a], &mut hi[0])
        } else {
            let (lo, hi) = contexts.split_at_mut(a);
            (&hi[0], &mut lo[b])
        }
    }

    /// Registers an additional thread starting at `pc`, occupying a
    /// free context frame. With more context frames than thread slots
    /// this exercises concurrent multithreading (§2.1.3).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoFreeContext`] if every frame is taken.
    pub fn add_thread(&mut self, pc: u32) -> Result<(), MachineError> {
        let idx = self
            .contexts
            .iter()
            .position(|c| c.state == CtxState::Free)
            .ok_or(MachineError::NoFreeContext { pc: u32::MAX })?;
        let lpid = idx as i64;
        self.live_contexts += 1;
        self.idle_contexts += 1;
        let ctx = &mut self.contexts[idx];
        ctx.state = CtxState::Ready;
        ctx.resume_pc = pc;
        ctx.lpid = lpid;
        Ok(())
    }

    /// Runs to completion (all threads halted or killed) and returns
    /// the accumulated statistics (also available afterwards through
    /// [`Machine::stats`]).
    ///
    /// # Errors
    ///
    /// Propagates any [`MachineError`] raised during simulation,
    /// including the watchdog if `max_cycles` is exceeded.
    pub fn run(&mut self) -> Result<&RunStats, MachineError> {
        // One sink check selects the whole loop's monomorphized
        // kernel; the untraced path then carries no sink tests at all.
        if self.sink.is_some() {
            while !self.step_impl::<true>()? {}
        } else {
            while !self.step_and_jump()? {}
        }
        Ok(&self.stats)
    }

    /// Runs until the machine finishes or at least `stride` more
    /// cycles elapse (an event-wheel jump may carry it past). Returns
    /// true once the machine is finished. The sink dispatch is hoisted
    /// out of the loop, so untraced spans run the sink-free kernel
    /// throughout.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_span(&mut self, stride: u64) -> Result<bool, MachineError> {
        let end = self.cycle.saturating_add(stride.max(1));
        if self.sink.is_some() {
            while self.cycle < end {
                if self.step_impl::<true>()? {
                    return Ok(true);
                }
            }
        } else {
            while self.cycle < end {
                if self.step_and_jump()? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Advances exactly one cycle. Returns true once the machine is
    /// finished.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn step(&mut self) -> Result<bool, MachineError> {
        if self.sink.is_some() {
            self.step_impl::<true>()
        } else {
            self.step_impl::<false>()
        }
    }

    /// One untraced cycle, then — with a single live slot — an
    /// event-wheel jump over the stalled span that follows it, if one
    /// is provable (see `machine/wheel.rs`). With several live slots
    /// the per-slot probes rarely pay for themselves, and traced runs
    /// step every cycle, so the wheel never fires there.
    fn step_and_jump(&mut self) -> Result<bool, MachineError> {
        if self.step_impl::<false>()? {
            return Ok(true);
        }
        if self.single_live_slot() {
            self.try_jump();
        }
        Ok(false)
    }

    /// The cycle kernel, monomorphized over trace-sink presence
    /// (`TRACED`): the common no-sink path compiles with every sink
    /// check statically false, so tracing costs nothing unless a sink
    /// is attached.
    fn step_impl<const TRACED: bool>(&mut self) -> Result<bool, MachineError> {
        if self.is_done() {
            return Ok(true);
        }
        let now = self.cycle;
        if now >= self.config.max_cycles {
            return Err(self.watchdog(now));
        }
        if self.prio.tick(now) {
            self.stats.rotations += 1;
            let highest = self.prio.highest();
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::Rotation {
                        cycle: now,
                        kind: RotationKind::Implicit,
                        highest,
                    });
                }
            }
        }
        self.skip_empty_priority_slots::<TRACED>(now);
        let depth = self.config.pipeline.decode_depth();
        let mut deliveries = std::mem::take(&mut self.scratch.deliveries);
        deliveries.clear();
        self.fetch.begin_cycle(now, &mut deliveries);
        for d in &deliveries {
            let slot = &mut self.slots[d.slot];
            if d.redirect {
                slot.earliest_issue = slot.earliest_issue.max(now + depth);
                slot.block = None;
            } else if matches!(slot.block, Some(b) if b.reason == StallReason::Fetch) {
                // A refill ends fetch starvation; other blocks are
                // unaffected by a plain delivery (their conditions
                // don't read the credit count).
                slot.block = None;
            }
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::Fetch {
                        cycle: now,
                        slot: d.slot,
                        redirect: d.redirect,
                    });
                }
            }
        }
        self.scratch.deliveries = deliveries;
        self.wake_and_bind::<TRACED>(now);
        // The issue phase and arbitration both walk the slots in
        // priority order from the highest level, which nothing moves
        // in between (chgpri is deferred to cycle end, implicit/forced
        // rotations happened above).
        let mut cands = std::mem::take(&mut self.scratch.cands);
        cands.clear();
        let res = match self.issue_phase::<TRACED>(now, &mut cands) {
            Ok(()) => self.arbitrate::<TRACED>(&mut cands, now),
            Err(e) => Err(e),
        };
        self.scratch.cands = cands;
        res?;
        if self.prio.apply_pending(now) {
            self.stats.rotations += 1;
            let highest = self.prio.highest();
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::Rotation {
                        cycle: now,
                        kind: RotationKind::Explicit,
                        highest,
                    });
                }
            }
        }
        self.fetch.end_cycle(now);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        Ok(self.is_done())
    }

    /// True when every context has finished and all standby stations
    /// have drained.
    pub fn is_done(&self) -> bool {
        debug_assert_eq!(
            self.live_contexts,
            self.contexts
                .iter()
                .filter(|c| !matches!(c.state, CtxState::Done | CtxState::Free))
                .count(),
            "live-context counter out of sync"
        );
        self.standby_total == 0 && self.live_contexts == 0
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// The data memory, for inspecting final images.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Data-memory model statistics (hits/misses/absences).
    pub fn mem_stats(&self) -> MemStats {
        self.mem_model.stats()
    }

    /// Reads an integer register of context frame `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn reg_g(&self, ctx: usize, r: GReg) -> i64 {
        self.contexts[ctx].regs.peek_g(r)
    }

    /// Reads a floating register of context frame `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn reg_f(&self, ctx: usize, r: hirata_isa::FReg) -> f64 {
        self.contexts[ctx].regs.peek_f(r)
    }

    /// The raw architectural register image of context frame `ctx`:
    /// the 32 integer registers (two's complement) followed by the 32
    /// floating registers (IEEE-754 bits). Matches the layout of
    /// [`crate::EmuOutcome::regs`] for differential testing.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn register_image(&self, ctx: usize) -> Vec<u64> {
        self.contexts[ctx].regs.image()
    }

    /// Number of context frames (for iterating [`Self::register_image`]).
    pub fn context_frames(&self) -> usize {
        self.contexts.len()
    }

    /// Seeds an integer register of context frame `ctx` before running.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn poke_reg_g(&mut self, ctx: usize, r: GReg, value: i64) {
        self.contexts[ctx].regs.poke_g(r, value);
    }

    /// Seeds a floating register of context frame `ctx` before running.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn poke_reg_f(&mut self, ctx: usize, r: hirata_isa::FReg, value: f64) {
        self.contexts[ctx].regs.poke_f(r, value);
    }

    /// A point-in-time view of one thread slot, for debuggers and
    /// monitoring tools.
    pub fn slot_view(&self, slot: usize) -> SlotView {
        let s = &self.slots[slot];
        SlotView {
            context: s.ctx,
            lpid: s.ctx.map(|c| self.contexts[c].lpid),
            next_pc: s
                .window
                .iter()
                .find_map(|e| match e {
                    WinEntry::Fresh(pc) => Some(*pc),
                    WinEntry::Replay(..) => None,
                })
                .or(Some(s.fetch_pc))
                .filter(|_| s.ctx.is_some()),
            window_len: s.window.len(),
            standby_occupancy: self.standby_slot_count[slot] as usize,
        }
    }

    /// Number of thread slots.
    pub fn thread_slots(&self) -> usize {
        self.slots.len()
    }

    /// Current schedule-unit priority order (highest first).
    pub fn priority_order(&self) -> Vec<usize> {
        self.prio.order().collect()
    }

    /// Entries currently in each queue-register link (including
    /// in-flight ones not yet readable).
    pub fn queue_depths(&self) -> Vec<usize> {
        (0..self.slots.len()).map(|l| self.queues.len(l)).collect()
    }

    /// Enables or disables issue tracing. Tracing records every issue
    /// as an [`IssueEvent`]; it is intended for tests and debugging.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Issue events recorded so far (empty unless tracing is enabled).
    pub fn trace(&self) -> &[IssueEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Attaches a structured-event sink ([`crate::trace`]). The machine
    /// drives it with one [`TraceEvent`] per micro-architectural
    /// occurrence until detached; sinks built on shared handles
    /// ([`crate::RingSink`], [`crate::ChromeSink`], [`crate::TextSink`])
    /// stay inspectable through their clones.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the structured-event sink, if any.
    pub fn detach_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Records one stalled slot-cycle in the stats (aggregate and
    /// per-window) and emits the matching trace event. `pc` is the
    /// blocking instruction's address, when one exists.
    fn record_stall<const TRACED: bool>(
        &mut self,
        now: u64,
        slot: usize,
        reason: StallReason,
        pc: Option<u32>,
    ) {
        self.stats.record_stall(reason, now);
        if TRACED {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.event(&TraceEvent::Stall { cycle: now, slot, reason, pc });
            }
        }
    }

    // ------------------------------------------------------------------
    // Cycle phases
    // ------------------------------------------------------------------

    /// An empty thread slot can never execute `chgpri`, so if it holds
    /// the highest priority the rotation token would stop circulating
    /// and every priority-interlocked instruction (`chgpri`,
    /// `killothers`, gated stores) would wedge. The schedule units
    /// therefore skip past slots with no thread and nothing left in
    /// their standby stations, landing on the first slot in priority
    /// order that has either.
    fn skip_empty_priority_slots<const TRACED: bool>(&mut self, now: u64) {
        let h = self.prio.highest();
        // With no bound slot anywhere the token has nowhere useful to
        // land; leave it parked rather than spinning forever.
        if self.bound.contains(h) || self.slot_has_standby(h) || self.bound.is_empty() {
            return;
        }
        let live = self.bound.union(self.standby_slots());
        let rank = live.next_in_rotation(h, self.slots.len(), 0).expect("a bound slot exists");
        for _ in 0..rank {
            self.prio.force_rotate(now);
            let highest = self.prio.highest();
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::Rotation {
                        cycle: now,
                        kind: RotationKind::Forced,
                        highest,
                    });
                }
            }
        }
    }

    /// Wakes contexts whose remote access completed and binds ready
    /// contexts to free slots (concurrent multithreading, §2.1.3).
    fn wake_and_bind<const TRACED: bool>(&mut self, now: u64) {
        debug_assert_eq!(
            self.idle_contexts,
            self.contexts
                .iter()
                .filter(|c| matches!(c.state, CtxState::Ready | CtxState::Waiting { .. }))
                .count(),
            "idle-context counter out of sync"
        );
        // With no context Ready or Waiting, both loops below are
        // no-ops: nothing can wake and nothing can bind.
        if self.idle_contexts == 0 {
            return;
        }
        for ctx in &mut self.contexts {
            if let CtxState::Waiting { until } = ctx.state {
                if until <= now {
                    ctx.state = CtxState::Ready;
                }
            }
        }
        let free = SlotSet::first(self.slots.len()).minus(self.bound).minus(self.standby_slots());
        for s in free.iter() {
            let Some(c) = self.contexts.iter().position(|c| c.state == CtxState::Ready) else {
                break;
            };
            let penalty =
                if self.contexts[c].started { self.config.switch_penalty as u64 } else { 0 };
            let ctx = &mut self.contexts[c];
            ctx.state = CtxState::Running;
            ctx.started = true;
            self.idle_contexts -= 1;
            let slot = &mut self.slots[s];
            slot.ctx = Some(c);
            slot.fetch_pc = ctx.resume_pc;
            slot.window.clear();
            slot.block = None;
            for (inst, vals) in ctx.replay.drain(..) {
                slot.window.push_back(WinEntry::Replay(inst, vals));
            }
            slot.earliest_issue = now + penalty;
            let pc = slot.fetch_pc;
            self.bound.insert(s);
            self.fetch.set_active(s, true);
            self.fetch.request_redirect(s, now);
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::ThreadBind { cycle: now, slot: s, ctx: c, pc });
                }
            }
        }
    }

    /// Lets every bound slot (in priority order) issue up to `D`
    /// instructions; decode-unit instructions execute immediately,
    /// functional-unit instructions become schedule-unit candidates
    /// (appended to `cands`). Unbound slots record their NoThread
    /// stalls in bulk.
    fn issue_phase<const TRACED: bool>(
        &mut self,
        now: u64,
        cands: &mut Vec<InFlight>,
    ) -> Result<(), MachineError> {
        #[cfg(debug_assertions)]
        for s in 0..self.slots.len() {
            assert_eq!(
                self.bound.contains(s),
                self.slots[s].ctx.is_some(),
                "bound mask out of sync with slot {s}'s context"
            );
            assert!(
                self.slots[s].ctx.is_some() || self.slots[s].block.is_none(),
                "unbound slot {s} holds a block"
            );
        }
        let slots = self.slots.len();
        let highest = self.prio.highest();
        // `rank` walks the priority order; the mask is re-read after
        // every visit, because a `fastfork` binds slots further down
        // the order (visited this cycle) and a `killothers` or `halt`
        // unbinds them (idle from then on) — exactly the slots a full
        // scan would have found bound or unbound on reaching them.
        let mut rank = 0;
        while let Some(next) = self.bound.next_in_rotation(highest, slots, rank) {
            self.record_idle_slots::<TRACED>(now, highest, rank, next);
            rank = next + 1;
            let s = if highest + next >= slots { highest + next - slots } else { highest + next };
            // A live block short-circuits the whole issue path for its
            // slot: until `wake` (or a clearing event, which re-reads
            // the descriptor as `None` here — mid-phase unblocks, e.g.
            // a queue pop by an earlier slot, take effect in the same
            // cycle, exactly like the full rescan), a fresh evaluation
            // would reach the identical first-failing check.
            if let Some(b) = self.slots[s].block {
                if now < b.wake {
                    #[cfg(debug_assertions)]
                    self.assert_block_matches_fresh_eval(s, &b, now);
                    self.record_stall::<TRACED>(now, s, b.reason, b.pc);
                    continue;
                }
                self.unblock(s);
            }
            self.issue_slot::<TRACED>(s, now, cands)?;
        }
        self.record_idle_slots::<TRACED>(now, highest, rank, slots);
        Ok(())
    }

    /// Records the NoThread stalls of the unbound slots at priority
    /// ranks `from..to` of cycle `now`: one bulk add to the stats, and
    /// with a sink one `Stall` event per slot in priority order.
    fn record_idle_slots<const TRACED: bool>(
        &mut self,
        now: u64,
        highest: usize,
        from: usize,
        to: usize,
    ) {
        if from == to {
            return;
        }
        self.stats.record_stalls(StallReason::NoThread, now, (to - from) as u64);
        if TRACED {
            let slots = self.slots.len();
            if let Some(sink) = self.sink.as_deref_mut() {
                for rank in from..to {
                    sink.event(&TraceEvent::Stall {
                        cycle: now,
                        slot: (highest + rank) % slots,
                        reason: StallReason::NoThread,
                        pc: None,
                    });
                }
            }
        }
    }

    fn issue_slot<const TRACED: bool>(
        &mut self,
        s: usize,
        now: u64,
        cands: &mut Vec<InFlight>,
    ) -> Result<(), MachineError> {
        let ctx_i = self.slots[s].ctx.expect("the issue phase visits bound slots");
        if now < self.slots[s].earliest_issue {
            // The redirect (or rebind) has been delivered but the
            // decode pipeline is still refilling: the branch-shadow
            // tail, distinct from waiting on the fetch unit itself.
            // Stable until the shadow expires: the window and fetch PC
            // only change through events that unblock (redirect
            // deliveries, rebinds, kills), and the fill loop below is
            // skipped throughout the shadow.
            let pc = self.next_window_pc(s);
            self.record_stall::<TRACED>(now, s, StallReason::BranchShadow, Some(pc));
            self.block_slot(s, StallReason::BranchShadow, Some(pc), self.slots[s].earliest_issue);
            return Ok(());
        }
        // Fill the decode window ("the instruction window is filled
        // every cycle", §3.3).
        let program_len = self.program.len();
        let width = self.config.issue_width;
        while self.slots[s].window.len() < width && self.fetch.credits(s) > 0 {
            let pc = self.slots[s].fetch_pc;
            if (pc as usize) >= program_len {
                break; // fetch-ahead past the end; fault only if issued
            }
            self.slots[s].window.push_back(WinEntry::Fresh(pc));
            self.slots[s].fetch_pc = pc + 1;
            self.fetch.consume(s);
        }
        if self.slots[s].window.is_empty() {
            if self.fetch.credits(s) > 0 && (self.slots[s].fetch_pc as usize) >= program_len {
                return Err(MachineError::PcOutOfRange { slot: s, pc: self.slots[s].fetch_pc });
            }
            // An empty window after the fill implies no credits (with
            // credits, either the fill pushed an entry or the fault
            // above fired), so only a delivery — which unblocks —
            // changes this. A delivered PC past the end faults on that
            // re-evaluation, the same cycle the plain rescan would.
            debug_assert_eq!(self.fetch.credits(s), 0, "starved slot still holds fetch credits");
            let pc = self.slots[s].fetch_pc;
            self.record_stall::<TRACED>(now, s, StallReason::Fetch, Some(pc));
            self.block_slot(s, StallReason::Fetch, Some(pc), u64::MAX);
            return Ok(());
        }
        // Without standby stations, a previously issued instruction
        // that lost arbitration blocks the whole decode unit.
        if !self.config.standby_stations && self.slot_has_standby(s) {
            let base = s * FU_CLASS_COUNT;
            let pc = self.standby[base..base + FU_CLASS_COUNT]
                .iter()
                .find_map(StandbyStation::front)
                .map(|f| f.pc);
            self.record_stall::<TRACED>(now, s, StallReason::FuConflict, pc);
            return Ok(());
        }

        let mut unissued_reads: u64 = 0;
        let mut unissued_writes: u64 = 0;
        let mut unissued_mem = false;
        let mut unissued_store = false;
        let mut class_taken = [false; FU_CLASS_COUNT];
        let mut issued = 0usize;
        let mut head_reason = None;
        let mut head_pc = None;
        let mut head_wake = None;
        let mut head_blockable = false;
        let mut i = 0usize;
        while i < self.slots[s].window.len() && issued < width {
            let entry = self.slots[s].window[i];
            // Fresh entries read the predecoded store; replays (rare —
            // only after a data-absence trap) re-lower their saved
            // instruction so the window entry stays small.
            let (di, preset, pc) = match entry {
                WinEntry::Fresh(pc) => (self.program.insts()[pc as usize], None, pc),
                WinEntry::Replay(inst, vals) => {
                    (DecodedInst::of(inst), Some(vals), self.contexts[ctx_i].resume_pc)
                }
            };
            // The event wheel's end-of-step probe may have already run
            // this exact evaluation (same cycle, same fresh head, same
            // all-clear accumulators) and proven it passes; reuse the
            // proof instead of repeating it. Debug builds repeat it
            // anyway and check agreement.
            let probe_passed =
                i == 0 && issued == 0 && preset.is_none() && self.head_pass == Some((now, s, pc));
            let check = if probe_passed {
                #[cfg(debug_assertions)]
                assert!(
                    self.check_issue(
                        s,
                        ctx_i,
                        &di,
                        false,
                        now,
                        0,
                        0,
                        (false, false),
                        &[false; FU_CLASS_COUNT],
                        true,
                    )
                    .is_ok(),
                    "head-issue proof diverged from a fresh evaluation"
                );
                Ok(())
            } else {
                self.check_issue(
                    s,
                    ctx_i,
                    &di,
                    preset.is_some(),
                    now,
                    unissued_reads,
                    unissued_writes,
                    (unissued_mem, unissued_store),
                    &class_taken,
                    i == 0,
                )
            };
            match check {
                Err(IssueBlock::Fault(mut e)) => {
                    if let MachineError::QueueMisuse { pc: epc, .. }
                    | MachineError::NoFunctionalUnit { pc: epc, .. } = &mut e
                    {
                        *epc = pc;
                    }
                    return Err(e);
                }
                Err(IssueBlock::Stall(reason, wake)) => {
                    if i == 0 {
                        head_reason = Some(reason);
                        head_pc = Some(pc);
                        head_wake = wake;
                        // Replays resume via `wake_and_bind` and
                        // priority-gated ops can unblock on rotation;
                        // neither stall is stable, so never block.
                        head_blockable =
                            matches!(entry, WinEntry::Fresh(_)) && !di.needs_highest_priority();
                    }
                    if di.is_decode_unit() {
                        break; // never bypass an unissued decode-unit op
                    }
                    unissued_reads |= di.src_mask;
                    unissued_writes |= di.dest_mask;
                    if di.is_mem() {
                        unissued_mem = true;
                        if di.is_store() {
                            unissued_store = true;
                        }
                    }
                    i += 1;
                }
                Ok(()) => {
                    self.slots[s].window.remove(i);
                    issued += 1;
                    self.stats.instructions += 1;
                    self.stats.per_slot_issued[s] += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push(IssueEvent { cycle: now, slot: s, ctx: ctx_i, pc });
                    }
                    if TRACED {
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.event(&TraceEvent::Issue { cycle: now, slot: s, ctx: ctx_i, pc });
                        }
                    }
                    if let Some(class) = di.fu {
                        class_taken[class.index()] = true;
                        let fi = self.capture::<TRACED>(s, ctx_i, pc, &di, preset, now);
                        cands.push(fi);
                    } else {
                        let redirected = self.exec_decode::<TRACED>(s, ctx_i, pc, &di, now)?;
                        if redirected || self.slots[s].ctx.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        if issued == 0 {
            self.record_stall::<TRACED>(now, s, head_reason.unwrap_or(StallReason::Fetch), head_pc);
            // Block on the head stall when its outcome is provably
            // stable: single-issue decode (the window is exactly this
            // head, so re-evaluation is pure and the fill loop stays a
            // no-op), a fresh non-gated entry, and a wake hint that
            // buys at least one skipped cycle. Register writeback to
            // this context, standby pops/clears for this slot, queue
            // pushes/pops on its links, and any rebind/redirect
            // unblock.
            if self.config.issue_width == 1 && self.slots[s].window.len() == 1 && head_blockable {
                if let (Some(reason), Some(pc), Some(wake)) = (head_reason, head_pc, head_wake) {
                    if wake > now + 1 {
                        self.block_slot(s, reason, Some(pc), wake);
                    }
                }
            }
        }
        Ok(())
    }

    /// Debug-only proof that replaying a block records exactly the
    /// stall a fresh evaluation would (`check_issue` is side-effect
    /// free). Panics on any divergence.
    #[cfg(debug_assertions)]
    fn assert_block_matches_fresh_eval(&self, s: usize, b: &SlotBlock, now: u64) {
        let slot = &self.slots[s];
        match b.reason {
            StallReason::BranchShadow => {
                assert!(slot.ctx.is_some(), "BranchShadow block on an unbound slot {s}");
                assert!(now < slot.earliest_issue, "BranchShadow block past the shadow expiry");
                assert_eq!(
                    b.wake, slot.earliest_issue,
                    "BranchShadow wake drifted from the shadow"
                );
                assert_eq!(b.pc, Some(self.next_window_pc(s)), "BranchShadow pc drifted");
            }
            StallReason::Fetch => {
                assert!(slot.ctx.is_some(), "Fetch block on an unbound slot {s}");
                assert!(now >= slot.earliest_issue, "Fetch block inside a branch shadow");
                assert!(slot.window.is_empty(), "Fetch block with a non-empty window");
                assert_eq!(self.fetch.credits(s), 0, "Fetch block with credits available");
                assert_eq!(b.pc, Some(slot.fetch_pc), "Fetch block pc drifted");
            }
            _ => {
                // A blocked head stall: re-run the full head check.
                let ctx_i = slot.ctx.expect("head block on an unbound slot");
                assert!(now >= slot.earliest_issue, "head block across a redirect");
                let Some(&WinEntry::Fresh(pc)) = slot.window.front() else {
                    panic!("head block without a fresh window head on slot {s}");
                };
                assert!(slot.window.len() == 1 && Some(pc) == b.pc, "head block pc drifted");
                let di = self.program.insts()[pc as usize];
                assert!(
                    matches!(
                        self.check_issue(
                            s,
                            ctx_i,
                            &di,
                            false,
                            now,
                            0,
                            0,
                            (false, false),
                            &[false; FU_CLASS_COUNT],
                            true,
                        ),
                        Err(IssueBlock::Stall(r, _)) if r == b.reason
                    ),
                    "head block diverged from a fresh head evaluation on slot {s}"
                );
            }
        }
    }

    /// The watchdog's error: for each bound slot, what its head is
    /// stuck on — its block if it holds one, else one side-effect-free
    /// evaluation of its head.
    #[cold]
    fn watchdog(&self, now: u64) -> MachineError {
        let slots = (0..self.slots.len())
            .filter_map(|s| {
                let slot = &self.slots[s];
                let ctx_i = slot.ctx?;
                let stuck = |reason, pc, wake: u64| StuckSlot {
                    slot: s,
                    reason: Some(reason),
                    pc,
                    wake: (wake != u64::MAX).then_some(wake),
                };
                if let Some(b) = slot.block.filter(|b| now < b.wake) {
                    return Some(stuck(b.reason, b.pc, b.wake));
                }
                if now < slot.earliest_issue {
                    let pc = Some(self.next_window_pc(s));
                    return Some(stuck(StallReason::BranchShadow, pc, slot.earliest_issue));
                }
                let (di, replay, pc) = match slot.window.front() {
                    Some(&WinEntry::Fresh(pc)) => (self.program.insts()[pc as usize], false, pc),
                    Some(&WinEntry::Replay(inst, _)) => {
                        (DecodedInst::of(inst), true, self.contexts[ctx_i].resume_pc)
                    }
                    None => {
                        return Some(stuck(StallReason::Fetch, Some(slot.fetch_pc), u64::MAX));
                    }
                };
                let idle = &[false; FU_CLASS_COUNT];
                let check =
                    self.check_issue(s, ctx_i, &di, replay, now, 0, 0, (false, false), idle, true);
                Some(match check {
                    Err(IssueBlock::Stall(reason, wake)) => {
                        stuck(reason, Some(pc), wake.unwrap_or(u64::MAX))
                    }
                    // A head that would fault ends the run when it
                    // issues, so like one that passes it is not stuck.
                    Ok(()) | Err(IssueBlock::Fault(_)) => {
                        StuckSlot { slot: s, reason: None, pc: Some(pc), wake: None }
                    }
                })
            })
            .collect();
        MachineError::Watchdog { cycles: self.config.max_cycles, slots }
    }

    /// Address of the oldest fresh instruction the slot will issue
    /// (falls back to the fetch PC when the window holds no fresh
    /// entries).
    fn next_window_pc(&self, s: usize) -> u32 {
        self.slots[s]
            .window
            .iter()
            .find_map(|e| match e {
                WinEntry::Fresh(pc) => Some(*pc),
                WinEntry::Replay(..) => None,
            })
            .unwrap_or(self.slots[s].fetch_pc)
    }

    /// All the §2.1.1/§2.2 issue conditions for one instruction.
    #[allow(clippy::too_many_arguments)]
    fn check_issue(
        &self,
        s: usize,
        ctx_i: usize,
        di: &DecodedInst,
        is_replay: bool,
        now: u64,
        unissued_reads: u64,
        unissued_writes: u64,
        (unissued_mem, unissued_store): (bool, bool),
        class_taken: &[bool; FU_CLASS_COUNT],
        is_head: bool,
    ) -> Result<(), IssueBlock> {
        use IssueBlock::{Fault, Stall};
        let ctx = &self.contexts[ctx_i];

        // Decode-unit instructions execute in order: they issue only
        // once every older instruction has issued.
        if di.is_decode_unit() && !is_head {
            return Err(Stall(StallReason::Data, None));
        }
        // Memory ordering within the issue window (D > 1): without
        // address disambiguation hardware, a load may not bypass an
        // unissued store and a store may not bypass any unissued
        // memory operation.
        if di.is_mem() {
            let is_store = di.is_store();
            if (is_store && unissued_mem) || (!is_store && unissued_store) {
                return Err(Stall(StallReason::Data, None));
            }
        }
        if di.needs_highest_priority() && self.prio.highest() != s {
            return Err(Stall(StallReason::Priority, None));
        }
        // `drain` is the §2.3.3 consistency fence: it issues only once
        // every previously issued instruction has been performed (the
        // slot's standby stations are empty; in this model selection
        // is completion, so empty stations mean all effects applied).
        if matches!(di.inst, Inst::Drain) && self.slot_has_standby(s) {
            return Err(Stall(StallReason::Data, None));
        }
        // `fastfork` copies the parent's register set into the
        // children's context frames; it waits until every outstanding
        // write has landed so the copy is quiescent (otherwise a load
        // still in flight would leave a child's scoreboard bit set
        // forever and its value stale).
        if matches!(di.inst, Inst::FastFork) && !ctx.regs.all_ready(now) {
            return Err(Stall(StallReason::Data, None));
        }
        // Rotating the priority away while this slot still has an
        // unperformed gated store would strand that store (it is only
        // performed at the highest priority), so `chgpri` waits for it.
        if matches!(di.inst, Inst::ChgPri) {
            let ls = FuClass::LoadStore.index();
            if self.station(s, ls).iter().any(|f| f.di.is_gated_store()) {
                return Err(Stall(StallReason::Priority, None));
            }
        }
        // Register hazards, operand by operand in order, against the
        // per-register ready times. Only a context that maps a queue
        // register needs the queue rules; testing that once keeps their
        // compares off the common path.
        let queued = ctx.qread.is_some() || ctx.qwrite.is_some();
        if !is_replay {
            for r in di.src.into_iter().filter(|&r| is_reg(r)) {
                if unissued_writes & (1u64 << r) != 0 {
                    return Err(Stall(StallReason::Data, None));
                }
                if queued && ctx.qread == Some(r) {
                    let link = self.queues.read_link(s);
                    if !self.queues.can_read(link, now) {
                        // Wake when the front entry matures (`MAX` for
                        // an empty link — only a push lifts that, and
                        // pushes clear the block).
                        return Err(Stall(
                            StallReason::QueueEmpty,
                            Some(self.queues.readable_at(link)),
                        ));
                    }
                } else if queued && ctx.qwrite == Some(r) {
                    return Err(Fault(MachineError::QueueMisuse {
                        slot: s,
                        pc: 0,
                        detail: format!("read of write-mapped queue register {}", reg_name(r)),
                    }));
                } else if !ctx.regs.is_ready(r, now) {
                    return Err(Stall(StallReason::Data, Some(ctx.regs.ready_time(r))));
                }
            }
        }
        let d = di.dst;
        if d != NO_REG {
            if (unissued_writes | unissued_reads) & di.dest_mask != 0 {
                return Err(Stall(StallReason::Data, None));
            }
            if queued && ctx.qwrite == Some(d) {
                let link = self.queues.write_link(s);
                if !self.queues.can_write(link) {
                    // On a one-slot ring the consumer is this slot: with
                    // single-issue decode and nothing in flight (so no
                    // trap can switch the context out) nothing behind
                    // this head ever issues to pop the link — a certain
                    // deadlock, reported now rather than by the watchdog.
                    if self.slots.len() == 1
                        && self.config.issue_width == 1
                        && !self.slot_has_standby(s)
                    {
                        return Err(Fault(MachineError::QueueMisuse {
                            slot: s,
                            pc: 0,
                            detail: format!(
                                "write to full queue link {link}, which only this slot drains \
                                 (a one-slot ring deadlock)"
                            ),
                        }));
                    }
                    // Only the consumer's pop can free a full link,
                    // and pops clear the block.
                    return Err(Stall(StallReason::QueueFull, Some(u64::MAX)));
                }
            } else if queued && ctx.qread == Some(d) {
                return Err(Fault(MachineError::QueueMisuse {
                    slot: s,
                    pc: 0,
                    detail: format!("write to read-mapped queue register {}", reg_name(d)),
                }));
            } else if !is_replay && !ctx.regs.is_ready(d, now) {
                // WAW interlock
                return Err(Stall(StallReason::Data, Some(ctx.regs.ready_time(d))));
            }
        }
        if let Some(class) = di.fu {
            // A class with no instances would park the instruction in
            // standby forever (until the watchdog): fail it instead.
            if self.config.fu.count(class) == 0 {
                return Err(Fault(MachineError::NoFunctionalUnit { slot: s, pc: 0, class }));
            }
            if self.station(s, class.index()).len() >= self.config.standby_depth
                || class_taken[class.index()]
            {
                return Err(Stall(StallReason::FuConflict, Some(u64::MAX)));
            }
        }
        Ok(())
    }

    /// Reads operands (stage S), marks the destination scoreboard bit,
    /// and produces the in-flight record.
    fn capture<const TRACED: bool>(
        &mut self,
        s: usize,
        ctx_i: usize,
        pc: u32,
        di: &DecodedInst,
        preset: Option<[u64; 2]>,
        now: u64,
    ) -> InFlight {
        let vals = match preset {
            Some(v) => v,
            None => self.read_operands::<TRACED>(s, ctx_i, di, now),
        };
        let d = di.dst;
        if d != NO_REG && self.contexts[ctx_i].qwrite != Some(d) {
            self.contexts[ctx_i].regs.mark_busy(d);
        }
        InFlight {
            slot: s,
            ctx: ctx_i,
            pc,
            di: *di,
            vals,
            replayed: preset.is_some(),
            issued_at: now,
        }
    }

    /// The machine's one operand read (stage S), for functional-unit
    /// captures and the decode unit's branches and `jr` alike: per
    /// source slot, the register's bits, the folded immediate, or 0.
    /// A source naming the context's read-mapped queue register
    /// dequeues, once per instruction even when both slots name it;
    /// the pop frees a queue entry, so the link's writer (the
    /// predecessor slot) may hold a `QueueFull` block that now lifts.
    fn read_operands<const TRACED: bool>(
        &mut self,
        s: usize,
        ctx_i: usize,
        di: &DecodedInst,
        now: u64,
    ) -> [u64; 2] {
        let ctx = &self.contexts[ctx_i];
        let link = self.queues.read_link(s);
        let queues = &mut self.queues;
        let mut popped = None;
        let vals = di.src.map(|r| match r {
            NO_REG => 0,
            SRC_IMM => di.imm,
            r if ctx.qread == Some(r) => *popped.get_or_insert_with(|| queues.read(link)),
            r => ctx.regs.read(r),
        });
        debug_assert_eq!(
            vals,
            resolve_operands(&di.inst, |reg| match popped {
                Some(v) if ctx.qread == Some(operand(reg)) => v,
                _ => ctx.regs.read(operand(reg)),
            }),
            "operand read diverged from the resolver for `{}`",
            di.inst
        );
        if popped.is_some() {
            let writer = (link + self.slots.len() - 1) % self.slots.len();
            self.unblock(writer);
            if TRACED {
                let depth = self.queues.len(link);
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::QueuePop { cycle: now, slot: s, link, depth });
                }
            }
        }
        vals
    }

    /// Executes a decode-unit instruction at issue time. Returns true
    /// if control was redirected (window flushed).
    fn exec_decode<const TRACED: bool>(
        &mut self,
        s: usize,
        ctx_i: usize,
        pc: u32,
        di: &DecodedInst,
        now: u64,
    ) -> Result<bool, MachineError> {
        match di.inst {
            Inst::Nop => Ok(false),
            Inst::Branch { cond, target, .. } => {
                let vals = self.read_operands::<TRACED>(s, ctx_i, di, now);
                if branch_taken(cond, vals) {
                    self.redirect(s, target, now);
                    Ok(true)
                } else if self.config.refetch_fallthrough {
                    // The paper's machine sends the fetch request at
                    // the end of D1 regardless of the outcome, so the
                    // fall-through path also refetches.
                    self.redirect(s, pc + 1, now);
                    Ok(true)
                } else {
                    // Ablation: keep streaming the sequential path.
                    Ok(false)
                }
            }
            Inst::Jump { target } => {
                self.redirect(s, target, now);
                Ok(true)
            }
            Inst::JumpReg { .. } => {
                let vals = self.read_operands::<TRACED>(s, ctx_i, di, now);
                self.redirect(s, vals[0] as u32, now);
                Ok(true)
            }
            Inst::Halt => {
                self.contexts[ctx_i].state = CtxState::Done;
                self.live_contexts -= 1;
                self.detach(s);
                Ok(true)
            }
            Inst::FastFork => self.fast_fork(s, ctx_i, pc, now).map(|()| false),
            Inst::ChgPri => {
                self.prio.request_explicit();
                Ok(false)
            }
            Inst::KillOthers => {
                self.kill_others(s);
                Ok(false)
            }
            Inst::SetRotation { mode } => {
                self.prio.set_mode(mode, now);
                Ok(false)
            }
            Inst::QMap { read, write } => {
                if read == write {
                    return Err(MachineError::QueueMisuse {
                        slot: s,
                        pc,
                        detail: format!("qmap maps {read} for both read and write"),
                    });
                }
                let ctx = &mut self.contexts[ctx_i];
                ctx.qread = Some(operand(read));
                ctx.qwrite = Some(operand(write));
                Ok(false)
            }
            Inst::QUnmap => {
                let ctx = &mut self.contexts[ctx_i];
                ctx.qread = None;
                ctx.qwrite = None;
                Ok(false)
            }
            Inst::Drain => Ok(false), // the interlock happened at issue
            other => unreachable!("`{other}` is not a decode-unit instruction"),
        }
    }

    fn redirect(&mut self, s: usize, next_pc: u32, now: u64) {
        let slot = &mut self.slots[s];
        slot.fetch_pc = next_pc;
        slot.window.clear();
        slot.block = None;
        self.fetch.request_redirect(s, now);
    }

    fn detach(&mut self, s: usize) {
        self.slots[s].ctx = None;
        self.slots[s].window.clear();
        self.unblock(s);
        self.bound.remove(s);
        self.fetch.set_active(s, false);
    }

    fn fast_fork(&mut self, s: usize, ctx_i: usize, pc: u32, now: u64) -> Result<(), MachineError> {
        self.contexts[ctx_i].lpid = s as i64;
        for j in 0..self.slots.len() {
            if j == s {
                continue;
            }
            if self.slots[j].ctx.is_some() {
                return Err(MachineError::ForkBusy { slot: j, pc });
            }
            let free = self
                .contexts
                .iter()
                .position(|c| c.state == CtxState::Free)
                .ok_or(MachineError::NoFreeContext { pc })?;
            let (qread, qwrite) = (self.contexts[ctx_i].qread, self.contexts[ctx_i].qwrite);
            // `fastfork` issues only against a quiescent parent bank
            // (see `check_issue`), so copying the architectural values
            // and resetting the child's scoreboard is equivalent to a
            // full clone — without the heap traffic of one.
            let (parent, child) = Self::pair_mut(&mut self.contexts, ctx_i, free);
            child.regs.copy_arch_from(&parent.regs);
            self.live_contexts += 1;
            let child = &mut self.contexts[free];
            child.state = CtxState::Running;
            child.lpid = j as i64;
            child.resume_pc = pc + 1;
            child.qread = qread;
            child.qwrite = qwrite;
            child.started = true;
            let slot = &mut self.slots[j];
            slot.ctx = Some(free);
            slot.fetch_pc = pc + 1;
            slot.window.clear();
            slot.block = None;
            slot.earliest_issue = 0;
            self.bound.insert(j);
            self.fetch.set_active(j, true);
            self.fetch.request_redirect(j, now);
        }
        Ok(())
    }

    fn kill_others(&mut self, s: usize) {
        let my_ctx = self.slots[s].ctx;
        for j in 0..self.slots.len() {
            if j == s {
                continue;
            }
            if let Some(c) = self.slots[j].ctx.take() {
                self.contexts[c].state = CtxState::Done;
                self.live_contexts -= 1;
                self.stats.threads_killed += 1;
            }
            self.slots[j].window.clear();
            self.unblock(j);
            for ci in 0..FU_CLASS_COUNT {
                self.standby_clear(j, ci);
            }
            self.fetch.set_active(j, false);
        }
        self.bound = SlotSet::EMPTY;
        self.bound.insert(s);
        // Unbound runnable/waiting contexts die too.
        let mut killed = 0usize;
        for (i, ctx) in self.contexts.iter_mut().enumerate() {
            if Some(i) == my_ctx {
                continue;
            }
            if matches!(ctx.state, CtxState::Ready | CtxState::Waiting { .. }) {
                ctx.state = CtxState::Done;
                killed += 1;
                self.stats.threads_killed += 1;
            }
        }
        self.live_contexts -= killed;
        self.idle_contexts -= killed;
        self.queues.flush();
    }

    // ------------------------------------------------------------------
    // Schedule units (stage S arbitration) and execution
    // ------------------------------------------------------------------

    /// Per-class dynamic scheduling with rotating priorities (§2.2):
    /// standby occupants and this cycle's issues compete; winners start
    /// execution, losers (or survivors) sit in standby stations.
    fn arbitrate<const TRACED: bool>(
        &mut self,
        cands: &mut Vec<InFlight>,
        now: u64,
    ) -> Result<(), MachineError> {
        let tracing = TRACED && self.sink.is_some();
        debug_assert!(self.standby_bookkeeping_consistent(), "standby bookkeeping is in sync");
        // Every issue joins the back of its slot's standby queue up
        // front — it is the youngest there, and `class_taken` caps a
        // slot at one issue per class per cycle, so cross-class push
        // order is immaterial. Arbitration is then a pure drain of
        // the per-class occupancy masks: no candidate scans, and the
        // per-class loops visit exactly the slots with work
        // (find-first-set in priority order) instead of walking every
        // slot. The masks are snapshotted before any unit is granted:
        // a mid-drain detach empties the detaching slot's LoadStore
        // station, and the trace's competitor sets must describe the
        // cycle's entrants, not the survivors.
        for f in cands.drain(..) {
            let class = f.di.fu.expect("arbitrated candidates target a functional unit");
            self.standby_push(f.slot, class.index(), f);
        }
        let competing_by_class = self.standby_mask;
        let slots = self.slots.len();
        let highest = self.prio.highest();
        for class in FuClass::ALL {
            let ci = class.index();
            let competing = competing_by_class[ci];
            if competing.is_empty() {
                continue;
            }
            let mut winner_slots = SlotSet::EMPTY;
            for s in competing.iter_from(highest, slots) {
                while let Some(&front) = self.station(s, ci).front() {
                    // A priority-gated store is performed only by the
                    // highest-priority logical processor (§2.3.3); if
                    // the priority rotated away while it sat in
                    // standby, it keeps waiting there (and younger
                    // same-class work behind it stays ordered).
                    if front.di.needs_highest_priority() && self.prio.highest() != s {
                        break;
                    }
                    let Some(instance) = self.fu_pool.first_free(ci, now) else {
                        break;
                    };
                    let f = self.standby_pop(s, ci);
                    self.fu_pool.occupy(ci, instance, now + f.di.issue_latency() as u64);
                    if tracing {
                        winner_slots.insert(s);
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.event(&TraceEvent::FuWin {
                                cycle: now,
                                slot: s,
                                class,
                                instance,
                                pc: f.pc,
                                busy: f.di.issue_latency() as u64,
                                competitors: competing.without(s),
                            });
                        }
                    }
                    self.execute_selected::<TRACED>(f, class, instance, now)?;
                }
            }
            if tracing && !competing.is_empty() {
                // Everything still standing by either lost arbitration
                // (the slot's front runner) or parked behind it. The
                // standby and sink fields borrow disjointly, so losses
                // emit directly without buffering.
                let parked = self.standby_mask[ci];
                let standby = &self.standby;
                if let Some(sink) = self.sink.as_deref_mut() {
                    for s in parked.iter_from(highest, slots) {
                        for (i, f) in standby[s * FU_CLASS_COUNT + ci].iter().enumerate() {
                            if i == 0 {
                                sink.event(&TraceEvent::FuLoss {
                                    cycle: now,
                                    slot: s,
                                    class,
                                    pc: f.pc,
                                    gated: f.di.needs_highest_priority() && highest != s,
                                    winners: winner_slots,
                                });
                            } else if f.issued_at == now {
                                sink.event(&TraceEvent::Park {
                                    cycle: now,
                                    slot: s,
                                    class,
                                    pc: f.pc,
                                });
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(cands.is_empty(), "every candidate must be selected or parked");
        Ok(())
    }

    /// Debug-build rescan: the occupancy mask, per-slot counts, and
    /// machine-wide total all agree with the stations themselves.
    /// Allocation-free so the counting-allocator test can run with
    /// debug assertions enabled.
    #[cfg(debug_assertions)]
    fn standby_bookkeeping_consistent(&self) -> bool {
        let mut rescan = [SlotSet::EMPTY; FU_CLASS_COUNT];
        let mut total = 0usize;
        let mut counts_ok = true;
        for s in 0..self.slots.len() {
            let mut slot_count = 0u16;
            for (ci, mask) in rescan.iter_mut().enumerate() {
                let n = self.station(s, ci).len();
                if n > 0 {
                    mask.insert(s);
                }
                slot_count += n as u16;
                total += n;
            }
            counts_ok &= slot_count == self.standby_slot_count[s];
        }
        counts_ok && rescan == self.standby_mask && total == self.standby_total
    }

    #[cfg(not(debug_assertions))]
    #[allow(dead_code)]
    fn standby_bookkeeping_consistent(&self) -> bool {
        true
    }

    fn execute_selected<const TRACED: bool>(
        &mut self,
        f: InFlight,
        class: FuClass,
        instance: usize,
        now: u64,
    ) -> Result<(), MachineError> {
        debug_assert_fresh_decode(&f.di);
        let ci = class.index();
        let lat = f.di.latency;
        self.stats.fu_invocations[ci] += 1;
        self.stats.fu_busy[ci] += lat.issue as u64;
        let nlp = self.slots.len() as i64;
        let lpid = self.contexts[f.ctx].lpid;
        let action = fu_action(&f.di.inst, f.vals, lpid, nlp).ok_or_else(|| {
            MachineError::DecodeAtFu { slot: f.slot, pc: f.pc, inst: f.di.inst.to_string() }
        })?;
        match action {
            FuAction::Write(bits) => {
                self.write_dest::<TRACED>(&f, bits, now, lat.result);
            }
            FuAction::Load { addr } => match self.timed_access(&f, addr, false, now) {
                Access::Hit { latency } => {
                    let bits = self.memory.read(addr).map_err(|source| MachineError::Mem {
                        slot: f.slot,
                        pc: f.pc,
                        source,
                    })?;
                    // Table 1's 4-cycle load result includes the
                    // 2-cycle data cache; slower accesses stretch it.
                    let result = 2 + latency;
                    self.write_dest::<TRACED>(&f, bits, now, result);
                    if latency as u64 > lat.issue as u64 {
                        self.fu_pool.occupy(ci, instance, now + latency as u64);
                    }
                }
                Access::Absent { ready_after } => {
                    self.data_absence_trap::<TRACED>(f, addr, now + ready_after)?
                }
            },
            FuAction::Store { addr, bits } => match self.timed_access(&f, addr, true, now) {
                Access::Hit { latency } => {
                    self.memory.write(addr, bits).map_err(|source| MachineError::Mem {
                        slot: f.slot,
                        pc: f.pc,
                        source,
                    })?;
                    if latency as u64 > lat.issue as u64 {
                        self.fu_pool.occupy(ci, instance, now + latency as u64);
                    }
                }
                Access::Absent { ready_after } => {
                    self.data_absence_trap::<TRACED>(f, addr, now + ready_after)?
                }
            },
        }
        Ok(())
    }

    /// Consults the memory timing model, except for replayed accesses
    /// whose remote request already completed before the thread was
    /// resumed (§2.1.3).
    fn timed_access(&mut self, f: &InFlight, addr: u64, write: bool, now: u64) -> Access {
        if f.replayed {
            // The data arrived while the thread was switched out; the
            // replay hits the local cache.
            return Access::Hit { latency: 2 };
        }
        self.mem_model.access(addr, write, now)
    }

    /// Writes a result to its destination: the outgoing queue register
    /// if mapped, the context's register bank otherwise.
    fn write_dest<const TRACED: bool>(
        &mut self,
        f: &InFlight,
        bits: u64,
        now: u64,
        result_latency: u32,
    ) {
        let d = f.di.dst;
        if d == NO_REG {
            return;
        }
        if self.contexts[f.ctx].qwrite == Some(d) {
            let link = self.queues.write_link(f.slot);
            let avail = now + result_latency as u64 + 1;
            self.queues.write(link, avail, bits);
            // The link's reader (slot `link` by the Figure 5 topology)
            // may hold a QueueEmpty block keyed to the old front
            // entry; the push changes what a fresh evaluation would
            // see.
            self.unblock(link);
            if TRACED {
                let depth = self.queues.len(link);
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::QueuePush {
                        cycle: now,
                        slot: f.slot,
                        link,
                        avail,
                        depth,
                    });
                }
            }
        } else {
            self.contexts[f.ctx].regs.write(d, bits, now, result_latency);
            // A register just left the busy state: any Data block of
            // the slot this context is bound to may lift. That is the
            // issuing slot unless a trap migrated the context (or it
            // finished); a context is bound to at most one slot.
            if self.slots[f.slot].ctx == Some(f.ctx) {
                self.unblock(f.slot);
            } else if let Some(s) = self.bound.iter().find(|&s| self.slots[s].ctx == Some(f.ctx)) {
                self.unblock(s);
            }
            if TRACED {
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.event(&TraceEvent::Writeback {
                        cycle: now,
                        slot: f.slot,
                        ctx: f.ctx,
                        pc: f.pc,
                        dest: reg_name(d),
                        avail: now + result_latency as u64,
                    });
                }
            }
        }
    }

    /// The §2.1.3 data-absence trap: record the access in the context's
    /// access requirement buffer and switch the thread out until the
    /// remote access completes.
    ///
    /// A context with a queue register mapped cannot be switched out:
    /// `wake_and_bind` may resume it on another slot, while its ring
    /// data stays on the links of this one. The paper never combines
    /// queue registers (§2.3) with data-absence switching (§2.1.3), so
    /// the trap ends the run with a typed error instead of a deadlock.
    fn data_absence_trap<const TRACED: bool>(
        &mut self,
        f: InFlight,
        addr: u64,
        ready_at: u64,
    ) -> Result<(), MachineError> {
        let s = f.slot;
        if self.contexts[f.ctx].qread.is_some() || self.contexts[f.ctx].qwrite.is_some() {
            return Err(MachineError::QueueMisuse {
                slot: s,
                pc: f.pc,
                detail: format!(
                    "data-absence trap on word {addr:#x} in a context with queue registers mapped"
                ),
            });
        }
        let ls = FuClass::LoadStore.index();
        // Younger memory operations already waiting in the load/store
        // standby queue are flushed into the access requirement buffer
        // too (§2.1.3: outstanding memory requests are saved as part
        // of the context); non-memory standby entries drain normally.
        // The station and the context are disjoint fields, so the
        // flush moves directly without a temporary buffer.
        {
            let station = &self.standby[s * FU_CLASS_COUNT + ls];
            let ctx = &mut self.contexts[f.ctx];
            ctx.replay.push((f.di.inst, f.vals));
            ctx.replay.extend(station.iter().map(|g| (g.di.inst, g.vals)));
        }
        self.standby_clear(s, ls);
        self.idle_contexts += 1;
        let ctx = &mut self.contexts[f.ctx];
        ctx.state = CtxState::Waiting { until: ready_at };
        // Save the restart point: the oldest unissued instruction.
        let resume = self.slots[s]
            .window
            .iter()
            .find_map(|e| match e {
                WinEntry::Fresh(pc) => Some(*pc),
                WinEntry::Replay(..) => None,
            })
            .unwrap_or(self.slots[s].fetch_pc);
        ctx.resume_pc = resume;
        // Earlier replay entries still in the window move back to the
        // buffer so they re-execute on resume.
        let ctx = &mut self.contexts[f.ctx];
        for e in self.slots[s].window.iter() {
            if let WinEntry::Replay(inst, vals) = e {
                ctx.replay.push((*inst, *vals));
            }
        }
        self.detach(s);
        self.stats.context_switches += 1;
        if TRACED {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.event(&TraceEvent::ContextSwitch {
                    cycle: self.cycle,
                    slot: s,
                    ctx: f.ctx,
                    resume_at: ready_at,
                });
            }
        }
        Ok(())
    }
}
