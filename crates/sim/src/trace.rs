//! Structured per-cycle event tracing.
//!
//! The machine drives an optional [`TraceSink`] with one [`TraceEvent`]
//! per micro-architectural occurrence: fetch deliveries, issues, stalls
//! (with the blocking instruction's PC), standby-station parks,
//! FU-arbitration wins and losses (with the competing slots), result
//! writebacks, queue-register pushes/pops, priority rotations, thread
//! binds, and context switches. Tracing costs nothing while no sink is
//! attached: the cycle kernel is compiled twice, with and without sink
//! emission, and a run picks one once per call, so the untraced kernel
//! carries no emission code at all and the traced one builds an event
//! only for an attached sink. A run with any sink attached, a
//! [`NullSink`] included, steps every cycle and so forgoes the event
//! wheel's jumps over stalled spans.
//!
//! Four sinks ship with the simulator:
//!
//! * [`NullSink`] — drops every event, the baseline for measuring the
//!   traced kernel's own cost;
//! * [`RingSink`] — a bounded in-memory ring, the backbone of the test
//!   harness (keeps the last N events for post-mortem dumps);
//! * [`ChromeSink`] — records everything and renders Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` or Perfetto,
//!   with one track per thread slot and one per functional unit;
//! * [`TextSink`] — a compact line-per-event text log for the CLI.
//!
//! Sinks use a shared-handle pattern: cloning a sink yields a second
//! handle onto the same buffer, so a caller can hand one clone to the
//! machine (boxed) and keep the other to inspect events after the run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use hirata_isa::{FuClass, FuConfig, Reg};

use crate::stats::StallReason;

/// A set of thread-slot indices packed into one 64-bit mask, so
/// arbitration events carry their competitor/winner sets without heap
/// allocation on the trace hot path, and the machine's per-slot masks
/// (bound slots, standby occupancy) cost one word. Slot indices stay
/// below 64:
/// [`Config::validate`](crate::Config::validate) rejects more than
/// [`MAX_THREAD_SLOTS`](crate::MAX_THREAD_SLOTS) slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotSet(u64);

impl SlotSet {
    /// The empty set.
    pub const EMPTY: SlotSet = SlotSet(0);

    /// Adds `slot` to the set.
    pub fn insert(&mut self, slot: usize) {
        debug_assert!(slot < 64, "slot index fits the mask");
        self.0 |= 1 << slot;
    }

    /// Removes `slot` from the set.
    pub fn remove(&mut self, slot: usize) {
        debug_assert!(slot < 64, "slot index fits the mask");
        self.0 &= !(1u64 << slot);
    }

    /// The set minus `slot` (a winner excluded from its own
    /// competitor list).
    #[must_use]
    pub fn without(self, slot: usize) -> SlotSet {
        SlotSet(self.0 & !(1u64 << slot))
    }

    /// True when `slot` is in the set.
    pub fn contains(self, slot: usize) -> bool {
        slot < 64 && self.0 & (1 << slot) != 0
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of slots in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Ascending iterator over the member slot indices, one
    /// find-first-set per member.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        set_bits(self.0)
    }

    /// The member, if the set has exactly one.
    pub(crate) fn only(self) -> Option<usize> {
        self.0.is_power_of_two().then(|| self.0.trailing_zeros() as usize)
    }

    /// The slots `0..slots`.
    pub(crate) fn first(slots: usize) -> SlotSet {
        SlotSet(if slots >= 64 { u64::MAX } else { (1u64 << slots) - 1 })
    }

    /// The slots in either set.
    #[must_use]
    pub(crate) fn union(self, other: SlotSet) -> SlotSet {
        SlotSet(self.0 | other.0)
    }

    /// The slots in `self` but not in `other`.
    #[must_use]
    pub(crate) fn minus(self, other: SlotSet) -> SlotSet {
        SlotSet(self.0 & !other.0)
    }

    /// The members rotated so that bit `r` stands for slot
    /// `(start + r) % slots`: bit order is the rotating-priority visit
    /// order from `start`, so bit `r` is the member at priority rank
    /// `r`.
    pub(crate) fn rotated(self, start: usize, slots: usize) -> u64 {
        debug_assert!(slots <= 64 && (start < slots || self.0 == 0), "start within the slot range");
        let mask = SlotSet::first(slots).0;
        debug_assert_eq!(self.0 & !mask, 0, "members within the slot range");
        let bits = self.0 & mask;
        if start == 0 {
            bits
        } else {
            ((bits >> start) | (bits << (slots - start))) & mask
        }
    }

    /// Iterator over the member slots starting at `start` and wrapping
    /// modulo `slots` — the rotating-priority visit order, since the
    /// priority vector is always a left-rotation of `0..slots` (the
    /// `any_rotation_interleaving_is_a_left_rotation` property). Every
    /// member must lie below `slots`; cost is one rotate plus a
    /// find-first-set per member, so sparse sets visit only their
    /// members rather than scanning every slot. A set of at most one
    /// member, whose order no start changes, skips the rotate.
    pub fn iter_from(self, start: usize, slots: usize) -> impl Iterator<Item = usize> {
        let (mut rot, start) = if self.0 & self.0.wrapping_sub(1) == 0 {
            (self.0, 0)
        } else {
            (self.rotated(start, slots), start)
        };
        std::iter::from_fn(move || {
            if rot == 0 {
                return None;
            }
            let i = rot.trailing_zeros() as usize;
            rot &= rot - 1;
            let s = i + start;
            Some(if s >= slots { s - slots } else { s })
        })
    }
}

/// The indices of the set bits of `bits`, ascending, one
/// find-first-set each.
pub(crate) fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(i)
    })
}

impl FromIterator<usize> for SlotSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = SlotSet::EMPTY;
        for s in iter {
            set.insert(s);
        }
        set
    }
}

/// One structured machine event. Every variant carries the cycle it
/// occurred on; slot-scoped variants carry the thread slot. The type
/// is `Copy` — no variant owns heap data — so sinks can retain events
/// at a flat per-event cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A fetch packet arrived at the slot's instruction buffer.
    Fetch {
        /// Cycle of delivery.
        cycle: u64,
        /// Receiving thread slot.
        slot: usize,
        /// True when the packet answers a redirect (branch, jump, or
        /// rebind) rather than sequential streaming.
        redirect: bool,
    },
    /// An instruction issued from the slot's decode window.
    Issue {
        /// Issue cycle (the S stage).
        cycle: u64,
        /// Issuing thread slot.
        slot: usize,
        /// Context frame the thread runs in.
        ctx: usize,
        /// Instruction address.
        pc: u32,
    },
    /// The slot failed to issue anything this cycle. Exactly one stall
    /// event is emitted per non-issuing slot per cycle, attributing the
    /// cycle to the reason blocking the oldest instruction.
    Stall {
        /// Stalled cycle.
        cycle: u64,
        /// Stalled thread slot.
        slot: usize,
        /// Attributed reason.
        reason: StallReason,
        /// Address of the blocking instruction, when one exists (a
        /// slot with no thread has none).
        pc: Option<u32>,
    },
    /// A freshly issued instruction entered a standby station and did
    /// not start execution this cycle (the station's front runner gets
    /// a [`TraceEvent::FuLoss`] instead).
    Park {
        /// Cycle the instruction parked.
        cycle: u64,
        /// Owning thread slot.
        slot: usize,
        /// Functional-unit class it waits for.
        class: FuClass,
        /// Instruction address.
        pc: u32,
    },
    /// An instruction won FU arbitration and started execution.
    FuWin {
        /// Selection cycle.
        cycle: u64,
        /// Winning thread slot.
        slot: usize,
        /// Functional-unit class.
        class: FuClass,
        /// Unit instance within the class.
        instance: usize,
        /// Instruction address.
        pc: u32,
        /// Cycles the unit stays busy issuing this instruction.
        busy: u64,
        /// Other slots that competed for this class this cycle.
        competitors: SlotSet,
    },
    /// The slot's oldest waiting instruction for a class competed and
    /// lost this cycle.
    FuLoss {
        /// Arbitration cycle.
        cycle: u64,
        /// Losing thread slot.
        slot: usize,
        /// Functional-unit class.
        class: FuClass,
        /// Instruction address.
        pc: u32,
        /// True when the loss was a priority gate (§2.3.3) rather than
        /// unit exhaustion.
        gated: bool,
        /// Slots that won this class this cycle.
        winners: SlotSet,
    },
    /// A functional unit wrote its result to the register bank.
    Writeback {
        /// Cycle the write was initiated.
        cycle: u64,
        /// Owning thread slot.
        slot: usize,
        /// Context frame written.
        ctx: usize,
        /// Producing instruction's address.
        pc: u32,
        /// Destination register.
        dest: Reg,
        /// Cycle the value becomes readable.
        avail: u64,
    },
    /// A value entered a queue-register link.
    QueuePush {
        /// Cycle of the push.
        cycle: u64,
        /// Producing thread slot.
        slot: usize,
        /// Ring link written.
        link: usize,
        /// Cycle the value becomes readable at the consumer.
        avail: u64,
        /// Link occupancy after the push.
        depth: usize,
    },
    /// A value left a queue-register link (consumed by an issue).
    QueuePop {
        /// Cycle of the pop.
        cycle: u64,
        /// Consuming thread slot.
        slot: usize,
        /// Ring link read.
        link: usize,
        /// Link occupancy after the pop.
        depth: usize,
    },
    /// The schedule units rotated the slot priorities.
    Rotation {
        /// Rotation cycle.
        cycle: u64,
        /// What triggered it.
        kind: RotationKind,
        /// Highest-priority slot after the rotation.
        highest: usize,
    },
    /// A ready context was bound to a free thread slot.
    ThreadBind {
        /// Bind cycle.
        cycle: u64,
        /// Receiving thread slot.
        slot: usize,
        /// Bound context frame.
        ctx: usize,
        /// Resume address.
        pc: u32,
    },
    /// A data-absence trap switched the thread out (§2.1.3).
    ContextSwitch {
        /// Trap cycle.
        cycle: u64,
        /// Vacated thread slot.
        slot: usize,
        /// Switched-out context frame.
        ctx: usize,
        /// Cycle the remote access completes.
        resume_at: u64,
    },
}

/// What triggered a priority rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationKind {
    /// The periodic rotation interval elapsed.
    Implicit,
    /// An issued `chgpri` took effect.
    Explicit,
    /// The schedule units skipped past an empty slot holding the
    /// highest priority.
    Forced,
}

impl RotationKind {
    fn name(self) -> &'static str {
        match self {
            RotationKind::Implicit => "implicit",
            RotationKind::Explicit => "explicit",
            RotationKind::Forced => "forced",
        }
    }
}

impl TraceEvent {
    /// Cycle the event occurred on.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Park { cycle, .. }
            | TraceEvent::FuWin { cycle, .. }
            | TraceEvent::FuLoss { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::QueuePush { cycle, .. }
            | TraceEvent::QueuePop { cycle, .. }
            | TraceEvent::Rotation { cycle, .. }
            | TraceEvent::ThreadBind { cycle, .. }
            | TraceEvent::ContextSwitch { cycle, .. } => cycle,
        }
    }

    /// Thread slot the event concerns, when slot-scoped (rotations are
    /// machine-global).
    pub fn slot(&self) -> Option<usize> {
        match *self {
            TraceEvent::Fetch { slot, .. }
            | TraceEvent::Issue { slot, .. }
            | TraceEvent::Stall { slot, .. }
            | TraceEvent::Park { slot, .. }
            | TraceEvent::FuWin { slot, .. }
            | TraceEvent::FuLoss { slot, .. }
            | TraceEvent::Writeback { slot, .. }
            | TraceEvent::QueuePush { slot, .. }
            | TraceEvent::QueuePop { slot, .. }
            | TraceEvent::ThreadBind { slot, .. }
            | TraceEvent::ContextSwitch { slot, .. } => Some(slot),
            TraceEvent::Rotation { .. } => None,
        }
    }
}

/// Receiver for machine events. The machine calls [`TraceSink::event`]
/// once per occurrence, in deterministic order within a cycle.
///
/// `Debug` is a supertrait so a boxed sink can live inside the
/// `Debug`-deriving machine.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one event.
    fn event(&mut self, ev: &TraceEvent);
}

/// A sink that drops every event — the baseline for measuring tracing
/// overhead (event construction + dispatch, no storage).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {}
}

/// A bounded in-memory ring keeping the most recent events. Clones
/// share the buffer, so tests hand one handle to the machine and keep
/// another for inspection.
#[derive(Debug, Clone)]
pub struct RingSink {
    shared: Rc<RefCell<Ring>>,
}

#[derive(Debug)]
struct Ring {
    capacity: usize,
    events: VecDeque<TraceEvent>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (older ones fall off).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            shared: Rc::new(RefCell::new(Ring {
                capacity: capacity.max(1),
                events: VecDeque::new(),
            })),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.borrow().events.iter().cloned().collect()
    }

    /// The last `n` retained events concerning `slot`, oldest first —
    /// the post-mortem dump used by the differential harness.
    pub fn last_for_slot(&self, slot: usize, n: usize) -> Vec<TraceEvent> {
        let ring = self.shared.borrow();
        let mut picked: Vec<TraceEvent> =
            ring.events.iter().rev().filter(|e| e.slot() == Some(slot)).take(n).cloned().collect();
        picked.reverse();
        picked
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, ev: &TraceEvent) {
        let mut ring = self.shared.borrow_mut();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(*ev);
    }
}

/// An unbounded recorder that renders Chrome `trace_event` JSON.
#[derive(Debug, Clone, Default)]
pub struct ChromeSink {
    shared: Rc<RefCell<Vec<TraceEvent>>>,
}

impl ChromeSink {
    /// An empty recorder.
    pub fn new() -> Self {
        ChromeSink::default()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.shared.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.shared.borrow().is_empty()
    }

    /// Renders the recorded events as Chrome `trace_event` JSON with
    /// one track per thread slot and one per functional unit. See
    /// [`chrome_trace_json`].
    pub fn render(&self, slots: usize, fu: &FuConfig) -> String {
        chrome_trace_json(&self.shared.borrow(), slots, fu)
    }
}

impl TraceSink for ChromeSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.shared.borrow_mut().push(*ev);
    }
}

/// A compact line-per-event text log.
#[derive(Debug, Clone, Default)]
pub struct TextSink {
    shared: Rc<RefCell<String>>,
}

impl TextSink {
    /// An empty log.
    pub fn new() -> Self {
        TextSink::default()
    }

    /// The log accumulated so far (one line per event).
    pub fn text(&self) -> String {
        self.shared.borrow().clone()
    }
}

impl TraceSink for TextSink {
    fn event(&mut self, ev: &TraceEvent) {
        let mut buf = self.shared.borrow_mut();
        let _ = writeln!(buf, "{}", format_event(ev));
    }
}

/// One-line text rendering of an event, used by [`TextSink`] and the
/// differential harness's divergence dumps.
pub fn format_event(ev: &TraceEvent) -> String {
    let mut line = format!("[{:>8}] ", ev.cycle());
    match ev.slot() {
        Some(s) => {
            let _ = write!(line, "s{s} ");
        }
        None => line.push_str("-- "),
    }
    match ev {
        TraceEvent::Fetch { redirect, .. } => {
            let _ = write!(line, "fetch{}", if *redirect { " redirect" } else { "" });
        }
        TraceEvent::Issue { ctx, pc, .. } => {
            let _ = write!(line, "issue pc={pc:#06x} ctx={ctx}");
        }
        TraceEvent::Stall { reason, pc, .. } => {
            let _ = write!(line, "stall {}", reason.name());
            if let Some(pc) = pc {
                let _ = write!(line, " pc={pc:#06x}");
            }
        }
        TraceEvent::Park { class, pc, .. } => {
            let _ = write!(line, "park {} pc={pc:#06x}", class.name());
        }
        TraceEvent::FuWin { class, instance, pc, busy, competitors, .. } => {
            let _ = write!(line, "fu-win {}.{instance} pc={pc:#06x} busy={busy}", class.name());
            if !competitors.is_empty() {
                let _ = write!(line, " vs={}", join_slots(*competitors));
            }
        }
        TraceEvent::FuLoss { class, pc, gated, winners, .. } => {
            let _ = write!(
                line,
                "fu-loss {} pc={pc:#06x}{}",
                class.name(),
                if *gated { " gated" } else { "" }
            );
            if !winners.is_empty() {
                let _ = write!(line, " to={}", join_slots(*winners));
            }
        }
        TraceEvent::Writeback { ctx, pc, dest, avail, .. } => {
            let _ = write!(line, "writeback {dest} pc={pc:#06x} ctx={ctx} avail={avail}");
        }
        TraceEvent::QueuePush { link, avail, depth, .. } => {
            let _ = write!(line, "q-push link={link} avail={avail} depth={depth}");
        }
        TraceEvent::QueuePop { link, depth, .. } => {
            let _ = write!(line, "q-pop link={link} depth={depth}");
        }
        TraceEvent::Rotation { kind, highest, .. } => {
            let _ = write!(line, "rotate {} highest=s{highest}", kind.name());
        }
        TraceEvent::ThreadBind { ctx, pc, .. } => {
            let _ = write!(line, "bind ctx={ctx} pc={pc:#06x}");
        }
        TraceEvent::ContextSwitch { ctx, resume_at, .. } => {
            let _ = write!(line, "switch-out ctx={ctx} resume_at={resume_at}");
        }
    }
    line
}

fn join_slots(slots: SlotSet) -> String {
    let mut out = String::new();
    for (i, s) in slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "s{s}");
    }
    out
}

/// Renders events as Chrome `trace_event` JSON (the "JSON Array
/// Format" inside an object, loadable in `chrome://tracing` and
/// Perfetto).
///
/// Layout: process 1 holds one track per thread slot plus a
/// `scheduler` track for rotations; process 2 holds one track per
/// functional-unit instance (`<class>.<instance>`). One simulated
/// cycle maps to one microsecond of trace time. Issues, stalls, and FU
/// occupancy render as complete (`X`) slices; everything else renders
/// as thread-scoped instants. The output is a pure function of the
/// event list, so identical runs produce byte-identical JSON.
pub fn chrome_trace_json(events: &[TraceEvent], slots: usize, fu: &FuConfig) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Track metadata: names for both processes and every track.
    push(
        &mut out,
        &mut first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"thread slots\"}}"
            .to_owned(),
    );
    for s in 0..slots {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{s},\
                 \"args\":{{\"name\":\"slot {s}\"}}}}"
            ),
        );
    }
    push(
        &mut out,
        &mut first,
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{slots},\
             \"args\":{{\"name\":\"scheduler\"}}}}"
        ),
    );
    push(
        &mut out,
        &mut first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\
         \"args\":{\"name\":\"functional units\"}}"
            .to_owned(),
    );
    let mut fu_base = [0usize; hirata_isa::FU_CLASS_COUNT];
    let mut next = 0usize;
    for class in FuClass::ALL {
        fu_base[class.index()] = next;
        for i in 0..fu.count(class) {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{},\
                     \"args\":{{\"name\":\"{}.{i}\"}}}}",
                    next + i,
                    class.name()
                ),
            );
        }
        next += fu.count(class);
    }

    for ev in events {
        let line = match ev {
            TraceEvent::Issue { cycle, slot, ctx, pc } => format!(
                "{{\"name\":\"pc {pc:#06x}\",\"ph\":\"X\",\"ts\":{cycle},\"dur\":1,\
                 \"pid\":1,\"tid\":{slot},\"args\":{{\"ctx\":{ctx},\"pc\":{pc}}}}}"
            ),
            TraceEvent::Stall { cycle, slot, reason, pc } => {
                let pc_arg = match pc {
                    Some(pc) => format!(",\"pc\":{pc}"),
                    None => String::new(),
                };
                format!(
                    "{{\"name\":\"stall:{}\",\"ph\":\"X\",\"ts\":{cycle},\"dur\":1,\
                     \"pid\":1,\"tid\":{slot},\"args\":{{\"reason\":\"{}\"{pc_arg}}}}}",
                    reason.name(),
                    reason.name()
                )
            }
            TraceEvent::FuWin { cycle, slot, class, instance, pc, busy, .. } => format!(
                "{{\"name\":\"s{slot} pc {pc:#06x}\",\"ph\":\"X\",\"ts\":{cycle},\"dur\":{},\
                 \"pid\":2,\"tid\":{},\"args\":{{\"slot\":{slot},\"pc\":{pc}}}}}",
                (*busy).max(1),
                fu_base[class.index()] + instance
            ),
            TraceEvent::Fetch { cycle, slot, redirect } => instant(
                *cycle,
                1,
                *slot,
                if *redirect { "fetch:redirect" } else { "fetch" },
                String::new(),
            ),
            TraceEvent::Park { cycle, slot, class, pc } => {
                instant(*cycle, 1, *slot, &format!("park:{}", class.name()), format!("\"pc\":{pc}"))
            }
            TraceEvent::FuLoss { cycle, slot, class, pc, gated, winners } => instant(
                *cycle,
                1,
                *slot,
                &format!("fu-loss:{}{}", class.name(), if *gated { ":gated" } else { "" }),
                format!("\"pc\":{pc},\"winners\":\"{}\"", join_slots(*winners)),
            ),
            TraceEvent::Writeback { cycle, slot, pc, dest, avail, .. } => instant(
                *cycle,
                1,
                *slot,
                &format!("wb:{dest}"),
                format!("\"pc\":{pc},\"avail\":{avail}"),
            ),
            TraceEvent::QueuePush { cycle, slot, link, avail, depth } => instant(
                *cycle,
                1,
                *slot,
                "q-push",
                format!("\"link\":{link},\"avail\":{avail},\"depth\":{depth}"),
            ),
            TraceEvent::QueuePop { cycle, slot, link, depth } => {
                instant(*cycle, 1, *slot, "q-pop", format!("\"link\":{link},\"depth\":{depth}"))
            }
            TraceEvent::Rotation { cycle, kind, highest } => instant(
                *cycle,
                1,
                slots,
                &format!("rotate:{}", kind.name()),
                format!("\"highest\":{highest}"),
            ),
            TraceEvent::ThreadBind { cycle, slot, ctx, pc } => {
                instant(*cycle, 1, *slot, &format!("bind:ctx{ctx}"), format!("\"pc\":{pc}"))
            }
            TraceEvent::ContextSwitch { cycle, slot, ctx, resume_at } => instant(
                *cycle,
                1,
                *slot,
                &format!("switch-out:ctx{ctx}"),
                format!("\"resume_at\":{resume_at}"),
            ),
        };
        push(&mut out, &mut first, line);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// One thread-scoped instant event line.
fn instant(cycle: u64, pid: usize, tid: usize, name: &str, args: String) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{cycle},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64, slot: usize, pc: u32) -> TraceEvent {
        TraceEvent::Issue { cycle, slot, ctx: 0, pc }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let handle = RingSink::new(3);
        let mut sink = handle.clone();
        for c in 0..5 {
            sink.event(&issue(c, 0, c as u32));
        }
        let events = handle.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].cycle(), 2);
        assert_eq!(events[2].cycle(), 4);
    }

    #[test]
    fn ring_filters_by_slot() {
        let handle = RingSink::new(10);
        let mut sink = handle.clone();
        for c in 0..6 {
            sink.event(&issue(c, (c % 2) as usize, 0));
        }
        let s1 = handle.last_for_slot(1, 2);
        assert_eq!(s1.len(), 2);
        assert!(s1.iter().all(|e| e.slot() == Some(1)));
        assert_eq!(s1[0].cycle(), 3);
        assert_eq!(s1[1].cycle(), 5);
    }

    #[test]
    fn text_sink_emits_one_line_per_event() {
        let handle = TextSink::new();
        let mut sink = handle.clone();
        sink.event(&issue(7, 2, 4));
        sink.event(&TraceEvent::Stall {
            cycle: 8,
            slot: 2,
            reason: StallReason::Data,
            pc: Some(5),
        });
        let text = handle.text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("issue pc=0x0004"));
        assert!(text.contains("stall data-dep pc=0x0005"));
    }

    #[test]
    fn chrome_json_declares_all_tracks() {
        let fu = FuConfig::paper_one_ls();
        let json = chrome_trace_json(&[], 4, &fu);
        for s in 0..4 {
            assert!(json.contains(&format!("slot {s}")));
        }
        assert!(json.contains("scheduler"));
        for class in FuClass::ALL {
            for i in 0..fu.count(class) {
                assert!(json.contains(&format!("{}.{i}", class.name())));
            }
        }
    }

    #[test]
    fn chrome_json_is_structurally_balanced() {
        let fu = FuConfig::paper_one_ls();
        let events = vec![
            issue(0, 0, 0),
            TraceEvent::FuWin {
                cycle: 0,
                slot: 0,
                class: FuClass::IntAlu,
                instance: 0,
                pc: 0,
                busy: 1,
                competitors: [1, 2].into_iter().collect(),
            },
            TraceEvent::Rotation { cycle: 1, kind: RotationKind::Implicit, highest: 1 },
        ];
        let json = chrome_trace_json(&events, 2, &fu);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        let fu = FuConfig::paper_two_ls();
        let events: Vec<TraceEvent> =
            (0..50).map(|c| issue(c, (c % 4) as usize, c as u32)).collect();
        assert_eq!(chrome_trace_json(&events, 4, &fu), chrome_trace_json(&events, 4, &fu));
    }
}
