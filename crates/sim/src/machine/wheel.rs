//! The event wheel: fast-forwarding over provably stalled spans.
//!
//! The wheel serves untraced [`Machine::run`] and [`Machine::run_span`]
//! on a machine with a single live slot (see
//! [`Machine::single_live_slot`]); [`Machine::step`] always advances
//! exactly one cycle, and a run with a trace sink attached steps every
//! cycle. After each step the wheel probes the live slot: single-issue
//! decode drains the window every cycle, so the next head's verdict is
//! knowable a step early, and a passing verdict is itself reusable as
//! a head-issue proof. A stalled slot's future is driven entirely by
//! timed events: a standby instruction waking when its functional unit
//! frees, a branch shadow expiring, a queue-register entry maturing, a
//! fetch delivery, a context wake-up, or a priority rotation. When
//! every such event lies strictly after the next cycle, the machine
//! jumps straight to the earliest one and adds the accounting the
//! skipped cycles would have produced: the slot's stall per cycle
//! (from the frozen wake reason), the unbound slots' NoThread stalls,
//! and the implicit rotations, which leave the head of the priority
//! order in place when only one slot is live. Cycle counts and
//! statistics are identical to stepping; debug builds re-derive the
//! slot's stall from live state at every span's first cycle (and at
//! its last, unless a refill ended it), and the differential suite
//! compares untraced runs with traced ones.
//!
//! The fetch system keeps working while the machine is stalled, so the
//! wheel *replays* it through the span rather than stopping at its
//! every move ([`FetchSystem::advance_span`] makes the replay
//! `O(fetch events)`, not `O(cycles)`). Two fetch events are more than
//! bookkeeping and get special treatment:
//!
//! * a **redirect delivery** rewrites the slot's `earliest_issue` (the
//!   branch shadow) — the wheel absorbs it mid-span, switching the
//!   slot's stall from `Fetch` to `BranchShadow` at the exact delivery
//!   cycle, and keeps jumping (this fuses the paper's whole branch
//!   shadow — fetch wait, delivery, decode refill — into one jump);
//! * a **refill delivery to a fetch-starved slot** re-arms issue — the
//!   wheel stops the span right there, absorbing only the delivery
//!   cycle's start-of-cycle work (rotation tick and fetch events), and
//!   the real step at that cycle issues normally.
//!
//! The slot's wake reason comes from its [`super::SlotBlock`] — the
//! ready-frontier descriptor the issue phase maintains for a provably
//! stalled bound slot — or else from [`Machine::verdict`], the one
//! derivation from live state of what a bound slot does at a cycle:
//! an unexpired branch shadow, fetch starvation, or a single-issue
//! head probe whose stall carries a wake hint from the scoreboard, the
//! queue ring, or the standby occupancy. Unbound slots stay NoThread
//! until a bind, which the jump conditions bound. A slot whose next
//! change is not provably timed (e.g. a non-blockable head stall)
//! vetoes the jump — correctness never depends on the wheel firing —
//! and so do one-cycle jumps, whose bookkeeping costs more than the
//! step they would save. The verdict is also the debug oracle of every
//! block the issue phase replays and of both ends of every span
//! ([`Machine::assert_verdict`]).

use super::*;

/// What a bound slot provably does at a cycle `t` (see
/// [`Machine::verdict`]).
enum Horizon {
    /// The slot re-records `stall`'s reason and pc every cycle from `t`
    /// strictly before its wake (`u64::MAX`: until an event absorbed by
    /// the span walk). `fill` flags a probed head still in the fetch
    /// buffer — the span walk replays the window fill at the span's
    /// first cycle.
    Stall { stall: SlotBlock, fill: bool },
    /// The probe proved the head passes `check_issue` at `t`: no
    /// jump, but the proof is reusable — the next step's issue path
    /// can skip its own head evaluation (see `Machine::head_pass`).
    Issues { pc: u32 },
    /// Not provably inert; the jump is vetoed.
    Unknown,
}

/// The stall the span's one bound slot records every skipped cycle.
#[derive(Debug, Clone, Copy)]
struct SpanStall {
    slot: usize,
    reason: StallReason,
    pc: Option<u32>,
    /// The probed head is still in the fetch buffer: the walk replays
    /// the window fill at the span's first cycle.
    fill: bool,
}

impl Machine {
    /// Attempts an event-wheel jump from the current cycle. Called by
    /// untraced runs after every step that leaves a single live slot;
    /// a no-op whenever the slot's progress cannot be bounded or an
    /// event is due by the next cycle.
    pub(super) fn try_jump(&mut self) {
        debug_assert!(self.sink.is_none() && self.single_live_slot() && !self.is_done());
        let from = self.cycle;
        // The schedule units would force-rotate an empty highest slot
        // at the start of the next step — an event in itself (it can
        // ungate stores), so never jump over it.
        let h = self.prio.highest();
        if !self.bound.contains(h) && !self.standby.has(h) && !self.bound.is_empty() {
            return;
        }
        // The watchdog trips at `max_cycles`, so a span may extend to
        // it but never past it (the real step there raises the error,
        // exactly as stepping through would).
        let mut target = self.config.max_cycles;
        // A single live slot means at most one bound slot. Unbound
        // slots stay NoThread until a bind, which the context scan
        // below bounds.
        let mut stall = None;
        if let Some(s) = self.bound.iter().next() {
            match self.slot_stall_horizon(s, from) {
                Horizon::Stall { stall: b, fill } => {
                    target = target.min(b.wake);
                    stall = Some(SpanStall { slot: s, reason: b.reason, pc: b.pc, fill });
                }
                Horizon::Issues { pc } => {
                    // No jump — but the next step can reuse the proof,
                    // as nothing between here and its head evaluation
                    // mutates state `check_issue` reads.
                    self.head_pass = Some((from, s, pc));
                    return;
                }
                Horizon::Unknown => return,
            }
        }
        // A one-cycle jump is never worth the span-walk bookkeeping —
        // the next real step re-records the same stall at the same
        // cost. The scans below only lower `target`, so bail before
        // paying for them.
        if target <= from + 1 {
            return;
        }
        // Context wake-ups matter only if a slot could bind the woken
        // context; otherwise the Ready flip is deferred to the jump
        // boundary, where the per-cycle flips are replayed.
        let bindable = !SlotSet::first(self.slots.len())
            .minus(self.bound)
            .minus(self.standby.slots())
            .is_empty();
        if bindable && self.idle_contexts > 0 {
            for ctx in &self.contexts {
                match ctx.state {
                    CtxState::Ready => return, // bind due now
                    CtxState::Waiting { until } => target = target.min(until.max(from)),
                    _ => {}
                }
            }
        }
        // Parked standby fronts win arbitration as soon as an instance
        // of their class frees — unless gated on the priority, which
        // only a rotation lifts (with a single live slot, the token
        // always comes straight back to that slot).
        for ci in self.standby.classes() {
            let ungated = self.standby.slots_in(ci).iter().any(|s| {
                self.standby
                    .station(s, ci)
                    .first()
                    .is_some_and(|f| !f.di.needs_highest_priority() || self.prio.highest() == s)
            });
            if ungated {
                let free = self.fu_pool.min_release(ci);
                // Post-arbitration invariant: an ungated front and a
                // free instance never coexist at span start.
                debug_assert!(free >= from, "free FU instance left an ungated front parked");
                target = target.min(free.max(from));
            }
        }
        if target > from + 1 {
            self.walk_span(from, target, stall);
        }
    }

    /// What bound slot `s` does at cycle `next`: its live block, if
    /// that wakes after `next`, else its [`Machine::verdict`].
    /// `u64::MAX` wakes mark states only an event (bounded elsewhere or
    /// absorbed by the span walk) can change.
    fn slot_stall_horizon(&self, s: usize, next: u64) -> Horizon {
        match self.slots[s].block {
            // A live block is its own horizon: the issue phase proved
            // the descriptor re-records identically until `wake`, and
            // every clearing event is either bounded below by the jump
            // conditions or absorbed by the span walk.
            Some(b) if b.wake > next => Horizon::Stall { stall: b, fill: false },
            _ => self.verdict(s, next),
        }
    }

    /// What bound slot `s` provably does at cycle `t`, derived from
    /// live state alone (never from its block) and free of side
    /// effects. In order: the branch shadow and fetch starvation
    /// ([`Machine::pipeline_stall`]), then — at single-issue decode
    /// only — a probe of the head the issue path would evaluate,
    /// including a head still in the fetch buffer (`fill`). The probe
    /// holds under the head block's own preconditions: the window is at
    /// most this head, so nothing issues around it; a fresh, non-gated
    /// instruction, which no rotation can ungate mid-span; and a wake
    /// hint from `check_issue`. This is what lets an *issuing* cycle
    /// start a jump without a discovery step in between.
    fn verdict(&self, s: usize, t: u64) -> Horizon {
        if let Some(stall) = self.pipeline_stall(s, t) {
            return Horizon::Stall { stall, fill: false };
        }
        let slot = &self.slots[s];
        if self.config.issue_width != 1 || (!self.config.standby_stations && self.standby.has(s)) {
            // Wider windows, and a decode unit blocked by its own
            // standby entry (an ablation), have no knowable wake.
            return Horizon::Unknown;
        }
        let (pc, fill) = match slot.window.front() {
            Some(&WinEntry::Fresh(pc)) if slot.window.len() == 1 => (pc, false),
            // A fetch past the end faults in the real step.
            None if (slot.fetch_pc as usize) < self.program.len() => (slot.fetch_pc, true),
            _ => return Horizon::Unknown,
        };
        let di = self.program.insts()[pc as usize];
        if di.needs_highest_priority() {
            return Horizon::Unknown;
        }
        let ctx_i = slot.ctx.expect("verdicts are taken for bound slots");
        match self.head_check(s, ctx_i, &di, false, t) {
            Err(IssueBlock::Stall(reason, Some(wake))) if wake > t => {
                Horizon::Stall { stall: SlotBlock { reason, pc: Some(pc), wake }, fill }
            }
            Ok(()) => Horizon::Issues { pc },
            _ => Horizon::Unknown, // faults, or an unbounded stall
        }
    }

    /// Debug-build oracle of the block invariant, for every block the
    /// issue phase replays and both ends of every span: re-derived
    /// from live state, slot `s` records `reason` at `pc` at cycle `t`
    /// and stays stalled past `t`. For a replayed block (`block_wake`)
    /// the verdict also wakes when the block does, and comes from the
    /// window's head, not from a probe of the fetch buffer.
    #[cfg(debug_assertions)]
    pub(super) fn assert_verdict(
        &self,
        s: usize,
        t: u64,
        reason: StallReason,
        pc: Option<u32>,
        block_wake: Option<u64>,
    ) {
        let Horizon::Stall { stall: v, fill } = self.verdict(s, t) else {
            panic!("slot {s} must be provably stalled at cycle {t}");
        };
        let wake = v.wake;
        assert_eq!((v.reason, v.pc), (reason, pc), "slot {s}'s stall drifted at cycle {t}");
        assert!(wake > t, "slot {s} woke at {wake}, at or before stalled cycle {t}");
        if let Some(block_wake) = block_wake {
            assert!(
                wake == block_wake && !fill,
                "slot {s}'s block (wake {block_wake}) diverged from its verdict (wake {wake}, \
                 fill {fill}) at cycle {t}"
            );
        }
    }

    /// Walks the span `[from, target)`, replaying the fetch system and
    /// adding the skipped cycles' accounting: the bound slot's stalls,
    /// the unbound slots' NoThread stalls, implicit rotations, and the
    /// `Waiting -> Ready` context flips that stepping's `wake_and_bind`
    /// would have performed. An absorbed redirect delivery switches the
    /// slot's stall to `BranchShadow` mid-span (and may shorten the
    /// span to the shadow expiry); a refill delivery to a fetch-starved
    /// slot ends the span at the delivery cycle, with that cycle's
    /// start (rotation tick and fetch events) already applied so the
    /// real step continues from the issue phase bit-exactly.
    fn walk_span(&mut self, from: u64, mut target: u64, mut stall: Option<SpanStall>) {
        #[cfg(debug_assertions)]
        if let Some(st) = stall {
            self.assert_verdict(st.slot, from, st.reason, st.pc, None);
        }
        let depth = self.config.pipeline.decode_depth();
        // Binds are excluded across the span (see the jump conditions)
        // and nothing issues, so the bound set is fixed.
        let idle = (self.slots.len() - self.bound.len()) as u64;
        // The fetch replay must surface any redirect delivery, and a
        // refill only to a fetch-starved slot; everything else it
        // absorbs internally. Only the bound slot receives deliveries.
        let stop_on_refill = stall.is_some_and(|st| st.reason == StallReason::Fetch);
        // Start of the slot's current stall piece: an absorbed redirect
        // closes one piece and opens the shadow's.
        let mut piece = from;
        let mut t = from;
        // The landing cycle when a refill wakes the starved slot.
        let mut woke = None;
        if let Some(st) = stall.filter(|st| st.fill) {
            // A pending fill consumes a credit at `from`, which can
            // start a refill service that very cycle — so visit `from`
            // by hand before handing the span to the fetch system. A
            // slot with credits has no redirect in flight, and a probed
            // head is not fetch-starved, so no delivery here surfaces.
            let (_, redirected) = self.fetch.begin_cycle(from);
            debug_assert!(redirected.is_empty(), "redirect with credits left");
            // Replay the window fill of the probed-but-unfilled head.
            let slot = &mut self.slots[st.slot];
            slot.window.push_back(WinEntry::Fresh(slot.fetch_pc));
            slot.fetch_pc += 1;
            self.fetch.consume(st.slot);
            self.fetch.end_cycle(from);
            t = from + 1;
        }
        while t < target {
            let Some((tc, delivered, redirected)) =
                self.fetch.advance_span(t, target, stop_on_refill)
            else {
                break;
            };
            let st = stall.as_mut().expect("only a bound slot receives deliveries");
            debug_assert!(delivered.iter().all(|s| s == st.slot));
            if !delivered.minus(redirected).is_empty() {
                // The refill re-arms issue: lift the slot's Fetch block
                // (the step's delivery loop would, but this delivery
                // is consumed here) and land at this cycle.
                self.unblock(st.slot);
                woke = Some(tc);
                break;
            }
            // Close the slot's current stall piece at the delivery
            // cycle; the shadow piece starts here.
            self.stats.record_stall_span(st.reason, piece, tc, 1);
            piece = tc;
            target = target.min(self.absorb_redirect(st, tc, depth));
            self.fetch.end_cycle(tc);
            t = tc + 1;
        }
        let end = woke.unwrap_or(target);
        #[cfg(debug_assertions)]
        if let (Some(st), None) = (stall, woke) {
            self.assert_verdict(st.slot, end - 1, st.reason, st.pc, None);
        }
        // Rotations: when the span stopped at a woken slot, the
        // stopping cycle's tick belongs to the wheel too (the real
        // step's own tick then no-ops).
        let tick_end = if woke.is_some() { end + 1 } else { end };
        let highest = self.prio.highest();
        let rotations = self.prio.fast_forward_ticks(from, tick_end);
        if rotations > 0 {
            // Each rotation's forced follow-up returns the token to
            // the one live slot (on the rotation's own cycle).
            self.prio.realign(highest);
        }
        self.stats.rotations += rotations;
        if let Some(st) = stall {
            self.stats.record_stall_span(st.reason, piece, end, 1);
        }
        self.stats.record_stall_span(StallReason::NoThread, from, end, idle);
        // Stepping's `wake_and_bind` at each skipped cycle `t` flips
        // `Waiting { until }` contexts with `until <= t` to `Ready`;
        // replay the flips the span's last cycle would have
        // accumulated. Binds need a free slot, which the jump
        // conditions exclude, so a flip is all that happens.
        if self.idle_contexts > 0 {
            for ctx in &mut self.contexts {
                if let CtxState::Waiting { until } = ctx.state {
                    if until < end {
                        ctx.state = CtxState::Ready;
                    }
                }
            }
        }
        self.cycle = end;
        self.stats.cycles = end;
    }

    /// Applies a redirect delivery for the span's slot at cycle `t`
    /// exactly as the step's delivery handling would, switches the
    /// slot's stall to the branch shadow, and returns the new wake
    /// cycle (the shadow expiry).
    fn absorb_redirect(&mut self, st: &mut SpanStall, t: u64, depth: u64) -> u64 {
        // A redirect lands on a slot that was starved waiting for it
        // (`Fetch`), or — when a rebind's switch penalty outlasts the
        // fetch service — on a slot still inside its shadow, which the
        // delivery then extends to cover the decode refill.
        debug_assert!(
            matches!(st.reason, StallReason::Fetch | StallReason::BranchShadow),
            "redirect delivered to slot stalled on {:?}",
            st.reason
        );
        let s = &mut self.slots[st.slot];
        s.earliest_issue = s.earliest_issue.max(t + depth);
        // The step path would unblock on the delivery, re-evaluate,
        // and re-block on the extended shadow; the span fuses that
        // into one block rewrite with identical stalls.
        let b = self.pipeline_stall(st.slot, t).expect("a redirect delivery opens a shadow");
        (st.reason, st.pc) = (b.reason, b.pc);
        self.slots[st.slot].block = Some(b);
        b.wake
    }
}
/// Property tests for the wake-time arithmetic (found regressions live
/// in `crates/sim/tests/properties.proptest-regressions`).
#[cfg(test)]
mod properties {
    use proptest::prelude::*;

    use crate::config::Config;
    use crate::machine::Machine;

    /// Assembles a two-phase workload whose stall structure the
    /// generator controls: a float divide chain (long FU latency), a
    /// pointer-chase-like load chain, and a parameterized busy loop —
    /// enough to exercise Data, Fetch, BranchShadow, and FuConflict
    /// wake sources.
    fn stall_program(divs: u32, loads: u32, loop_trips: u32) -> hirata_isa::Program {
        use std::fmt::Write as _;
        let mut src =
            String::from(".data\n.org 0\n.word 7, 9, 11, 13\n.text\n.entry main\nmain:\n");
        src.push_str("  li r1, #100\n  lif f1, #5.0\n  lif f2, #3.0\n");
        for _ in 0..divs {
            src.push_str("  fdiv f1, f1, f2\n");
        }
        src.push_str("  li r3, #0\n");
        for _ in 0..loads {
            src.push_str("  lw r2, 0(r0)\n  add r3, r2, r1\n");
        }
        let _ = writeln!(src, "  li r4, #{loop_trips}");
        src.push_str("loop:\n  sub r4, r4, #1\n  bne r4, #0, loop\n");
        src.push_str("  sw r3, 300(r0)\n  sf f1, 301(r0)\n  halt\n");
        hirata_asm::assemble(&src).expect("generator emits valid assembly")
    }

    /// Two identical machines: one for the wheel (driven by
    /// `run_span(1)`: one step, then a jump when one is provable) and
    /// one stepped cycle by cycle.
    fn machines(program: &hirata_isa::Program, slots: usize) -> (Machine, Machine) {
        let wheel = Machine::new(Config::multithreaded(slots), program).unwrap();
        let plain = Machine::new(Config::multithreaded(slots), program).unwrap();
        (wheel, plain)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        /// Next-event monotonicity and never-overshooting, checked by
        /// lockstep: each wheel step lands at a cycle the stepped
        /// machine reaches with identical statistics — so every jump
        /// moved strictly forward, and never past an event (an issue
        /// inside a skipped span would desynchronize
        /// `stats.instructions` at the boundary). At two and four
        /// slots the wheel fires only in the single-live-slot phases.
        #[test]
        fn jumps_land_exactly_on_plain_loop_cycles(
            divs in 0u32..6,
            loads in 0u32..4,
            trips in 1u32..12,
            slots in prop::sample::select(vec![1usize, 2, 4]),
        ) {
            let program = stall_program(divs, loads, trips);
            let (mut wheel, mut plain) = machines(&program, slots);
            let mut done = false;
            while !done {
                done = wheel.run_span(1).unwrap();
                prop_assert!(wheel.cycles() > plain.cycles() || done);
                while plain.cycles() < wheel.cycles() {
                    plain.step().unwrap();
                }
                prop_assert_eq!(wheel.cycles(), plain.cycles());
                prop_assert_eq!(wheel.stats(), plain.stats());
                prop_assert_eq!(wheel.priority_order(), plain.priority_order());
                prop_assert_eq!(wheel.queue_depths(), plain.queue_depths());
            }
            prop_assert!(plain.step().unwrap());
            for ctx in 0..wheel.context_frames() {
                prop_assert_eq!(wheel.register_image(ctx), plain.register_image(ctx));
            }
        }

        /// Idempotence of re-arming: re-running the wheel at a jump
        /// target reaches a fixed point within a few invocations — a
        /// cycle where one more invocation does not move the machine.
        /// A re-arm may legitimately advance again when the first jump
        /// stopped conservatively at a fetch delivery whose delivered
        /// head then probes as stalled — but each landing must stay
        /// identical to stepping, and the chain must terminate.
        #[test]
        fn rearming_at_a_jump_target_is_a_no_op(
            divs in 1u32..6,
            trips in 1u32..8,
        ) {
            let program = stall_program(divs, 2, trips);
            let (mut wheel, mut plain) = machines(&program, 1);
            let mut jumps = 0u32;
            let mut done = false;
            while !done {
                let before = wheel.cycles();
                done = wheel.run_span(1).unwrap();
                if wheel.cycles() > before + 1 {
                    jumps += 1;
                    let mut rearms = 0u32;
                    loop {
                        let landed = wheel.cycles();
                        wheel.try_jump();
                        if wheel.cycles() == landed {
                            break; // fixed point: re-arming is a no-op
                        }
                        rearms += 1;
                        prop_assert!(rearms <= 8, "re-arming never reached a fixed point");
                    }
                }
                while plain.cycles() < wheel.cycles() {
                    plain.step().unwrap();
                }
                prop_assert_eq!(wheel.stats(), plain.stats());
            }
            // The divide chain guarantees the wheel actually fired.
            prop_assert!(jumps > 0);
        }
    }

    /// Pinned replays of the `cc` entries in
    /// `crates/sim/tests/properties.proptest-regressions` (the vendored
    /// proptest does not auto-replay files, so the regressions run as
    /// explicit cases).
    #[test]
    fn regression_single_div_single_trip() {
        // cc 6a1b0f: one fdiv, one loop trip, s=1 — the minimal span
        // where a blocked Data stall and the branch shadow overlap.
        let program = stall_program(1, 0, 1);
        let (mut wheel, mut plain) = machines(&program, 1);
        wheel.run().unwrap();
        while !plain.step().unwrap() {}
        assert_eq!(wheel.stats(), plain.stats());
    }

    #[test]
    fn regression_queue_capacity_span() {
        // cc 93c4d2: a producer/consumer pair over the queue ring with
        // the consumer parked on QueueEmpty across a jump.
        let src = "\
.text
.entry main
main:
  qmap r10, r11
  fastfork
  lpid r1
  bne r1, #0, consume
  li r5, #1
  add r11, r5, #4
  add r11, r5, #9
  drain
  halt
consume:
  add r22, r10, #0
  add r22, r10, r22
  sw r22, 320(r0)
  halt
";
        let program = hirata_asm::assemble(src).expect("valid queue program");
        let (mut wheel, mut plain) = machines(&program, 2);
        wheel.run().unwrap();
        while !plain.step().unwrap() {}
        assert_eq!(wheel.stats(), plain.stats());
        assert_eq!(wheel.cycles(), plain.cycles());
    }

    /// Four slots share the fetch unit, so slot 0's straight-line run
    /// starves while the other three fetch; when they halt, slot 0 is
    /// the one live slot and holds a `Fetch` block. The wheel's jump
    /// must lift that block where the refill lands, or the landing
    /// step would replay it.
    #[test]
    fn a_refill_landing_lifts_the_fetch_block() {
        for others in 1..=3 {
            let mut src = String::from("fastfork\nlpid r1\nbne r1, #0, other\n");
            for i in 0..80 {
                src.push_str(&format!("add r{}, r0, #1\n", 2 + i % 8));
            }
            src.push_str("halt\nother:\n");
            src.push_str(&"fadd f10, f1, f1\n".repeat(others));
            src.push_str("halt\n");
            let program = hirata_asm::assemble(&src).expect("valid program");
            let (mut wheel, mut plain) = machines(&program, 4);
            wheel.run().unwrap();
            while !plain.step().unwrap() {}
            assert_eq!(wheel.stats(), plain.stats(), "{others} fadds before the halt");
        }
    }
}
