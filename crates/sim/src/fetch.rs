//! The instruction fetch unit and per-slot instruction buffers
//! (§2.1.1).
//!
//! Each thread slot owns a buffer of `B = S x C` words. The (shared)
//! fetch unit refills one slot's buffer every `C` cycles in an
//! interleaved, round-robin fashion; a branch redirect preempts the
//! rotation ("that thread can preempt the fetching operation"). With
//! `private` fetch units (the §3.2 ablation) every slot has its own
//! unit and the rotation disappears.
//!
//! Buffers are modelled as word-count *credits*: the machine consumes
//! one credit per issued instruction; the instruction bytes themselves
//! come straight from the program image. Deliveries land at the start
//! of a cycle, at most one per slot ([`FetchSystem::begin_cycle`]);
//! after a redirect the pipeline must also re-cover the decode stages,
//! which the machine accounts for with the redirected slots.

use std::collections::VecDeque;

use crate::trace::SlotSet;

#[cfg(test)]
mod reference;

/// A unit's service in flight: the slot it fills, landing at the
/// start of the cycle the unit frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Delivery {
    slot: usize,
    /// True if this delivery answers a redirect (branch, fork, or
    /// thread start), meaning the decode pipeline was drained.
    redirect: bool,
}

/// One fetch unit. A unit begins a new service only once its last one
/// has delivered, so it never has more than one delivery in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Unit {
    /// Earliest cycle the unit can begin a new service.
    free_at: u64,
    /// The delivery of the service in flight, landing at the start of
    /// cycle `free_at`; `None` once a redirect or an unbind cancelled
    /// it (the unit still stays busy until `free_at`).
    pending: Option<Delivery>,
}

impl Unit {
    /// Takes the pending delivery if it lands at `now`.
    #[inline]
    fn take_due(&mut self, now: u64) -> Option<Delivery> {
        self.pending.take_if(|_| self.free_at == now)
    }
}

/// One slot's fetch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SlotFetch {
    /// Buffer credits (words available to decode).
    credits: usize,
    /// A redirect is pending or in flight, so round-robin refills are
    /// suppressed until it lands.
    awaiting_redirect: bool,
    /// The slot's own unit (private fetch units only).
    unit: Unit,
}

/// The fetch system: one shared unit, or one per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FetchSystem {
    c: u64,
    capacity: usize,
    private: bool,
    /// The shared unit (idle throughout with private units).
    shared: Unit,
    slots: Vec<SlotFetch>,
    /// Pending redirect requests: (request cycle, slot), FIFO. They
    /// arrive in cycle order, so the front is the oldest.
    redirects: VecDeque<(u64, usize)>,
    /// Slots with a running thread (the machine's bound slots): only
    /// these receive refills. An inactive slot has no pending redirect
    /// or delivery, so every per-cycle walk over private units visits
    /// the active slots only.
    active: SlotSet,
    /// The active slots due a refill: room in the buffer, no redirect
    /// pending. A slot joins on activation and `consume` and leaves on
    /// a delivery, a redirect request or deactivation. A unit picks
    /// only after its last delivery landed, so none is in flight.
    hungry: SlotSet,
    /// Round-robin pointer (shared unit only).
    rr: usize,
}

impl FetchSystem {
    pub(crate) fn new(slots: usize, c: u64, capacity: usize, private: bool) -> Self {
        FetchSystem {
            c,
            capacity,
            private,
            shared: Unit::default(),
            slots: vec![SlotFetch::default(); slots],
            redirects: VecDeque::new(),
            active: SlotSet::EMPTY,
            hungry: SlotSet::EMPTY,
            rr: 0,
        }
    }

    /// Credits currently available to `slot`.
    pub(crate) fn credits(&self, slot: usize) -> usize {
        self.slots[slot].credits
    }

    /// Consumes one credit (an instruction entered decode).
    pub(crate) fn consume(&mut self, slot: usize) {
        debug_assert!(self.slots[slot].credits > 0 && !self.slots[slot].awaiting_redirect);
        self.slots[slot].credits -= 1;
        self.hungry.insert(slot);
    }

    /// Marks a slot as having (or not having) a running thread; only
    /// active slots receive round-robin refills.
    pub(crate) fn set_active(&mut self, slot: usize, active: bool) {
        if active {
            self.active.insert(slot);
            self.hungry.insert(slot);
        } else {
            self.active.remove(slot);
            self.hungry.remove(slot);
            self.cancel(slot);
            self.slots[slot].awaiting_redirect = false;
        }
    }

    /// Empties `slot`'s buffer and drops its queued redirect request
    /// and its delivery in flight; returns the unit that was carrying
    /// that delivery, if any.
    fn cancel(&mut self, slot: usize) -> Option<&mut Unit> {
        self.slots[slot].credits = 0;
        // Only a slot awaiting a redirect can have one queued.
        if self.slots[slot].awaiting_redirect {
            self.redirects.retain(|&(_, s)| s != slot);
        }
        let unit = if self.private { &mut self.slots[slot].unit } else { &mut self.shared };
        unit.pending.take_if(|d| d.slot == slot).map(|_| unit)
    }

    /// Requests a redirect for `slot` at cycle `now` (branch resolved,
    /// thread spawned, or context switched in). Flushes the buffer and
    /// preempts an in-flight fetch for the same slot (§2.1.1: a branch
    /// "can preempt the fetching operation").
    pub(crate) fn request_redirect(&mut self, slot: usize, now: u64) {
        debug_assert!(self.active.contains(slot), "redirect for inactive slot {slot}");
        if let Some(unit) = self.cancel(slot) {
            // Abort the unit mid-service: its words are stale.
            debug_assert!(unit.free_at > now, "a landed delivery left pending");
            unit.free_at = now + 1;
        }
        self.redirects.push_back((now, slot));
        self.slots[slot].awaiting_redirect = true;
        self.hungry.remove(slot);
    }

    /// Start-of-cycle: applies the deliveries landing at `now` and
    /// returns the slots they landed in and, among those, the slots
    /// whose delivery answers a redirect. A slot gets at most one: one
    /// unit serves it, and a unit has at most one delivery in flight.
    #[inline]
    pub(crate) fn begin_cycle(&mut self, now: u64) -> (SlotSet, SlotSet) {
        let mut landed = (SlotSet::EMPTY, SlotSet::EMPTY);
        if self.private {
            self.begin_private_cycle(now, &mut landed);
        } else if let Some(d) = self.shared.take_due(now) {
            self.deliver(d, &mut landed);
        }
        landed
    }

    fn begin_private_cycle(&mut self, now: u64, landed: &mut (SlotSet, SlotSet)) {
        for slot in self.active.iter() {
            if let Some(d) = self.slots[slot].unit.take_due(now) {
                self.deliver(d, landed);
            }
        }
    }

    fn deliver(&mut self, d: Delivery, (delivered, redirected): &mut (SlotSet, SlotSet)) {
        let slot = &mut self.slots[d.slot];
        slot.credits = self.capacity;
        self.hungry.remove(d.slot);
        delivered.insert(d.slot);
        if d.redirect {
            slot.awaiting_redirect = false;
            redirected.insert(d.slot);
        }
    }

    /// End-of-cycle: lets idle units begin their next service. A
    /// service started at cycle `now` occupies `now .. now+C` and its
    /// words become decodable at the start of cycle `now + C`.
    /// Redirect requests made *this* cycle become eligible next cycle
    /// (the fetch request goes out at the end of the branch's D1
    /// stage), which yields the paper's branch shadows exactly.
    #[inline]
    pub(crate) fn end_cycle(&mut self, now: u64) {
        if self.private {
            self.end_private_cycle(now);
        } else if self.shared.free_at <= now {
            if let Some(d) = self.pick_for_shared_unit(now) {
                self.shared = Unit { free_at: now + self.c, pending: Some(d) };
            }
        }
    }

    fn end_private_cycle(&mut self, now: u64) {
        for slot in self.active.iter() {
            if self.slots[slot].unit.free_at <= now {
                if let Some(d) = self.pick_for_private_unit(slot, now) {
                    self.slots[slot].unit = Unit { free_at: now + self.c, pending: Some(d) };
                }
            }
        }
    }

    fn pick_for_private_unit(&mut self, slot: usize, now: u64) -> Option<Delivery> {
        if let Some(pos) = self.redirects.iter().position(|&(t, s)| s == slot && t < now) {
            self.redirects.remove(pos);
            return Some(Delivery { slot, redirect: true });
        }
        self.hungry.contains(slot).then_some(Delivery { slot, redirect: false })
    }

    fn pick_for_shared_unit(&mut self, now: u64) -> Option<Delivery> {
        // Redirects first (branch preemption), FIFO.
        if let Some(&(t, slot)) = self.redirects.front() {
            if t < now {
                self.redirects.pop_front();
                return Some(Delivery { slot, redirect: true });
            }
        }
        // Round-robin refill over the hungry slots.
        let n = self.slots.len();
        let slot = self.hungry.iter_from(self.rr, n).next()?;
        self.rr = if slot + 1 == n { 0 } else { slot + 1 };
        Some(Delivery { slot, redirect: false })
    }

    /// Earliest pending delivery (`u64::MAX` if none).
    fn next_delivery(&self) -> u64 {
        let due = |unit: &Unit| unit.pending.map_or(u64::MAX, |_| unit.free_at);
        if !self.private {
            return due(&self.shared);
        }
        self.active.iter().map(|slot| due(&self.slots[slot].unit)).min().unwrap_or(u64::MAX)
    }

    /// Earliest cycle `>= from` at which an idle unit could begin a new
    /// service (`end_cycle` semantics: the unit is free, and a redirect
    /// is past its request cycle or an active slot is due a refill).
    /// Static while no credits are consumed and no requests arrive.
    fn next_service_start(&self, from: u64) -> u64 {
        // A redirect requested at `t` becomes eligible at the end of
        // cycle `t + 1` (see `end_cycle`), so the shared unit's oldest
        // is its earliest; a refill can start as soon as it is free.
        if !self.private {
            let free = self.shared.free_at.max(from);
            if !self.hungry.is_empty() {
                return free;
            }
            return self.redirects.front().map_or(u64::MAX, |&(t, _)| free.max(t + 1));
        }
        let mut next = u64::MAX;
        for &(t, slot) in &self.redirects {
            next = next.min(self.slots[slot].unit.free_at.max(from).max(t + 1));
        }
        // A unit still carrying its slot's delivery frees when that
        // lands, no earlier than the next delivery.
        for slot in self.hungry.iter() {
            next = next.min(self.slots[slot].unit.free_at.max(from));
        }
        next
    }

    /// Earliest cycle `>= from` at which the fetch system does
    /// anything at all: a pending delivery lands (`begin_cycle`) or
    /// an idle unit could begin a new service (`end_cycle`). Between
    /// `from` and the returned cycle the system is provably inert as
    /// long as nothing calls `consume`/`request_redirect`/`set_active`
    /// — exactly the event-wheel's situation, where no slot issues.
    /// `u64::MAX` means only an external request can wake it. The
    /// tests check it (and so `advance_span`'s event arithmetic)
    /// against brute-force stepping.
    #[cfg(test)]
    fn next_activity(&self, from: u64) -> u64 {
        self.next_delivery().max(from).min(self.next_service_start(from))
    }

    /// Replays the fetch activity of `[t, target)` in one call — the
    /// event wheel's span walk. Internal bookkeeping (service starts,
    /// refill deliveries unless `stop_on_refill`) is applied directly,
    /// visiting only event cycles; the call returns at the first cycle
    /// with a delivery the caller must inspect — any redirect, or any
    /// refill when `stop_on_refill` — with that cycle and the slot
    /// sets its `begin_cycle` returned (`begin_cycle` applied,
    /// `end_cycle` not, exactly the state a per-cycle replay stopping
    /// there would leave). Returns `None` when the span completes
    /// without such a cycle; either way the final state is
    /// byte-identical to calling `begin_cycle`/`end_cycle` for every
    /// cycle up to the stop point.
    pub(crate) fn advance_span(
        &mut self,
        mut t: u64,
        target: u64,
        stop_on_refill: bool,
    ) -> Option<(u64, SlotSet, SlotSet)> {
        loop {
            let next_del = self.next_delivery();
            debug_assert!(
                next_del == u64::MAX || next_del >= t,
                "delivery from the past left unapplied"
            );
            // The shared unit begins no service before its pending
            // delivery lands, so its start matters only when idle.
            let next_start = if self.private || next_del == u64::MAX {
                self.next_service_start(t)
            } else {
                u64::MAX
            };
            if next_del < target && next_del <= next_start {
                // A delivery lands first (ties go to the delivery:
                // `begin_cycle` runs before `end_cycle` in a cycle).
                let (delivered, redirected) = self.begin_cycle(next_del);
                if stop_on_refill || !redirected.is_empty() {
                    return Some((next_del, delivered, redirected));
                }
                self.end_cycle(next_del);
                t = next_del + 1;
            } else if next_start < target {
                self.end_cycle(next_start);
                t = next_start + 1;
            } else {
                return None;
            }
        }
    }
}

/// The deliveries of one cycle, as [`FetchSystem::begin_cycle`]
/// returns them, listed in slot order.
#[cfg(test)]
fn listed((delivered, redirected): (SlotSet, SlotSet)) -> Vec<Delivery> {
    delivered.iter().map(|slot| Delivery { slot, redirect: redirected.contains(slot) }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the system forward one cycle, returning deliveries.
    fn cycle(fs: &mut FetchSystem, now: u64) -> Vec<Delivery> {
        let d = listed(fs.begin_cycle(now));
        fs.end_cycle(now);
        d
    }

    #[test]
    fn redirect_delivers_after_c_cycles() {
        // C = 2: request at cycle 0 -> service occupies 1..=2 ->
        // delivery at start of cycle 3.
        let mut fs = FetchSystem::new(1, 2, 2, false);
        fs.set_active(0, true);
        fs.request_redirect(0, 0);
        assert!(cycle(&mut fs, 0).is_empty());
        assert!(cycle(&mut fs, 1).is_empty());
        assert!(cycle(&mut fs, 2).is_empty());
        let d = cycle(&mut fs, 3);
        assert_eq!(d, vec![Delivery { slot: 0, redirect: true }]);
        assert_eq!(fs.credits(0), 2);
    }

    #[test]
    fn steady_state_refill_keeps_single_slot_fed() {
        let mut fs = FetchSystem::new(1, 2, 2, false);
        fs.set_active(0, true);
        fs.request_redirect(0, 0);
        let mut starved = 0;
        for now in 0..100u64 {
            fs.begin_cycle(now);
            if now >= 3 {
                if fs.credits(0) == 0 {
                    starved += 1;
                } else {
                    fs.consume(0); // issue one instruction per cycle
                }
            }
            fs.end_cycle(now);
        }
        assert_eq!(starved, 0, "fetch unit should sustain one issue per cycle");
    }

    #[test]
    fn shared_unit_serializes_concurrent_redirects() {
        let mut fs = FetchSystem::new(2, 2, 4, false);
        fs.set_active(0, true);
        fs.set_active(1, true);
        fs.request_redirect(0, 0);
        fs.request_redirect(1, 0);
        let mut deliveries = Vec::new();
        for now in 0..8 {
            for d in cycle(&mut fs, now) {
                deliveries.push((now, d.slot));
            }
        }
        // Slot 0 served first (FIFO): lands at 3; slot 1 at 5.
        assert_eq!(deliveries, vec![(3, 0), (5, 1)]);
    }

    #[test]
    fn private_units_serve_redirects_in_parallel() {
        let mut fs = FetchSystem::new(2, 2, 4, true);
        fs.set_active(0, true);
        fs.set_active(1, true);
        fs.request_redirect(0, 0);
        fs.request_redirect(1, 0);
        let mut deliveries = Vec::new();
        for now in 0..6 {
            for d in cycle(&mut fs, now) {
                deliveries.push((now, d.slot));
            }
        }
        assert_eq!(deliveries, vec![(3, 0), (3, 1)]);
    }

    #[test]
    fn redirect_preempts_round_robin() {
        let mut fs = FetchSystem::new(2, 2, 4, false);
        fs.set_active(0, true);
        fs.set_active(1, true);
        // Both slots start empty; give slot 0 a refill first.
        cycle(&mut fs, 0); // starts refill for slot 0
        fs.request_redirect(1, 1); // slot 1 branches
        let mut got = Vec::new();
        for now in 1..8 {
            for d in cycle(&mut fs, now) {
                got.push((now, d.slot, d.redirect));
            }
        }
        // Slot 0's refill completes at 2, then the redirect wins the
        // unit over slot 0's next refill turn and lands at 4.
        assert_eq!(got[0], (2, 0, false));
        assert_eq!(got[1], (4, 1, true));
    }

    #[test]
    fn inactive_slots_are_not_refilled() {
        let mut fs = FetchSystem::new(2, 2, 2, false);
        fs.set_active(0, true);
        // Slot 1 inactive.
        for now in 0..20 {
            cycle(&mut fs, now);
        }
        assert_eq!(fs.credits(1), 0);
        assert_eq!(fs.credits(0), 2);
    }

    #[test]
    fn deactivation_cancels_pending_work() {
        let mut fs = FetchSystem::new(1, 2, 2, false);
        fs.set_active(0, true);
        fs.request_redirect(0, 0);
        fs.set_active(0, false);
        for now in 0..6 {
            assert!(cycle(&mut fs, now).is_empty());
        }
        assert_eq!(fs.credits(0), 0);
    }

    /// Reference for `next_activity`: clone the system and run it
    /// forward with no issue activity until it visibly does something
    /// (delivers words or mutates itself by starting a service).
    fn observed_next_activity(fs: &FetchSystem, from: u64, horizon: u64) -> u64 {
        let mut sim = fs.clone();
        for now in from..horizon {
            if !sim.begin_cycle(now).0.is_empty() {
                return now;
            }
            let before = sim.clone();
            sim.end_cycle(now);
            if sim != before {
                return now;
            }
        }
        u64::MAX
    }

    #[test]
    fn next_activity_matches_observed_behaviour() {
        // Sweep a few request histories over shared and private units
        // and check the prediction against brute-force simulation at
        // every point in time.
        for private in [false, true] {
            for history in 0u32..32 {
                let mut fs = FetchSystem::new(2, 2, 4, private);
                fs.set_active(0, true);
                fs.set_active(1, history & 1 == 0);
                if history & 2 != 0 {
                    fs.request_redirect(0, 0);
                }
                if history & 4 != 0 && history & 1 == 0 {
                    fs.request_redirect(1, 1);
                }
                for now in 0..(history >> 3) as u64 {
                    cycle(&mut fs, now);
                }
                let from = (history >> 3) as u64;
                assert_eq!(
                    fs.next_activity(from),
                    observed_next_activity(&fs, from, from + 64),
                    "private={private} history={history:#b} from={from}"
                );
            }
        }
    }

    #[test]
    fn next_activity_is_never_early() {
        // An idle, inactive system reports MAX: nothing will ever
        // happen without an external request.
        let fs = FetchSystem::new(2, 2, 4, false);
        assert_eq!(fs.next_activity(5), u64::MAX);
    }

    #[test]
    fn redirect_flushes_credits_and_inflight_refill() {
        let mut fs = FetchSystem::new(1, 2, 2, false);
        fs.set_active(0, true);
        fs.request_redirect(0, 0);
        for now in 0..4 {
            cycle(&mut fs, now);
        }
        assert_eq!(fs.credits(0), 2);
        fs.request_redirect(0, 4);
        assert_eq!(fs.credits(0), 0);
        // The old buffered words never come back; only the redirect
        // delivery refills.
        let mut redirects = 0;
        for now in 4..10 {
            for d in cycle(&mut fs, now) {
                assert!(d.redirect);
                redirects += 1;
            }
        }
        assert_eq!(redirects, 1);
    }
}
