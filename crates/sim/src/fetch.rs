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
//! of a cycle; after a redirect the pipeline must also re-cover the
//! decode stages, which the machine accounts for via
//! [`Delivery::redirect`].

use std::collections::VecDeque;

use crate::trace::SlotSet;

/// A refill or redirect completion, surfaced at the start of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Delivery {
    pub slot: usize,
    /// True if this delivery answers a redirect (branch, fork, or
    /// thread start), meaning the decode pipeline was drained.
    pub redirect: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: u64,
    slot: usize,
    redirect: bool,
}

/// The fetch system: one shared unit, or one per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FetchSystem {
    c: u64,
    capacity: usize,
    private: bool,
    /// Earliest cycle each unit can begin a new service.
    unit_free: Vec<u64>,
    /// Slot currently being served by each unit, if any.
    serving: Vec<Option<usize>>,
    /// Pending redirect requests: (request cycle, slot), FIFO.
    redirects: VecDeque<(u64, usize)>,
    /// Scheduled deliveries, unordered (scanned per cycle).
    scheduled: Vec<Scheduled>,
    /// Per-slot buffer credits (words available to decode).
    credits: Vec<usize>,
    /// Slots with a running thread (the machine's bound slots): only
    /// these receive refills. An inactive slot has no pending redirect,
    /// scheduled delivery or unit serving it, so every per-cycle scan
    /// visits the active slots (and, with private units, their units)
    /// only.
    active: SlotSet,
    /// Per-slot: a redirect is pending or in flight, so round-robin
    /// refills are suppressed until it lands.
    awaiting_redirect: Vec<bool>,
    /// Round-robin pointer (shared unit only).
    rr: usize,
}

impl FetchSystem {
    pub(crate) fn new(slots: usize, c: u64, capacity: usize, private: bool) -> Self {
        FetchSystem {
            c,
            capacity,
            private,
            unit_free: vec![0; if private { slots } else { 1 }],
            serving: vec![None; if private { slots } else { 1 }],
            redirects: VecDeque::new(),
            scheduled: Vec::new(),
            credits: vec![0; slots],
            active: SlotSet::EMPTY,
            awaiting_redirect: vec![false; slots],
            rr: 0,
        }
    }

    /// Credits currently available to `slot`.
    pub(crate) fn credits(&self, slot: usize) -> usize {
        self.credits[slot]
    }

    /// Consumes one credit (an instruction entered decode).
    pub(crate) fn consume(&mut self, slot: usize) {
        debug_assert!(self.credits[slot] > 0);
        self.credits[slot] -= 1;
    }

    /// Marks a slot as having (or not having) a running thread; only
    /// active slots receive round-robin refills.
    pub(crate) fn set_active(&mut self, slot: usize, active: bool) {
        if active {
            self.active.insert(slot);
        } else {
            self.active.remove(slot);
            self.credits[slot] = 0;
            self.awaiting_redirect[slot] = false;
            self.redirects.retain(|&(_, s)| s != slot);
            self.scheduled.retain(|d| d.slot != slot);
            for unit in 0..self.unit_free.len() {
                if self.serving[unit] == Some(slot) {
                    self.serving[unit] = None;
                }
            }
        }
    }

    /// Requests a redirect for `slot` at cycle `now` (branch resolved,
    /// thread spawned, or context switched in). Flushes the buffer and
    /// preempts an in-flight fetch for the same slot (§2.1.1: a branch
    /// "can preempt the fetching operation").
    pub(crate) fn request_redirect(&mut self, slot: usize, now: u64) {
        debug_assert!(self.active.contains(slot), "redirect for inactive slot {slot}");
        self.credits[slot] = 0;
        // Drop any in-flight refill for this slot: its words are stale.
        self.scheduled.retain(|d| d.slot != slot);
        self.redirects.retain(|&(_, s)| s != slot);
        self.redirects.push_back((now, slot));
        self.awaiting_redirect[slot] = true;
        // Abort the unit mid-service if it is fetching for this slot.
        for unit in 0..self.unit_free.len() {
            if self.serving[unit] == Some(slot) && self.unit_free[unit] > now {
                self.unit_free[unit] = now + 1;
                self.serving[unit] = None;
            }
        }
    }

    /// Start-of-cycle: applies deliveries landing at `now`, appending
    /// them to `out` (a reused scratch buffer — see the machine's
    /// cycle loop).
    pub(crate) fn begin_cycle(&mut self, now: u64, out: &mut Vec<Delivery>) {
        let start = out.len();
        let mut i = 0;
        while i < self.scheduled.len() {
            if self.scheduled[i].at == now {
                let d = self.scheduled.swap_remove(i);
                self.credits[d.slot] = self.capacity;
                if d.redirect {
                    self.awaiting_redirect[d.slot] = false;
                }
                out.push(Delivery { slot: d.slot, redirect: d.redirect });
            } else {
                i += 1;
            }
        }
        // Deterministic order for the machine's bookkeeping. At most
        // one delivery lands per slot per cycle, so slot keys are
        // unique and an unstable sort is exact.
        out[start..].sort_unstable_by_key(|d| d.slot);
    }

    /// End-of-cycle: lets idle units begin their next service. A
    /// service started at cycle `now` occupies `now .. now+C` and its
    /// words become decodable at the start of cycle `now + C`.
    /// Redirect requests made *this* cycle become eligible next cycle
    /// (the fetch request goes out at the end of the branch's D1
    /// stage), which yields the paper's branch shadows exactly.
    pub(crate) fn end_cycle(&mut self, now: u64) {
        for unit in self.live_units().iter() {
            if self.unit_free[unit] > now {
                continue; // mid-service
            }
            self.serving[unit] = None;
            let slot = if self.private {
                self.pick_for_private_unit(unit, now)
            } else {
                self.pick_for_shared_unit(now)
            };
            let Some((slot, redirect)) = slot else { continue };
            self.unit_free[unit] = now + self.c;
            self.serving[unit] = Some(slot);
            self.scheduled.push(Scheduled { at: now + self.c, slot, redirect });
        }
    }

    /// The units worth visiting: the shared unit, or the private units
    /// of the active slots (an inactive slot's unit has nothing to do).
    fn live_units(&self) -> SlotSet {
        if self.private {
            self.active
        } else {
            SlotSet::first(1)
        }
    }

    /// The unit that serves `slot`.
    fn unit_of(&self, slot: usize) -> usize {
        if self.private {
            slot
        } else {
            0
        }
    }

    /// True if active `slot` is due a round-robin refill: no redirect
    /// pending, room in its buffer, and no delivery already scheduled.
    fn needs_refill(&self, slot: usize) -> bool {
        !self.awaiting_redirect[slot]
            && self.credits[slot] < self.capacity
            && !self.scheduled.iter().any(|d| d.slot == slot)
    }

    fn pick_for_private_unit(&mut self, unit: usize, now: u64) -> Option<(usize, bool)> {
        let slot = unit; // one unit per slot
        if let Some(pos) = self.redirects.iter().position(|&(t, s)| s == slot && t < now) {
            self.redirects.remove(pos);
            return Some((slot, true));
        }
        (self.active.contains(slot) && self.needs_refill(slot)).then_some((slot, false))
    }

    /// Earliest scheduled delivery (`u64::MAX` if none).
    fn next_delivery(&self) -> u64 {
        self.scheduled.iter().map(|d| d.at).min().unwrap_or(u64::MAX)
    }

    /// Earliest cycle `>= from` at which an idle unit could begin a new
    /// service (`end_cycle` semantics: the unit is free, and a redirect
    /// is past its request cycle or an active slot is due a refill).
    /// Static while no credits are consumed and no requests arrive.
    fn next_service_start(&self, from: u64) -> u64 {
        let mut next = u64::MAX;
        for &(t, slot) in &self.redirects {
            // A redirect requested at `t` becomes eligible at the end
            // of cycle `t + 1` (see `end_cycle`).
            next = next.min(self.unit_free[self.unit_of(slot)].max(from).max(t + 1));
        }
        for slot in self.active.iter() {
            if self.needs_refill(slot) {
                next = next.min(self.unit_free[self.unit_of(slot)].max(from));
            }
        }
        next
    }

    /// Marks every unit that went free before cycle `before` as idle.
    fn release_idle_units(&mut self, before: u64) {
        for unit in self.live_units().iter() {
            if self.unit_free[unit] < before {
                self.serving[unit] = None;
            }
        }
    }

    /// Earliest cycle `>= from` at which the fetch system does
    /// anything at all: a scheduled delivery lands (`begin_cycle`) or
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
    /// refill when `stop_on_refill` — with that cycle's deliveries in
    /// `out` (`begin_cycle` applied, `end_cycle` not, exactly the state
    /// a per-cycle replay stopping there would leave). Returns `None`
    /// when the span completes without such a cycle; either way the
    /// final state is byte-identical to calling
    /// `begin_cycle`/`end_cycle` for every cycle up to the stop point.
    pub(crate) fn advance_span(
        &mut self,
        mut t: u64,
        target: u64,
        stop_on_refill: bool,
        out: &mut Vec<Delivery>,
    ) -> Option<u64> {
        loop {
            debug_assert!(
                self.scheduled.iter().all(|d| d.at >= t),
                "delivery from the past left unapplied"
            );
            let next_del = self.next_delivery();
            let next_start = self.next_service_start(t);
            if next_del < target && next_del <= next_start {
                // A delivery lands first (ties go to the delivery:
                // `begin_cycle` runs before `end_cycle` in a cycle).
                out.clear();
                self.begin_cycle(next_del, out);
                if stop_on_refill || out.iter().any(|d| d.redirect) {
                    // Units that went free on a skipped cycle never
                    // restarted (no eligible pick before this one).
                    self.release_idle_units(next_del);
                    return Some(next_del);
                }
                self.end_cycle(next_del);
                t = next_del + 1;
            } else if next_start < target {
                self.end_cycle(next_start);
                t = next_start + 1;
            } else {
                self.release_idle_units(target);
                return None;
            }
        }
    }

    fn pick_for_shared_unit(&mut self, now: u64) -> Option<(usize, bool)> {
        // Redirects first (branch preemption), FIFO.
        if let Some(pos) = self.redirects.iter().position(|&(t, _)| t < now) {
            let (_, slot) = self.redirects.remove(pos).expect("position just found");
            return Some((slot, true));
        }
        // Round-robin refill over active, needy slots.
        let n = self.credits.len();
        let slot = self.active.iter_from(self.rr, n).find(|&slot| self.needs_refill(slot))?;
        self.rr = (slot + 1) % n;
        Some((slot, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the system forward one cycle, returning deliveries.
    fn cycle(fs: &mut FetchSystem, now: u64) -> Vec<Delivery> {
        let mut d = Vec::new();
        fs.begin_cycle(now, &mut d);
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
            fs.begin_cycle(now, &mut Vec::new());
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
            let mut d = Vec::new();
            sim.begin_cycle(now, &mut d);
            if !d.is_empty() {
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
