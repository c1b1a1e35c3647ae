//! The fetch system as it stood before each unit kept one pending
//! delivery: every scheduled delivery in one unordered `Vec`, scanned
//! and sorted at each cycle start, and the units walked through a
//! [`SlotSet`]. Kept as the reference the O(1) [`super::FetchSystem`]
//! must agree with, cycle by cycle (`lockstep` below).

use std::collections::VecDeque;

use super::Delivery;
use crate::trace::SlotSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: u64,
    slot: usize,
    redirect: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct FetchSystem {
    c: u64,
    capacity: usize,
    private: bool,
    unit_free: Vec<u64>,
    serving: Vec<Option<usize>>,
    redirects: VecDeque<(u64, usize)>,
    scheduled: Vec<Scheduled>,
    credits: Vec<usize>,
    active: SlotSet,
    awaiting_redirect: Vec<bool>,
    rr: usize,
}

impl FetchSystem {
    pub(super) fn new(slots: usize, c: u64, capacity: usize, private: bool) -> Self {
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

    pub(super) fn credits(&self, slot: usize) -> usize {
        self.credits[slot]
    }

    pub(super) fn consume(&mut self, slot: usize) {
        debug_assert!(self.credits[slot] > 0);
        self.credits[slot] -= 1;
    }

    pub(super) fn set_active(&mut self, slot: usize, active: bool) {
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

    pub(super) fn request_redirect(&mut self, slot: usize, now: u64) {
        self.credits[slot] = 0;
        self.scheduled.retain(|d| d.slot != slot);
        self.redirects.retain(|&(_, s)| s != slot);
        self.redirects.push_back((now, slot));
        self.awaiting_redirect[slot] = true;
        for unit in 0..self.unit_free.len() {
            if self.serving[unit] == Some(slot) && self.unit_free[unit] > now {
                self.unit_free[unit] = now + 1;
                self.serving[unit] = None;
            }
        }
    }

    pub(super) fn begin_cycle(&mut self, now: u64, out: &mut Vec<Delivery>) {
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
        out[start..].sort_unstable_by_key(|d| d.slot);
    }

    pub(super) fn end_cycle(&mut self, now: u64) {
        for unit in self.live_units().iter() {
            if self.unit_free[unit] > now {
                continue;
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

    fn live_units(&self) -> SlotSet {
        if self.private {
            self.active
        } else {
            SlotSet::first(1)
        }
    }

    fn unit_of(&self, slot: usize) -> usize {
        if self.private {
            slot
        } else {
            0
        }
    }

    fn needs_refill(&self, slot: usize) -> bool {
        !self.awaiting_redirect[slot]
            && self.credits[slot] < self.capacity
            && !self.scheduled.iter().any(|d| d.slot == slot)
    }

    fn pick_for_private_unit(&mut self, unit: usize, now: u64) -> Option<(usize, bool)> {
        let slot = unit;
        if let Some(pos) = self.redirects.iter().position(|&(t, s)| s == slot && t < now) {
            self.redirects.remove(pos);
            return Some((slot, true));
        }
        (self.active.contains(slot) && self.needs_refill(slot)).then_some((slot, false))
    }

    fn next_delivery(&self) -> u64 {
        self.scheduled.iter().map(|d| d.at).min().unwrap_or(u64::MAX)
    }

    fn next_service_start(&self, from: u64) -> u64 {
        let mut next = u64::MAX;
        for &(t, slot) in &self.redirects {
            next = next.min(self.unit_free[self.unit_of(slot)].max(from).max(t + 1));
        }
        for slot in self.active.iter() {
            if self.needs_refill(slot) {
                next = next.min(self.unit_free[self.unit_of(slot)].max(from));
            }
        }
        next
    }

    fn release_idle_units(&mut self, before: u64) {
        for unit in self.live_units().iter() {
            if self.unit_free[unit] < before {
                self.serving[unit] = None;
            }
        }
    }

    pub(super) fn next_activity(&self, from: u64) -> u64 {
        self.next_delivery().max(from).min(self.next_service_start(from))
    }

    pub(super) fn advance_span(
        &mut self,
        mut t: u64,
        target: u64,
        stop_on_refill: bool,
        out: &mut Vec<Delivery>,
    ) -> Option<u64> {
        loop {
            let next_del = self.next_delivery();
            let next_start = self.next_service_start(t);
            if next_del < target && next_del <= next_start {
                out.clear();
                self.begin_cycle(next_del, out);
                if stop_on_refill || out.iter().any(|d| d.redirect) {
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
        if let Some(pos) = self.redirects.iter().position(|&(t, _)| t < now) {
            let (_, slot) = self.redirects.remove(pos).expect("position just found");
            return Some((slot, true));
        }
        let n = self.credits.len();
        let slot = self.active.iter_from(self.rr, n).find(|&slot| self.needs_refill(slot))?;
        self.rr = (slot + 1) % n;
        Some((slot, false))
    }
}

/// Random histories driven through both implementations at once.
mod lockstep {
    use proptest::prelude::*;

    use super::super::{listed, FetchSystem};
    use super::FetchSystem as Reference;

    /// The two systems side by side; every call goes to both.
    struct Pair {
        new: FetchSystem,
        old: Reference,
        slots: usize,
        active: Vec<bool>,
    }

    impl Pair {
        fn new(slots: usize, c: u64, capacity: usize, private: bool) -> Self {
            Pair {
                new: FetchSystem::new(slots, c, capacity, private),
                old: Reference::new(slots, c, capacity, private),
                slots,
                active: vec![false; slots],
            }
        }

        /// Equal credits in every slot, and equal predictions of the
        /// next activity from `from`.
        fn assert_same(&self, from: u64, when: &str) {
            for s in 0..self.slots {
                assert_eq!(self.new.credits(s), self.old.credits(s), "credits of slot {s} {when}");
            }
            assert_eq!(
                self.new.next_activity(from),
                self.old.next_activity(from),
                "next activity from {from} {when}"
            );
        }

        /// Both cycle starts: the same deliveries, one by one.
        fn begin_cycle(&mut self, now: u64) {
            let a = listed(self.new.begin_cycle(now));
            let mut b = Vec::new();
            self.old.begin_cycle(now, &mut b);
            assert_eq!(a, b, "deliveries at cycle {now}");
        }

        fn end_cycle(&mut self, now: u64) {
            self.new.end_cycle(now);
            self.old.end_cycle(now);
            self.assert_same(now + 1, &format!("after cycle {now}"));
        }

        fn set_active(&mut self, slot: usize, on: bool) {
            self.active[slot] = on;
            self.new.set_active(slot, on);
            self.old.set_active(slot, on);
        }

        fn request_redirect(&mut self, slot: usize, now: u64) {
            self.new.request_redirect(slot, now);
            self.old.request_redirect(slot, now);
        }

        fn consume(&mut self, slot: usize) {
            self.new.consume(slot);
            self.old.consume(slot);
        }

        /// Both span walks from `t` toward `target`: equal stops and
        /// equal deliveries at the stop.
        fn advance_span(&mut self, t: u64, target: u64, stop_on_refill: bool) -> Option<u64> {
            let mut b = Vec::new();
            let stop = self.new.advance_span(t, target, stop_on_refill);
            let old_stop = self.old.advance_span(t, target, stop_on_refill, &mut b);
            let new_stop = stop.map(|(tc, ..)| tc);
            assert_eq!(new_stop, old_stop, "span [{t}, {target}) stop_on_refill={stop_on_refill}");
            if let Some((_, delivered, redirected)) = stop {
                assert_eq!(listed((delivered, redirected)), b, "deliveries at the span's stop");
            }
            new_stop
        }
    }

    /// One random action inside a cycle, between `begin_cycle` and
    /// `end_cycle` — the machine's issue phase. Actions on an inactive
    /// slot (other than activating it) do nothing.
    fn act(pair: &mut Pair, op: u64, slot: usize, now: u64) {
        match op {
            // Consume while credits last (the window fill).
            0..=3 => {
                let n = pair.new.credits(slot).min(op as usize + 1);
                for _ in 0..n {
                    pair.consume(slot);
                }
            }
            4 | 5 if pair.active[slot] => pair.request_redirect(slot, now),
            6 => {
                let on = !pair.active[slot];
                pair.set_active(slot, on);
                if on {
                    // A bind requests the thread's first fetch at once.
                    pair.request_redirect(slot, now);
                }
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        /// Random histories of binds, unbinds, redirects, issues and
        /// span walks, on shared and private units, 1-8 slots, C from
        /// 1 to 4 and several buffer capacities: at every cycle both
        /// systems deliver the same words to the same slots, hold the
        /// same credits and predict the same next activity, and every
        /// span walk stops at the same cycle.
        #[test]
        fn the_fetch_unit_matches_its_reference(
            slots in 1usize..9,
            c in 1u64..5,
            capacity in prop::sample::select(vec![1usize, 2, 3, 4, 8, 16]),
            private in prop::sample::select(vec![false, true]),
            ops in prop::collection::vec((0u64..12, 0usize..8, 0u64..8), 1..160),
        ) {
            let mut pair = Pair::new(slots, c, capacity, private);
            pair.set_active(0, true);
            pair.request_redirect(0, 0);
            let mut now = 0u64;
            let mut started = false; // `begin_cycle(now)` already applied
            for (op, slot, arg) in ops {
                let slot = slot % slots;
                if !started {
                    pair.begin_cycle(now);
                }
                if op >= 10 {
                    // A span walk: nothing issues, binds or redirects
                    // inside it (the event wheel's situation).
                    pair.end_cycle(now);
                    let target = now + 1 + arg * 3;
                    let stop_on_refill = op == 11;
                    match pair.advance_span(now + 1, target, stop_on_refill) {
                        Some(tc) => {
                            now = tc;
                            started = true;
                        }
                        None => {
                            now = target;
                            started = false;
                        }
                    }
                    continue;
                }
                act(&mut pair, op % 7, slot, now);
                if arg < 2 {
                    act(&mut pair, arg, (slot + 1) % slots, now);
                }
                pair.end_cycle(now);
                now += 1;
                started = false;
            }
        }
    }
}
