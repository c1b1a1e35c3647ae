//! Multi-level rotating thread priorities (§2.2, Figure 4).
//!
//! Every thread slot holds a unique priority level. The instruction
//! schedule units pick candidates in priority order; to avoid
//! starvation the levels rotate — either every *rotation interval*
//! cycles (implicit mode) or under software control via `chgpri`
//! (explicit mode). After a rotation the previously highest slot has
//! the lowest priority.

use hirata_isa::RotationMode;

/// Every rotation is a left rotation of the level order, so the order
/// is always `0..slots` rotated: the highest slot, then the slots
/// after it, wrapping. Only the highest slot is stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Priorities {
    highest: usize,
    slots: usize,
    mode: RotationMode,
    /// Cycle of the most recent implicit rotation (or mode change).
    last_rotation: u64,
    /// A `chgpri` executed this cycle; rotation applies at cycle end.
    pending_explicit: bool,
}

impl Priorities {
    pub(crate) fn new(slots: usize, mode: RotationMode) -> Self {
        Priorities { highest: 0, slots, mode, last_rotation: 0, pending_explicit: false }
    }

    /// Slots from highest to lowest priority.
    pub(crate) fn order(&self) -> impl Iterator<Item = usize> {
        let (highest, slots) = (self.highest, self.slots);
        (0..slots).map(move |rank| (highest + rank) % slots)
    }

    /// The highest-priority slot.
    #[inline]
    pub(crate) fn highest(&self) -> usize {
        self.highest
    }

    /// Switches mode (the privileged `setrot` instruction) and resets
    /// the implicit-rotation timer.
    pub(crate) fn set_mode(&mut self, mode: RotationMode, now: u64) {
        self.mode = mode;
        self.last_rotation = now;
    }

    /// Called at the start of each cycle; performs an implicit rotation
    /// when the interval has elapsed. Returns true if it rotated.
    pub(crate) fn tick(&mut self, now: u64) -> bool {
        if let RotationMode::Implicit { interval } = self.mode {
            if now > 0 && now - self.last_rotation >= interval as u64 {
                self.rotate(now);
                return true;
            }
        }
        false
    }

    /// Applies every implicit rotation that [`Self::tick`] would have
    /// performed over the half-open cycle span `[from, to)`, in one
    /// arithmetic step. Returns the number of rotations applied.
    /// Explicit mode never rotates on its own, so the span is a no-op
    /// there. Used by the event wheel (traced runs never jump, so
    /// every rotation event is still emitted by a per-cycle `tick`).
    pub(crate) fn fast_forward_ticks(&mut self, from: u64, to: u64) -> u64 {
        let RotationMode::Implicit { interval } = self.mode else { return 0 };
        let interval = interval as u64;
        let first = (self.last_rotation + interval).max(from).max(1);
        if first >= to {
            return 0;
        }
        // One rotation, the common case, needs no division.
        let count = if to - first <= interval { 1 } else { 1 + (to - 1 - first) / interval };
        self.last_rotation = first + (count - 1) * interval;
        let highest =
            self.highest + if count == 1 { 1 } else { (count % self.slots as u64) as usize };
        self.highest = if highest >= self.slots { highest - self.slots } else { highest };
        count
    }

    /// Makes `slot` the highest level without moving the rotation
    /// timer: the net effect of an implicit rotation and the forced
    /// rotations that follow it on the same cycle when `slot` is the
    /// only slot with work.
    pub(crate) fn realign(&mut self, slot: usize) {
        self.highest = slot;
    }

    /// Requests an explicit rotation (`chgpri`), applied at cycle end.
    pub(crate) fn request_explicit(&mut self) {
        self.pending_explicit = true;
    }

    /// Called at the end of each cycle; applies a pending explicit
    /// rotation. Returns true if it rotated.
    pub(crate) fn apply_pending(&mut self, now: u64) -> bool {
        if self.pending_explicit {
            self.pending_explicit = false;
            self.rotate(now);
            true
        } else {
            false
        }
    }

    /// Unconditional rotation, used by the machine to skip slots that
    /// no longer host a thread (an empty slot can never execute
    /// `chgpri`, so leaving it at the highest priority would wedge
    /// every interlocked instruction).
    pub(crate) fn force_rotate(&mut self, now: u64) {
        self.rotate(now);
    }

    fn rotate(&mut self, now: u64) {
        self.highest = if self.highest + 1 == self.slots { 0 } else { self.highest + 1 };
        self.last_rotation = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(p: &Priorities) -> Vec<usize> {
        p.order().collect()
    }

    #[test]
    fn initial_order_is_slot_index() {
        let p = Priorities::new(3, RotationMode::Explicit);
        assert_eq!(order(&p), [0, 1, 2]);
        assert_eq!(p.highest(), 0);
    }

    #[test]
    fn implicit_rotation_fires_on_interval() {
        let mut p = Priorities::new(3, RotationMode::Implicit { interval: 4 });
        assert!(!p.tick(0));
        assert!(!p.tick(3));
        assert!(p.tick(4));
        assert_eq!(order(&p), [1, 2, 0]);
        assert!(!p.tick(7));
        assert!(p.tick(8));
        assert_eq!(order(&p), [2, 0, 1]);
    }

    #[test]
    fn rotation_demotes_previous_highest_to_lowest() {
        let mut p = Priorities::new(4, RotationMode::Implicit { interval: 1 });
        p.tick(1);
        assert_eq!(order(&p), [1, 2, 3, 0]);
    }

    #[test]
    fn explicit_rotation_is_deferred_to_cycle_end() {
        let mut p = Priorities::new(2, RotationMode::Explicit);
        p.request_explicit();
        assert_eq!(p.highest(), 0); // not yet applied
        assert!(p.apply_pending(5));
        assert_eq!(p.highest(), 1);
        assert!(!p.apply_pending(6)); // one-shot
    }

    #[test]
    fn explicit_mode_never_rotates_implicitly() {
        let mut p = Priorities::new(2, RotationMode::Explicit);
        for now in 0..100 {
            assert!(!p.tick(now));
        }
        assert_eq!(p.highest(), 0);
    }

    #[test]
    fn set_mode_resets_interval_timer() {
        let mut p = Priorities::new(2, RotationMode::Explicit);
        p.set_mode(RotationMode::Implicit { interval: 8 }, 100);
        assert!(!p.tick(104));
        assert!(p.tick(108));
    }

    #[test]
    fn single_slot_rotation_is_identity() {
        let mut p = Priorities::new(1, RotationMode::Implicit { interval: 1 });
        p.tick(1);
        assert_eq!(order(&p), [0]);
        assert_eq!(p.highest(), 0);
    }
}

/// Property tests (found regressions live in
/// `crates/sim/properties.proptest-regressions`).
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Op codes for a random driver sequence: tick, chgpri
    /// (request + cycle-end apply), forced rotation.
    const TICK: u8 = 0;
    const CHGPRI: u8 = 1;

    proptest! {
        /// However the rotation sources interleave, the priority order
        /// stays a permutation of the slots, and its exact value is
        /// the initial order rotated left once per applied rotation —
        /// so no rotation ever loses or duplicates a priority level.
        #[test]
        fn any_rotation_interleaving_is_a_left_rotation(
            slots in 1usize..9,
            interval in 1u32..6,
            ops in prop::collection::vec(0u8..3, 1..64),
        ) {
            let mut p = Priorities::new(slots, RotationMode::Implicit { interval });
            let mut rotations = 0usize;
            for (now, op) in ops.into_iter().enumerate() {
                let now = now as u64 + 1;
                match op {
                    TICK => rotations += usize::from(p.tick(now)),
                    CHGPRI => {
                        p.request_explicit();
                        rotations += usize::from(p.apply_pending(now));
                    }
                    _ => {
                        p.force_rotate(now);
                        rotations += 1;
                    }
                }
                let mut expected: Vec<usize> = (0..slots).collect();
                expected.rotate_left(rotations % slots);
                prop_assert_eq!(p.order().collect::<Vec<_>>(), expected);
            }
        }

        /// In explicit mode the implicit timer is dead: no amount of
        /// ticking rotates, while a `chgpri` request always applies at
        /// cycle end — exactly once — whatever ticks surround it.
        #[test]
        fn explicit_chgpri_wins_over_implicit(
            slots in 2usize..9,
            ticks_before in 0u64..40,
            ticks_after in 0u64..40,
        ) {
            let mut p = Priorities::new(slots, RotationMode::Explicit);
            let mut now = 0;
            for _ in 0..ticks_before {
                now += 1;
                prop_assert!(!p.tick(now));
            }
            prop_assert_eq!(p.highest(), 0);

            p.request_explicit();
            for _ in 0..ticks_after {
                now += 1;
                prop_assert!(!p.tick(now)); // still no implicit rotation
                prop_assert_eq!(p.highest(), 0); // deferred to cycle end
            }
            prop_assert!(p.apply_pending(now));
            prop_assert_eq!(p.highest(), 1 % slots);
            prop_assert!(!p.apply_pending(now + 1)); // one-shot
        }

        /// `fast_forward_ticks` over `[from, to)` is exactly a
        /// per-cycle `tick` loop: same final state, same rotation
        /// count, from any reachable starting point.
        #[test]
        fn fast_forward_ticks_equals_tick_loop(
            slots in 1usize..9,
            interval in 1u32..6,
            warmup in 0u64..20,
            from_delta in 0u64..4,
            span in 0u64..40,
        ) {
            let mut p = Priorities::new(slots, RotationMode::Implicit { interval });
            for now in 1..=warmup {
                p.tick(now);
            }
            // `from` may sit past the warmup (cycles where tick was
            // provably a no-op can be skipped without calling it).
            let from = warmup + 1 + from_delta;
            let to = from + span;

            let mut looped = p.clone();
            let mut loop_count = 0u64;
            for now in from..to {
                loop_count += u64::from(looped.tick(now));
            }
            let ff_count = p.fast_forward_ticks(from, to);
            prop_assert_eq!(ff_count, loop_count);
            prop_assert_eq!(&p, &looped);
            // Subsequent ticks agree too: the timer state matches.
            for now in to..to + 2 * interval as u64 {
                prop_assert_eq!(p.tick(now), looped.tick(now));
                prop_assert_eq!(&p, &looped);
            }
        }
    }
}
