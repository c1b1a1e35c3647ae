//! Functional-unit occupancy tracking as a calendar ring.
//!
//! PR 3's `fu_next: [Vec<u64>; FU_CLASS_COUNT]` answered "is an
//! instance of class C free at cycle `now`?" with a linear scan of
//! per-instance release times — once per standby-station drain
//! attempt, every cycle, for every competing class. This module keeps
//! the same information in a shape where both hot questions are O(1):
//!
//! * **acquire**: a per-class `free` bitmask; the lowest free instance
//!   is one `trailing_zeros`. Bit order equals instance order, so the
//!   selected instance is byte-identical to the old
//!   `position(|&t| t <= now)` scan (trace events carry instance
//!   numbers, so this matters for parity).
//! * **completion**: busy instances sit in a calendar ring bucketed by
//!   `release % RING`; [`FuPool::advance`] pops only the buckets whose
//!   cycles elapsed since the last call — O(occupied buckets), not
//!   O(instances) — and frees every entry whose release has passed.
//!
//! Release times remain authoritative in a flat `release` array that
//! is *never cleared*: a free instance keeps its stale past release,
//! exactly like the old `Vec` did, so [`FuPool::min_release`] (the
//! event wheel's standby-front horizon) reproduces the old
//! `fu_next[ci].iter().min()` bit-for-bit.
//!
//! Two wrinkles keep the ring honest without eager maintenance:
//!
//! * **Lazy re-bucketing.** The memory path *postpones* a LoadStore
//!   instance's release after it already entered a bucket (cache-miss
//!   latency exceeding the issue latency). [`FuPool::postpone`] only
//!   rewrites the release time; the stale bucket entry re-buckets
//!   itself when popped (release still in the future ⇒ push to
//!   `release % RING`). Releases further than `RING` cycles out simply
//!   take extra bounded re-bucket hops.
//! * **Capped sweeps.** A fast-forward jump can advance time by far
//!   more than `RING` cycles; draining `min(elapsed, RING)` buckets
//!   visits every bucket at most once and therefore examines every
//!   busy entry against the new `now`.
//!
//! Everything is allocated once at construction (two boxed slices
//! sized by the total instance count); steady-state operation is
//! allocation-free, which `alloc_free.rs` proves under the counting
//! allocator.

use hirata_isa::FU_CLASS_COUNT;

/// Calendar-ring size. Must exceed the largest *issue* latency (2
/// cycles in Table 1) so a fresh occupancy never lands in the bucket
/// being drained; postponed releases beyond the ring wrap and
/// re-bucket lazily.
const RING: usize = 32;

/// Intrusive-list terminator for `next`/`heads`.
const NONE: u32 = u32::MAX;

/// Per-class functional-unit occupancy with O(1) acquire and
/// O(occupied buckets) completion pop. See the module docs for the
/// invariants; the debug builds re-derive the free masks from the
/// release array after every [`FuPool::advance`].
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    /// Bit `i` set ⇔ instance `i` of the class is free as of the last
    /// [`FuPool::advance`] (exact at that cycle: occupancy clears the
    /// bit immediately, release sets it during the drain).
    free: [u64; FU_CLASS_COUNT],
    /// Flattened-instance offsets: class `ci` owns
    /// `base[ci]..base[ci + 1]`.
    base: [u32; FU_CLASS_COUNT + 1],
    /// Authoritative per-instance release time, *kept stale* once the
    /// instance frees (mirrors the old `fu_next` vectors so
    /// [`FuPool::min_release`] is bit-compatible with their `min()`).
    release: Box<[u64]>,
    /// Intrusive bucket links over flattened instances.
    next: Box<[u32]>,
    /// Bucket heads, indexed by `release % RING`.
    heads: [u32; RING],
    /// The cycle through which buckets have been drained.
    drained: u64,
}

impl FuPool {
    /// Builds a pool with `counts[ci]` instances of class `ci`, all
    /// free with release time 0 (the old vectors' initial state).
    /// `Config::validate` bounds each count at 64 (the free-mask
    /// width).
    pub(crate) fn new(counts: [usize; FU_CLASS_COUNT]) -> Self {
        let mut base = [0u32; FU_CLASS_COUNT + 1];
        for ci in 0..FU_CLASS_COUNT {
            debug_assert!(counts[ci] <= 64, "instance count exceeds the free-mask width");
            base[ci + 1] = base[ci] + counts[ci] as u32;
        }
        let total = base[FU_CLASS_COUNT] as usize;
        let mut free = [0u64; FU_CLASS_COUNT];
        for ci in 0..FU_CLASS_COUNT {
            // Low `count` bits set; count == 64 would overflow `<<`.
            free[ci] = match counts[ci] {
                64 => u64::MAX,
                n => (1u64 << n) - 1,
            };
        }
        FuPool {
            free,
            base,
            release: vec![0; total].into_boxed_slice(),
            next: vec![NONE; total].into_boxed_slice(),
            heads: [NONE; RING],
            drained: 0,
        }
    }

    /// Drains every bucket whose cycle elapsed since the previous
    /// call, freeing instances whose release has passed and lazily
    /// re-bucketing postponed ones. Must run before any
    /// [`FuPool::first_free`] query at `now`; the cycle loop calls it
    /// once at the top of arbitration.
    pub(crate) fn advance(&mut self, now: u64) {
        if now > self.drained {
            // Draining more than RING buckets revisits them; cap the
            // sweep — one full revolution examines every busy entry.
            let span = (now - self.drained).min(RING as u64);
            for t in (now - span + 1)..=now {
                let bucket = (t % RING as u64) as usize;
                let mut cur = self.heads[bucket];
                self.heads[bucket] = NONE;
                while cur != NONE {
                    let idx = cur as usize;
                    let after = self.next[idx];
                    if self.release[idx] <= now {
                        let ci = self.class_of(idx);
                        self.free[ci] |= 1u64 << (idx - self.base[ci] as usize);
                        self.next[idx] = NONE;
                    } else {
                        // Postponed past this bucket's cycle: re-home
                        // it under its current release.
                        let nb = (self.release[idx] % RING as u64) as usize;
                        self.next[idx] = self.heads[nb];
                        self.heads[nb] = cur;
                    }
                    cur = after;
                }
            }
            self.drained = now;
        }
        debug_assert!(self.free_masks_consistent(now), "free masks diverged from release times");
    }

    /// The lowest-numbered free instance of class `ci`, if any —
    /// byte-compatible with the old `position(|&t| t <= now)` scan
    /// (the caller must have [`FuPool::advance`]d to `now` first).
    #[inline]
    pub(crate) fn first_free(&self, ci: usize) -> Option<usize> {
        match self.free[ci] {
            0 => None,
            mask => Some(mask.trailing_zeros() as usize),
        }
    }

    /// Marks `instance` of class `ci` busy until `until` (exclusive of
    /// acquisition: readers at cycles ≥ `until` may reacquire it).
    pub(crate) fn occupy(&mut self, ci: usize, instance: usize, until: u64) {
        debug_assert!(
            until > self.drained,
            "occupancy must release in the future (until {until}, drained {})",
            self.drained
        );
        let idx = self.base[ci] as usize + instance;
        debug_assert_ne!(self.free[ci] & (1u64 << instance), 0, "instance already busy");
        self.free[ci] &= !(1u64 << instance);
        self.release[idx] = until;
        let bucket = (until % RING as u64) as usize;
        self.next[idx] = self.heads[bucket];
        self.heads[bucket] = idx as u32;
    }

    /// Extends a busy instance's release to `until` without touching
    /// its bucket entry (the memory path stretching a LoadStore
    /// occupancy to a cache-miss latency). The stale entry re-buckets
    /// when popped.
    pub(crate) fn postpone(&mut self, ci: usize, instance: usize, until: u64) {
        debug_assert_eq!(self.free[ci] & (1u64 << instance), 0, "postponing a free instance");
        self.release[self.base[ci] as usize + instance] = until;
    }

    /// The earliest release time over *all* instances of class `ci`
    /// (free instances contribute their stale past release), or
    /// [`u64::MAX`] for a class with no instances — exactly the old
    /// `fu_next[ci].iter().min()` the event wheel's standby-front
    /// horizon analysis was built on.
    pub(crate) fn min_release(&self, ci: usize) -> u64 {
        let lo = self.base[ci] as usize;
        let hi = self.base[ci + 1] as usize;
        self.release[lo..hi].iter().copied().min().unwrap_or(u64::MAX)
    }

    /// The class owning flattened instance `idx`.
    fn class_of(&self, idx: usize) -> usize {
        debug_assert!(idx < self.base[FU_CLASS_COUNT] as usize);
        (0..FU_CLASS_COUNT)
            .find(|&ci| idx < self.base[ci + 1] as usize)
            .expect("flattened index within some class")
    }

    /// Debug oracle: every free bit agrees with its release time, and
    /// every busy instance is linked in some bucket. Allocation-free
    /// (per-class bitmasks) so the `alloc_free.rs` proof holds in
    /// debug builds too.
    fn free_masks_consistent(&self, now: u64) -> bool {
        let mut linked = [0u64; FU_CLASS_COUNT];
        for head in self.heads {
            let mut cur = head;
            while cur != NONE {
                let ci = self.class_of(cur as usize);
                linked[ci] |= 1u64 << (cur as usize - self.base[ci] as usize);
                cur = self.next[cur as usize];
            }
        }
        (0..FU_CLASS_COUNT).all(|ci| {
            (self.base[ci]..self.base[ci + 1]).all(|idx| {
                let i = (idx - self.base[ci]) as usize;
                let is_free = self.free[ci] & (1u64 << i) != 0;
                let released = self.release[idx as usize] <= now;
                is_free == released && (is_free || linked[ci] & (1u64 << i) != 0)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n: usize) -> [usize; FU_CLASS_COUNT] {
        [n; FU_CLASS_COUNT]
    }

    /// The reference model the ring must match: plain per-instance
    /// release vectors scanned linearly (PR 3's representation).
    #[derive(Clone)]
    struct NaivePool {
        next: Vec<Vec<u64>>,
    }

    impl NaivePool {
        fn new(counts: [usize; FU_CLASS_COUNT]) -> Self {
            NaivePool { next: counts.iter().map(|&n| vec![0u64; n]).collect() }
        }

        fn first_free(&self, ci: usize, now: u64) -> Option<usize> {
            self.next[ci].iter().position(|&t| t <= now)
        }

        fn min_release(&self, ci: usize) -> u64 {
            self.next[ci].iter().copied().min().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn acquire_prefers_lowest_instance_and_respects_release() {
        let mut pool = FuPool::new(counts(2));
        pool.advance(5);
        assert_eq!(pool.first_free(0), Some(0));
        pool.occupy(0, 0, 7);
        assert_eq!(pool.first_free(0), Some(1));
        pool.occupy(0, 1, 6);
        assert_eq!(pool.first_free(0), None);
        pool.advance(6);
        // Instance 1 released at 6; instance 0 still busy until 7.
        assert_eq!(pool.first_free(0), Some(1));
        pool.advance(7);
        assert_eq!(pool.first_free(0), Some(0));
    }

    #[test]
    fn min_release_keeps_stale_values_like_the_old_vectors() {
        let mut pool = FuPool::new(counts(2));
        pool.advance(10);
        pool.occupy(3, 0, 12);
        pool.occupy(3, 1, 40);
        assert_eq!(pool.min_release(3), 12);
        pool.advance(20);
        // Instance 0 freed at 12 but its stale release still anchors
        // the minimum, exactly as `fu_next[ci].iter().min()` did.
        assert_eq!(pool.min_release(3), 12);
    }

    #[test]
    fn postponed_release_survives_ring_wraps() {
        let mut pool = FuPool::new(counts(1));
        pool.advance(1);
        pool.occupy(6, 0, 3);
        // Cache miss stretches the occupancy far past RING.
        pool.postpone(6, 0, 3 + 3 * RING as u64);
        for t in 2..3 + 3 * RING as u64 {
            pool.advance(t);
            assert_eq!(pool.first_free(6), None, "freed early at cycle {t}");
        }
        pool.advance(3 + 3 * RING as u64);
        assert_eq!(pool.first_free(6), Some(0));
    }

    #[test]
    fn fast_forward_jumps_free_everything_due() {
        let mut pool = FuPool::new(counts(3));
        pool.advance(1);
        for i in 0..3 {
            pool.occupy(2, i, 2 + i as u64);
        }
        // Jump far past every release in one advance (several RING
        // revolutions), as the event wheel does.
        pool.advance(1000);
        assert_eq!(pool.first_free(2), Some(0));
        pool.occupy(2, 0, 1001);
        assert_eq!(pool.first_free(2), Some(1));
    }

    /// Randomized lockstep against the naive scan: interleaved
    /// advances (including big jumps), acquires, and postpones must
    /// agree on the chosen instance and the class minimum at every
    /// step.
    #[test]
    fn lockstep_with_naive_model() {
        // Deterministic xorshift so the test needs no external crates.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pool = FuPool::new([3, 1, 2, 1, 1, 1, 2]);
        let mut naive = NaivePool::new([3, 1, 2, 1, 1, 1, 2]);
        let mut now = 0u64;
        for step in 0..2000 {
            now += match rng() % 8 {
                0 => 40 + rng() % 100, // fast-forward jump
                1..=4 => 1,
                _ => 0,
            };
            pool.advance(now);
            let ci = (rng() % FU_CLASS_COUNT as u64) as usize;
            assert_eq!(
                pool.first_free(ci),
                naive.first_free(ci, now),
                "acquire divergence at step {step}, cycle {now}, class {ci}"
            );
            if let Some(i) = pool.first_free(ci) {
                let until = now + 1 + rng() % 2;
                pool.occupy(ci, i, until);
                naive.next[ci][i] = until;
                if ci == 6 && rng() % 4 == 0 {
                    let far = now + 1 + rng() % 90;
                    if far > until {
                        pool.postpone(ci, i, far);
                        naive.next[ci][i] = far;
                    }
                }
            }
            for c in 0..FU_CLASS_COUNT {
                assert_eq!(
                    pool.min_release(c),
                    naive.min_release(c),
                    "min_release divergence at step {step}, class {c}"
                );
            }
        }
    }
}
