//! Functional-unit occupancy: one release cycle per instance.
//!
//! An instance is free at cycle `now` once its release cycle is at or
//! before `now`; the schedule units take the lowest-numbered free
//! instance of a class (trace events carry instance numbers). Table 1
//! has one instance per class, plus an optional second load/store
//! unit, so a scan over a class's releases is the whole mechanism.
//! The releases live in one slice allocated at construction, so the
//! cycle loop never allocates here.

use hirata_isa::FU_CLASS_COUNT;

/// Per-instance release cycles, flattened by class.
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    /// Class `ci` owns `release[base[ci]..base[ci + 1]]`.
    base: [usize; FU_CLASS_COUNT + 1],
    /// The cycle from which each instance may be acquired again. A
    /// free instance keeps its past release.
    release: Box<[u64]>,
}

impl FuPool {
    /// Builds a pool with `counts[ci]` instances of class `ci`, all
    /// free (release 0).
    pub(crate) fn new(counts: [usize; FU_CLASS_COUNT]) -> Self {
        let mut base = [0; FU_CLASS_COUNT + 1];
        for ci in 0..FU_CLASS_COUNT {
            base[ci + 1] = base[ci] + counts[ci];
        }
        FuPool { base, release: vec![0; base[FU_CLASS_COUNT]].into_boxed_slice() }
    }

    fn class(&self, ci: usize) -> &[u64] {
        &self.release[self.base[ci]..self.base[ci + 1]]
    }

    /// The lowest-numbered instance of class `ci` free at `now`.
    #[inline]
    pub(crate) fn first_free(&self, ci: usize, now: u64) -> Option<usize> {
        self.class(ci).iter().position(|&t| t <= now)
    }

    /// Holds `instance` of class `ci` until cycle `until`: at issue,
    /// and again when the memory path stretches a load/store
    /// occupancy to a slower access.
    #[inline]
    pub(crate) fn occupy(&mut self, ci: usize, instance: usize, until: u64) {
        self.release[self.base[ci] + instance] = until;
    }

    /// The earliest release over all instances of class `ci` (a free
    /// instance contributes its past release), or [`u64::MAX`] for a
    /// class with no instances.
    pub(crate) fn min_release(&self, ci: usize) -> u64 {
        self.class(ci).iter().copied().min().unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_lowest_instance_and_respects_release() {
        let mut pool = FuPool::new([2; FU_CLASS_COUNT]);
        assert_eq!(pool.first_free(0, 5), Some(0));
        pool.occupy(0, 0, 7);
        assert_eq!(pool.first_free(0, 5), Some(1));
        pool.occupy(0, 1, 6);
        assert_eq!(pool.first_free(0, 5), None);
        // Instance 1 releases at 6; instance 0 is still busy until 7.
        assert_eq!(pool.first_free(0, 6), Some(1));
        assert_eq!(pool.first_free(0, 7), Some(0));
        assert_eq!(pool.min_release(0), 6);
        // A stretched occupancy moves the release out.
        pool.occupy(0, 1, 40);
        assert_eq!(pool.first_free(0, 20), Some(0));
        assert_eq!(pool.min_release(0), 7);
    }

    #[test]
    fn a_class_without_instances_is_never_free() {
        let mut counts = [1; FU_CLASS_COUNT];
        counts[3] = 0;
        let pool = FuPool::new(counts);
        assert_eq!(pool.first_free(3, 100), None);
        assert_eq!(pool.min_release(3), u64::MAX);
        assert_eq!(pool.first_free(4, 0), Some(0));
    }
}
