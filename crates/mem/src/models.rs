//! Data-memory timing models.
//!
//! The simulator consults a [`DataMemModel`] once per load/store to
//! learn how the access behaves in time; the architectural data
//! transfer itself always goes through [`crate::Memory`].

/// Outcome of a timed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The access completes after `latency` cycles (a cache hit, or a
    /// miss that merely stalls).
    Hit {
        /// Access time in cycles.
        latency: u32,
    },
    /// The data is absent locally (remote DSM access): the paper's
    /// *data absence trap* (§2.1.3). The thread should be switched out
    /// and resumed once `ready_after` cycles have elapsed.
    Absent {
        /// Cycles until the remote access completes.
        ready_after: u64,
    },
}

/// Counters kept by every model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit (including slow local misses).
    pub hits: u64,
    /// Finite-cache misses.
    pub misses: u64,
    /// Accesses that raised a data-absence trap.
    pub absences: u64,
}

impl MemStats {
    /// Miss ratio over all accesses, 0.0 when there were none.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A data-memory timing model.
///
/// This trait is sealed in spirit — the simulator works with any
/// implementation, but the three models here cover the paper plus its
/// announced extensions.
pub trait DataMemModel {
    /// Classifies the access to word `addr` at time `now`.
    fn access(&mut self, addr: u64, write: bool, now: u64) -> Access;

    /// Statistics accumulated so far.
    fn stats(&self) -> MemStats;
}

/// The paper's §3.1 assumption: every access hits in the data cache in
/// a fixed number of cycles (two, matching the 2-cycle cache of
/// §2.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdealCache {
    latency: u32,
    stats: MemStats,
}

impl IdealCache {
    /// Creates an always-hit model with the given access latency.
    pub fn new(latency: u32) -> Self {
        IdealCache { latency, stats: MemStats::default() }
    }
}

impl Default for IdealCache {
    /// The paper's two-cycle data cache.
    fn default() -> Self {
        IdealCache::new(2)
    }
}

impl DataMemModel for IdealCache {
    fn access(&mut self, _addr: u64, _write: bool, _now: u64) -> Access {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        Access::Hit { latency: self.latency }
    }

    fn stats(&self) -> MemStats {
        self.stats
    }
}

/// Direct-mapped finite data cache (the §5 "finite cache effects"
/// extension). Write-allocate; misses stall the load/store unit for
/// `miss_latency` cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteCache {
    line_words: u64,
    tags: Vec<Option<u64>>,
    hit_latency: u32,
    miss_latency: u32,
    stats: MemStats,
}

impl FiniteCache {
    /// Creates a direct-mapped cache.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `line_words` is zero, or if either is not a
    /// power of two (index/offset extraction requires it).
    pub fn new(lines: usize, line_words: u64, hit_latency: u32, miss_latency: u32) -> Self {
        assert!(lines > 0 && lines.is_power_of_two(), "lines must be a power of two");
        assert!(
            line_words > 0 && line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        FiniteCache {
            line_words,
            tags: vec![None; lines],
            hit_latency,
            miss_latency,
            stats: MemStats::default(),
        }
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_words;
        ((line as usize) & (self.tags.len() - 1), line)
    }

    /// True if `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (index, tag) = self.index_and_tag(addr);
        self.tags[index] == Some(tag)
    }
}

impl DataMemModel for FiniteCache {
    fn access(&mut self, addr: u64, _write: bool, _now: u64) -> Access {
        self.stats.accesses += 1;
        let (index, tag) = self.index_and_tag(addr);
        if self.tags[index] == Some(tag) {
            self.stats.hits += 1;
            Access::Hit { latency: self.hit_latency }
        } else {
            self.stats.misses += 1;
            self.tags[index] = Some(tag);
            Access::Hit { latency: self.miss_latency }
        }
    }

    fn stats(&self) -> MemStats {
        self.stats
    }
}

/// Distributed-shared-memory model for concurrent multithreading
/// (§2.1.3): word addresses at or above `remote_base` live on a remote
/// node and raise a data-absence trap with a long completion time;
/// local addresses hit in `local_latency` cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmMemory {
    remote_base: u64,
    local_latency: u32,
    remote_latency: u64,
    stats: MemStats,
}

impl DsmMemory {
    /// Creates a DSM model. Accesses to `addr >= remote_base` are
    /// remote and complete `remote_latency` cycles after they start.
    pub fn new(remote_base: u64, local_latency: u32, remote_latency: u64) -> Self {
        DsmMemory { remote_base, local_latency, remote_latency, stats: MemStats::default() }
    }

    /// The first remote word address.
    pub fn remote_base(&self) -> u64 {
        self.remote_base
    }
}

impl DataMemModel for DsmMemory {
    fn access(&mut self, addr: u64, _write: bool, _now: u64) -> Access {
        self.stats.accesses += 1;
        if addr >= self.remote_base {
            self.stats.absences += 1;
            Access::Absent { ready_after: self.remote_latency }
        } else {
            self.stats.hits += 1;
            Access::Hit { latency: self.local_latency }
        }
    }

    fn stats(&self) -> MemStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_cache_always_hits_in_two_cycles() {
        let mut c = IdealCache::default();
        for addr in [0u64, 7, 1 << 40] {
            assert_eq!(c.access(addr, false, 0), Access::Hit { latency: 2 });
        }
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 3);
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn finite_cache_miss_then_hit() {
        let mut c = FiniteCache::new(4, 4, 2, 20);
        assert_eq!(c.access(0, false, 0), Access::Hit { latency: 20 });
        assert_eq!(c.access(1, false, 1), Access::Hit { latency: 2 }); // same line
        assert_eq!(c.access(4, false, 2), Access::Hit { latency: 20 }); // next line
        assert!(c.contains(0));
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn finite_cache_conflict_evicts() {
        // 2 lines x 1 word: addresses 0 and 2 conflict on index 0.
        let mut c = FiniteCache::new(2, 1, 1, 10);
        c.access(0, false, 0);
        c.access(2, false, 1);
        assert!(!c.contains(0));
        assert_eq!(c.access(0, false, 2), Access::Hit { latency: 10 });
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn finite_cache_rejects_non_power_of_two() {
        FiniteCache::new(3, 4, 1, 10);
    }

    #[test]
    fn dsm_splits_local_and_remote() {
        let mut m = DsmMemory::new(1000, 2, 80);
        assert_eq!(m.access(999, false, 0), Access::Hit { latency: 2 });
        assert_eq!(m.access(1000, true, 0), Access::Absent { ready_after: 80 });
        assert_eq!(m.stats().absences, 1);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.remote_base(), 1000);
    }

    #[test]
    fn miss_ratio_empty_is_zero() {
        assert_eq!(MemStats::default().miss_ratio(), 0.0);
    }
}
