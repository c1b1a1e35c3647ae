//! Processor configuration.

use hirata_isa::{FuClass, FuConfig, RotationMode};

/// Maximum standby-station depth the machine supports. The stations
/// are sized to the configured depth once, at construction, and a
/// station's length is a byte; the depth ablation sweep (`1`, `2`,
/// `4`) fits under this bound, and [`Config::validate`] rejects deeper
/// configurations.
pub const MAX_STANDBY_DEPTH: usize = 8;

/// Maximum number of thread slots. Per-slot sets such as the ready
/// frontier and the trace's competitor sets are 64-bit masks
/// ([`crate::trace::SlotSet`]); [`Config::validate`] rejects wider
/// machines.
pub const MAX_THREAD_SLOTS: usize = 64;

/// Which instruction pipeline the processor uses (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// Figure 3(a): `IF1 IF2 D1 D2 S EX.. W` — the multithreaded
    /// logical-processor pipeline (two decode stages plus a schedule
    /// stage; branch shadow of five cycles).
    Multithreaded,
    /// Figure 3(b): `IF1 IF2 D EX.. W` — the baseline superpipelined
    /// RISC (one decode stage; branch shadow of four cycles).
    BaseRisc,
}

impl PipelineKind {
    /// Number of decode stages between a completed fetch and issue.
    pub(crate) fn decode_depth(self) -> u64 {
        match self {
            PipelineKind::Multithreaded => 2,
            PipelineKind::BaseRisc => 1,
        }
    }
}

/// Full static description of a simulated processor.
///
/// Constructors provide the paper's two machines; all fields are
/// public so ablations can deviate from them. [`Config::validate`]
/// checks cross-field invariants and is called by the machine
/// constructor.
///
/// # Examples
///
/// ```
/// use hirata_sim::Config;
/// use hirata_isa::FuConfig;
///
/// // The Table 2 four-slot, two-load/store-unit processor.
/// let cfg = Config::multithreaded(4).with_fu(FuConfig::paper_two_ls());
/// cfg.validate().unwrap();
///
/// // The sequential baseline.
/// let base = Config::base_risc();
/// assert_eq!(base.thread_slots, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Pipeline structure (selects decode depth and branch shadow).
    pub pipeline: PipelineKind,
    /// Number of thread slots `S` (logical processors).
    pub thread_slots: usize,
    /// Per-slot issue width `D` (instruction-window size). `1` is the
    /// paper's preferred design point (§3.3).
    pub issue_width: usize,
    /// The functional-unit pool.
    pub fu: FuConfig,
    /// Whether standby stations are present (§2.1.1).
    pub standby_stations: bool,
    /// Standby-station depth per (slot, unit class). The paper's
    /// stations are "a simple latch whose depth is one"; deeper
    /// stations are an ablation.
    pub standby_depth: usize,
    /// Re-fetch on *not-taken* conditional branches (the paper's
    /// behaviour: the fetch request goes out at the end of D1 either
    /// way, §2.1.2). Disabling gives a fall-through fast path —
    /// an ablation that mostly helps single-thread execution.
    pub refetch_fallthrough: bool,
    /// Initial priority-rotation mode of the schedule units (§2.2).
    pub rotation: RotationMode,
    /// Give every thread slot a private instruction cache and fetch
    /// unit (§3.2's ablation) instead of the shared one.
    pub private_fetch: bool,
    /// Number of context frames (register banks); must be at least
    /// `thread_slots`. Extra frames enable concurrent multithreading
    /// (§2.1.3).
    pub context_frames: usize,
    /// Cycles to rebind a logical processor to a different context
    /// frame on a context switch.
    pub switch_penalty: u32,
    /// Depth of each queue register between adjacent logical
    /// processors (§2.3.1).
    pub queue_capacity: usize,
    /// Data memory size in words.
    pub mem_words: usize,
    /// Instruction-cache access time `C` in cycles (§2.1.1; the paper
    /// uses 2).
    pub icache_cycles: u32,
    /// Watchdog: abort the run after this many cycles.
    pub max_cycles: u64,
}

/// Error from [`Config::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// A machine, or an emulator, of no thread slots.
    pub(crate) fn no_slots() -> Self {
        ConfigError("thread_slots must be at least 1".into())
    }
}

impl Config {
    /// The paper's multithreaded processor with `slots` thread slots,
    /// seven functional units, standby stations, and the Table 2
    /// rotation interval of eight cycles.
    pub fn multithreaded(slots: usize) -> Self {
        Config {
            pipeline: PipelineKind::Multithreaded,
            thread_slots: slots,
            issue_width: 1,
            fu: FuConfig::paper_one_ls(),
            standby_stations: true,
            standby_depth: 1,
            refetch_fallthrough: true,
            rotation: RotationMode::Implicit { interval: 8 },
            private_fetch: false,
            context_frames: slots,
            switch_penalty: 4,
            queue_capacity: 8,
            mem_words: 1 << 20,
            icache_cycles: 2,
            max_cycles: 500_000_000,
        }
    }

    /// The sequential baseline: a single-threaded RISC with the
    /// Figure 3(b) pipeline and the same functional units (§3.1).
    pub fn base_risc() -> Self {
        Config { pipeline: PipelineKind::BaseRisc, ..Config::multithreaded(1) }
    }

    /// A `(D,S)`-processor of §3.3: `slots` thread slots each issuing
    /// up to `width` instructions per cycle. `(D,1)` uses the base
    /// RISC pipeline as in the paper's Table 3 methodology.
    pub fn hybrid(width: usize, slots: usize) -> Self {
        let mut cfg = if slots == 1 { Config::base_risc() } else { Config::multithreaded(slots) };
        cfg.issue_width = width;
        cfg.fu = FuConfig::paper_two_ls();
        cfg
    }

    /// Sets the functional-unit pool.
    pub fn with_fu(mut self, fu: FuConfig) -> Self {
        self.fu = fu;
        self
    }

    /// Disables or enables standby stations.
    pub fn with_standby(mut self, on: bool) -> Self {
        self.standby_stations = on;
        self
    }

    /// Sets the initial rotation mode.
    pub fn with_rotation(mut self, rotation: RotationMode) -> Self {
        self.rotation = rotation;
        self
    }

    /// Enables private per-slot instruction caches and fetch units.
    pub fn with_private_fetch(mut self, on: bool) -> Self {
        self.private_fetch = on;
        self
    }

    /// Sets the number of context frames (for concurrent
    /// multithreading this exceeds `thread_slots`).
    pub fn with_context_frames(mut self, frames: usize) -> Self {
        self.context_frames = frames;
        self
    }

    /// Branch shadow: cycles from a control instruction's issue to the
    /// earliest issue of its successor, with an idle fetch unit
    /// (§2.1.2: four for the base pipeline, five for the multithreaded
    /// one with the paper's two-cycle instruction cache).
    pub fn branch_shadow(&self) -> u64 {
        1 + self.icache_cycles as u64 + self.pipeline.decode_depth()
    }

    /// Instruction-buffer capacity per slot: `B = S x C` words
    /// (§2.1.1), at least one word. For the §3.3 hybrids the fetch
    /// bandwidth scales with the issue width (`D x S` words per
    /// cycle), so the buffer does too.
    pub fn ibuf_words(&self) -> usize {
        (self.thread_slots * self.icache_cycles as usize * self.issue_width).max(1)
    }

    /// Checks cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.thread_slots == 0 {
            return Err(ConfigError::no_slots());
        }
        if self.thread_slots > MAX_THREAD_SLOTS {
            return Err(ConfigError(format!(
                "thread_slots ({}) exceeds the supported maximum ({MAX_THREAD_SLOTS})",
                self.thread_slots
            )));
        }
        if self.issue_width == 0 {
            return Err(ConfigError("issue_width must be at least 1".into()));
        }
        if self.pipeline == PipelineKind::BaseRisc && self.thread_slots != 1 {
            return Err(ConfigError(
                "the base RISC pipeline is single-threaded (thread_slots must be 1)".into(),
            ));
        }
        if self.context_frames < self.thread_slots {
            return Err(ConfigError(format!(
                "context_frames ({}) must be at least thread_slots ({})",
                self.context_frames, self.thread_slots
            )));
        }
        if self.context_frames > self.thread_slots && self.issue_width != 1 {
            return Err(ConfigError(
                "concurrent multithreading (context_frames > thread_slots) requires issue_width 1"
                    .into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError("queue_capacity must be at least 1".into()));
        }
        if self.standby_depth == 0 {
            return Err(ConfigError("standby_depth must be at least 1".into()));
        }
        if self.standby_depth > MAX_STANDBY_DEPTH {
            return Err(ConfigError(format!(
                "standby_depth ({}) exceeds the supported maximum ({MAX_STANDBY_DEPTH})",
                self.standby_depth
            )));
        }
        if self.icache_cycles == 0 {
            return Err(ConfigError("icache_cycles must be at least 1".into()));
        }
        for class in FuClass::ALL {
            if self.fu.count(class) > 64 {
                return Err(ConfigError(format!(
                    "{class:?} instance count ({}) exceeds the supported maximum (64)",
                    self.fu.count(class)
                )));
            }
        }
        if let RotationMode::Implicit { interval: 0 } = self.rotation {
            return Err(ConfigError("rotation interval must be at least 1".into()));
        }
        if self.mem_words == 0 {
            return Err(ConfigError("mem_words must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_isa::FuClass;

    #[test]
    fn paper_shadows() {
        assert_eq!(Config::multithreaded(4).branch_shadow(), 5);
        assert_eq!(Config::base_risc().branch_shadow(), 4);
    }

    #[test]
    fn ibuf_matches_b_equals_s_times_c() {
        assert_eq!(Config::multithreaded(4).ibuf_words(), 8);
        assert_eq!(Config::multithreaded(1).ibuf_words(), 2);
        // Hybrids scale fetch bandwidth with issue width (§3.3).
        assert_eq!(Config::hybrid(4, 2).ibuf_words(), 16);
    }

    #[test]
    fn hybrid_constructor() {
        let cfg = Config::hybrid(2, 4);
        assert_eq!(cfg.issue_width, 2);
        assert_eq!(cfg.thread_slots, 4);
        assert_eq!(cfg.pipeline, PipelineKind::Multithreaded);
        assert_eq!(cfg.fu.count(FuClass::LoadStore), 2);
        cfg.validate().unwrap();

        let wide = Config::hybrid(8, 1);
        assert_eq!(wide.pipeline, PipelineKind::BaseRisc);
        wide.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(Config::multithreaded(0).validate().is_err());

        let mut cfg = Config::base_risc();
        cfg.thread_slots = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = Config::multithreaded(4);
        cfg.context_frames = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = Config::multithreaded(2);
        cfg.issue_width = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = Config::multithreaded(2);
        cfg.rotation = RotationMode::Implicit { interval: 0 };
        assert!(cfg.validate().is_err());

        let mut cfg = Config::multithreaded(2);
        cfg.context_frames = 4;
        cfg.issue_width = 2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn slot_count_is_capped_at_the_slot_mask_width() {
        Config::multithreaded(MAX_THREAD_SLOTS).validate().unwrap();
        let err = Config::multithreaded(MAX_THREAD_SLOTS + 1).validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: thread_slots (65) exceeds the supported maximum (64)"
        );
    }

    #[test]
    fn defaults_are_valid() {
        for s in [1, 2, 4, 8] {
            Config::multithreaded(s).validate().unwrap();
        }
        Config::base_risc().validate().unwrap();
    }
}
