//! Run statistics: cycle counts, per-unit utilization (the paper's
//! `U = N x L / T` metric from §1), and an issue-stall breakdown.

use std::fmt;

use hirata_isa::{FuClass, FU_CLASS_COUNT};

/// Why a thread slot failed to issue on a given cycle.
///
/// Exactly one reason is recorded per slot per non-issuing cycle (the
/// reason blocking the oldest instruction in the window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// No thread bound to the slot.
    NoThread,
    /// Instruction buffer empty / waiting on the fetch unit.
    Fetch,
    /// Decode pipeline refilling after a redirect reached the slot —
    /// the tail of the paper's branch shadow (the head, waiting for
    /// the redirected fetch itself, counts as [`StallReason::Fetch`]).
    /// Also covers the context-switch rebind penalty, which flushes
    /// the decode stage the same way.
    BranchShadow,
    /// A source register was not ready (RAW) or the destination was
    /// still busy (WAW).
    Data,
    /// The standby station for the target functional unit was occupied
    /// — or, without standby stations, a previously issued instruction
    /// was still waiting to be selected.
    FuConflict,
    /// Waiting to become the highest-priority logical processor
    /// (`chgpri`, `killothers`, gated stores).
    Priority,
    /// The incoming queue register was empty.
    QueueEmpty,
    /// The outgoing queue register was full.
    QueueFull,
}

impl StallReason {
    /// All reasons, in display order.
    pub const ALL: [StallReason; STALL_REASON_COUNT] = [
        StallReason::NoThread,
        StallReason::Fetch,
        StallReason::BranchShadow,
        StallReason::Data,
        StallReason::FuConflict,
        StallReason::Priority,
        StallReason::QueueEmpty,
        StallReason::QueueFull,
    ];

    /// Position in [`StallReason::ALL`] and in raw counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::NoThread => 0,
            StallReason::Fetch => 1,
            StallReason::BranchShadow => 2,
            StallReason::Data => 3,
            StallReason::FuConflict => 4,
            StallReason::Priority => 5,
            StallReason::QueueEmpty => 6,
            StallReason::QueueFull => 7,
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::NoThread => "no-thread",
            StallReason::Fetch => "fetch",
            StallReason::BranchShadow => "branch-shadow",
            StallReason::Data => "data-dep",
            StallReason::FuConflict => "fu-conflict",
            StallReason::Priority => "priority",
            StallReason::QueueEmpty => "queue-empty",
            StallReason::QueueFull => "queue-full",
        }
    }
}

/// Number of distinct [`StallReason`] variants.
pub const STALL_REASON_COUNT: usize = 8;

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Slot-cycle counts per stall reason.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    counts: [u64; STALL_REASON_COUNT],
}

impl StallBreakdown {
    /// Stalled slot-cycles attributed to `reason`.
    pub fn count(&self, reason: StallReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total stalled slot-cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw per-reason counters, indexed like [`StallReason::ALL`].
    pub fn counts(&self) -> [u64; STALL_REASON_COUNT] {
        self.counts
    }

    /// Rebuilds a breakdown from raw counters (the inverse of
    /// [`StallBreakdown::counts`], used when deserializing cached runs).
    pub fn from_counts(counts: [u64; STALL_REASON_COUNT]) -> Self {
        StallBreakdown { counts }
    }
}

/// Slot-cycles of stalling per reason within one window of
/// [`STALL_WINDOW_CYCLES`] machine cycles. Window `w` covers cycles
/// `[w * STALL_WINDOW_CYCLES, (w + 1) * STALL_WINDOW_CYCLES)`.
pub type StallWindow = [u64; STALL_REASON_COUNT];

/// Width of one stall-attribution window in machine cycles.
pub const STALL_WINDOW_CYCLES: u64 = 1_000;

/// Statistics of one completed (or in-progress) run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Total machine cycles elapsed.
    pub cycles: u64,
    /// Instructions issued (the machine never speculates, so issued
    /// equals committed).
    pub instructions: u64,
    /// Instructions issued per thread slot.
    pub per_slot_issued: Vec<u64>,
    /// Functional-unit invocations per class (the paper's `N`).
    pub fu_invocations: [u64; FU_CLASS_COUNT],
    /// Busy unit-cycles per class (`N x issue latency`, summed over
    /// instances of the class).
    pub fu_busy: [u64; FU_CLASS_COUNT],
    /// Number of unit instances per class.
    pub fu_instances: [u64; FU_CLASS_COUNT],
    /// Issue-stall breakdown in slot-cycles.
    pub stalls: StallBreakdown,
    /// The same breakdown bucketed by [`STALL_WINDOW_CYCLES`]-cycle
    /// windows, in window order. Summing every window reproduces
    /// `stalls` exactly.
    pub stall_windows: Vec<StallWindow>,
    /// Context switches performed (concurrent multithreading).
    pub context_switches: u64,
    /// Threads killed by `killothers`.
    pub threads_killed: u64,
    /// Priority rotations performed by the schedule units.
    pub rotations: u64,
}

impl RunStats {
    /// Utilization of one functional-unit class as defined in §1:
    /// `U = N x L / (T x instances) x 100` percent, 0 when no cycles
    /// have elapsed.
    pub fn utilization(&self, class: FuClass) -> f64 {
        let i = class.index();
        let denom = self.cycles * self.fu_instances[i];
        if denom == 0 {
            0.0
        } else {
            self.fu_busy[i] as f64 / denom as f64 * 100.0
        }
    }

    /// The busiest class by utilization, with its utilization.
    pub fn busiest_unit(&self) -> (FuClass, f64) {
        FuClass::ALL
            .into_iter()
            .map(|c| (c, self.utilization(c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("FuClass::ALL is non-empty")
    }

    /// Issued instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Records `n` stalled slot-cycles at machine time `now` in the
    /// aggregate breakdown and the per-window attribution (none at all
    /// when `n` is zero): once per stalled bound slot, once per run of
    /// unbound slots in a cycle's priority walk, once per window a
    /// wheel span touched.
    #[inline(always)]
    pub(crate) fn record_stalls(&mut self, reason: StallReason, now: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.stalls.counts[reason.index()] += n;
        let window = (now / STALL_WINDOW_CYCLES) as usize;
        self.ensure_windows(window);
        self.stall_windows[window][reason.index()] += n;
    }

    /// Makes sure the per-window table reaches window `last`.
    #[inline(always)]
    fn ensure_windows(&mut self, last: usize) {
        if self.stall_windows.len() <= last {
            self.grow_windows(last);
        }
    }

    /// Grows the per-window table through `last`, reserving in
    /// power-of-two window blocks (floor 64) so the growth points are
    /// sparse: a fast-forward jump covering thousands of cycles stays
    /// allocation-free in steady state instead of hitting the vector's
    /// own amortized doubling mid-measurement.
    #[cold]
    fn grow_windows(&mut self, last: usize) {
        let cap = (last + 1).max(64).next_power_of_two();
        self.stall_windows.reserve_exact(cap - self.stall_windows.len());
        self.stall_windows.resize(last + 1, [0; STALL_REASON_COUNT]);
    }

    /// Records `slots` stalled slot-cycles for every machine cycle in
    /// the half-open span `[from, to)`, as the event wheel skips a run
    /// of provably stalled cycles: one [`RunStats::record_stalls`] per
    /// window the span touches (a span seldom leaves its first).
    pub(crate) fn record_stall_span(
        &mut self,
        reason: StallReason,
        from: u64,
        to: u64,
        slots: u64,
    ) {
        let mut t = from;
        while t < to {
            let end = ((t / STALL_WINDOW_CYCLES + 1) * STALL_WINDOW_CYCLES).min(to);
            self.record_stalls(reason, t, (end - t) * slots);
            t = end;
        }
    }

    /// Formats a utilization table resembling the analyses in §3.2,
    /// followed by the per-window stall-attribution table when any
    /// stalls were recorded.
    pub fn utilization_report(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ =
            writeln!(out, "{:<12} {:>6} {:>12} {:>10}", "unit", "inst", "invocations", "util %");
        for class in FuClass::ALL {
            let i = class.index();
            if self.fu_instances[i] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12} {:>10.1}",
                class.name(),
                self.fu_instances[i],
                self.fu_invocations[i],
                self.utilization(class)
            );
        }
        if self.stalls.total() > 0 && !self.stall_windows.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "stall attribution per {}-cycle window (slot-cycles)",
                STALL_WINDOW_CYCLES
            );
            let _ = write!(out, "{:<10}", "window");
            for reason in StallReason::ALL {
                let _ = write!(out, " {:>13}", reason.name());
            }
            let _ = writeln!(out);
            // Long runs collapse the tail into one `rest` row so the
            // report stays readable at any cycle count.
            const SHOWN: usize = 12;
            for (w, counts) in self.stall_windows.iter().enumerate().take(SHOWN) {
                let _ = write!(out, "{:<10}", w as u64 * STALL_WINDOW_CYCLES);
                for count in counts {
                    let _ = write!(out, " {:>13}", count);
                }
                let _ = writeln!(out);
            }
            if self.stall_windows.len() > SHOWN {
                let mut rest = [0u64; STALL_REASON_COUNT];
                for counts in &self.stall_windows[SHOWN..] {
                    for (acc, count) in rest.iter_mut().zip(counts) {
                        *acc += count;
                    }
                }
                let _ =
                    write!(out, "{:<10}", format!("rest(+{})", self.stall_windows.len() - SHOWN));
                for count in rest {
                    let _ = write!(out, " {:>13}", count);
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_formula_matches_section_1() {
        let mut stats = RunStats { cycles: 100, ..RunStats::default() };
        let i = FuClass::LoadStore.index();
        stats.fu_instances[i] = 1;
        stats.fu_invocations[i] = 30;
        stats.fu_busy[i] = 60; // N x L = 30 x 2
        assert!((stats.utilization(FuClass::LoadStore) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_with_two_instances_halves() {
        let mut stats = RunStats { cycles: 100, ..RunStats::default() };
        let i = FuClass::LoadStore.index();
        stats.fu_instances[i] = 2;
        stats.fu_busy[i] = 60;
        assert!((stats.utilization(FuClass::LoadStore) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn busiest_unit_picks_maximum() {
        let mut stats = RunStats { cycles: 10, ..RunStats::default() };
        for class in FuClass::ALL {
            stats.fu_instances[class.index()] = 1;
        }
        stats.fu_busy[FuClass::FpAdd.index()] = 9;
        stats.fu_busy[FuClass::IntAlu.index()] = 4;
        let (class, util) = stats.busiest_unit();
        assert_eq!(class, FuClass::FpAdd);
        assert!((util - 90.0).abs() < 1e-12);
    }

    #[test]
    fn stall_breakdown_counts() {
        let mut counts = [0; STALL_REASON_COUNT];
        counts[StallReason::Data.index()] = 2;
        counts[StallReason::Fetch.index()] = 1;
        let b = StallBreakdown::from_counts(counts);
        assert_eq!(b.count(StallReason::Data), 2);
        assert_eq!(b.count(StallReason::Fetch), 1);
        assert_eq!(b.count(StallReason::Priority), 0);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn record_stall_buckets_by_window() {
        let mut stats = RunStats::default();
        stats.record_stalls(StallReason::Data, 0, 1);
        stats.record_stalls(StallReason::Data, STALL_WINDOW_CYCLES - 1, 1);
        stats.record_stalls(StallReason::Fetch, STALL_WINDOW_CYCLES, 1);
        stats.record_stalls(StallReason::QueueFull, 5 * STALL_WINDOW_CYCLES + 3, 1);
        assert_eq!(stats.stall_windows.len(), 6);
        assert_eq!(stats.stall_windows[0][StallReason::Data.index()], 2);
        assert_eq!(stats.stall_windows[1][StallReason::Fetch.index()], 1);
        assert_eq!(stats.stall_windows[5][StallReason::QueueFull.index()], 1);
        // The windows sum back to the aggregate breakdown.
        let mut sum = [0u64; STALL_REASON_COUNT];
        for w in &stats.stall_windows {
            for (acc, c) in sum.iter_mut().zip(w) {
                *acc += c;
            }
        }
        assert_eq!(sum, stats.stalls.counts());
    }

    #[test]
    fn record_stall_span_equals_repeated_record_stall() {
        // Spans crossing zero, one, and several window boundaries, for
        // one slot, several, and none.
        let w = STALL_WINDOW_CYCLES;
        for slots in [0, 1, 7] {
            for (from, to) in
                [(0, 0), (3, 7), (0, w), (w - 1, w + 1), (w / 2, 3 * w + 17), (5 * w, 5 * w + 1)]
            {
                let mut spanned = RunStats::default();
                spanned.record_stall_span(StallReason::QueueEmpty, from, to, slots);
                let mut bulk = RunStats::default();
                let mut looped = RunStats::default();
                for t in from..to {
                    bulk.record_stalls(StallReason::QueueEmpty, t, slots);
                    for _ in 0..slots {
                        looped.record_stalls(StallReason::QueueEmpty, t, 1);
                    }
                }
                assert_eq!(spanned, looped, "span [{from}, {to}) x {slots}");
                assert_eq!(bulk, looped, "per-cycle adds [{from}, {to}) x {slots}");
            }
        }
    }

    #[test]
    fn report_appends_window_table_only_when_stalled() {
        let mut stats = RunStats { cycles: 10, ..RunStats::default() };
        stats.fu_instances[FuClass::IntAlu.index()] = 1;
        assert!(!stats.utilization_report().contains("stall attribution"));
        stats.record_stalls(StallReason::BranchShadow, 4, 1);
        let report = stats.utilization_report();
        assert!(report.contains("stall attribution per 1000-cycle window"));
        assert!(report.contains("branch-shadow"));
    }

    #[test]
    fn report_collapses_window_tail() {
        let mut stats = RunStats { cycles: 10, ..RunStats::default() };
        for w in 0..20 {
            stats.record_stalls(StallReason::Data, w * STALL_WINDOW_CYCLES, 1);
        }
        let report = stats.utilization_report();
        assert!(report.contains("rest(+8)"));
    }

    #[test]
    fn empty_stats_are_well_behaved() {
        let stats = RunStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.utilization(FuClass::IntAlu), 0.0);
        let _ = stats.utilization_report();
    }

    #[test]
    fn report_lists_present_units() {
        let mut stats = RunStats { cycles: 10, ..RunStats::default() };
        stats.fu_instances[FuClass::IntAlu.index()] = 1;
        let report = stats.utilization_report();
        assert!(report.contains("int-alu"));
        assert!(!report.contains("fp-div"));
    }
}
