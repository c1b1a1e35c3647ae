//! One register bank (the per-context general-purpose + floating-point
//! register set of §2.1.1) together with its scoreboard.
//!
//! The scoreboard follows §2.1.2: a destination's bit is flagged when
//! the instruction issues (enters its S stage) and cleared at the end
//! of the last EX stage, so a consumer may issue `result latency + 1`
//! cycles after the producer. We record, per register, the earliest
//! cycle at which a reader's S stage may be scheduled.

use hirata_isa::{FReg, GReg, Reg, NUM_FREGS, NUM_GREGS};

/// Sentinel ready-time for "issued but not yet scheduled" — the bit is
/// on but the clearing time is unknown until the schedule unit selects
/// the producer.
const BUSY: u64 = u64::MAX;

/// A register bank: 32 general + 32 floating registers with values and
/// per-register ready times, plus a packed scoreboard summary.
///
/// `repr(C)` fixes the field order hot-first: `check_issue`'s fast
/// path touches only `busy`, operand capture only `gvals`/`fvals`, so
/// those share the leading cache lines while the per-register `ready`
/// times (slow-path and writeback only) trail behind.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct RegBank {
    /// Packed scoreboard: bit `Reg::dense_index` per register — the 32
    /// G regs in the low word half, the 32 F regs in the high half,
    /// the exact layout of `DecodedInst::{src_mask, dest_mask}`. The
    /// mask is a *conservative superset* of the outstanding writes: a
    /// set bit may be stale (the write has completed but no
    /// [`RegBank::refresh`] ran since), but a clear bit guarantees
    /// `ready[r] <= t` for the cycle `t` at which it was cleared —
    /// and machine time is monotonic, so for every later cycle too.
    /// Bit 0 (r0) is never set: r0 writes are discarded.
    busy: u64,
    gvals: [i64; NUM_GREGS],
    fvals: [f64; NUM_FREGS],
    ready: [u64; NUM_GREGS + NUM_FREGS],
}

/// Equality ignores the packed summary: `busy` is a cache over `ready`
/// whose staleness depends on when `refresh` last ran, not on the
/// architectural or timing state being compared.
impl PartialEq for RegBank {
    fn eq(&self, other: &Self) -> bool {
        self.gvals == other.gvals && self.fvals == other.fvals && self.ready == other.ready
    }
}

impl RegBank {
    pub(crate) fn new() -> Self {
        RegBank {
            busy: 0,
            gvals: [0; NUM_GREGS],
            fvals: [0.0; NUM_FREGS],
            ready: [0; NUM_GREGS + NUM_FREGS],
        }
    }

    /// The packed busy mask (possibly stale — see the field docs; call
    /// [`RegBank::refresh`] first for an exact view at a cycle).
    #[inline]
    pub(crate) fn busy(&self) -> u64 {
        self.busy
    }

    /// Drops every busy bit whose write has completed by `now`, making
    /// the mask exact at `now`: afterwards, bit set ⇔ `ready[r] > now`.
    /// Returns the refreshed mask. `now` must not precede an earlier
    /// refresh (machine time is monotonic, so the cycle loop satisfies
    /// this by construction).
    #[inline]
    pub(crate) fn refresh(&mut self, now: u64) -> u64 {
        let mut pending = self.busy;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if self.ready[i] <= now {
                self.busy &= !(1u64 << i);
            }
        }
        debug_assert_eq!(
            self.busy,
            self.recompute_busy(now),
            "refreshed busy mask diverged from the per-register ready times"
        );
        self.busy
    }

    /// Debug/test oracle: the exact busy mask at `now`, recomputed
    /// from the per-register ready times.
    pub(crate) fn recompute_busy(&self, now: u64) -> u64 {
        self.ready
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &r)| if r > now { m | (1u64 << i) } else { m })
    }

    /// True if `reg` can be read by an instruction issuing at `now`.
    pub(crate) fn is_ready(&self, reg: Reg, now: u64) -> bool {
        if reg == Reg::G(GReg::ZERO) {
            return true;
        }
        self.ready[reg.dense_index()] <= now
    }

    /// The first cycle at which `reg` can be read ([`u64::MAX`] while
    /// the producer awaits selection). Used to bound stall blocks.
    pub(crate) fn ready_time(&self, reg: Reg) -> u64 {
        if reg == Reg::G(GReg::ZERO) {
            return 0;
        }
        self.ready[reg.dense_index()]
    }

    /// Marks `reg` busy from issue until the producer is scheduled.
    pub(crate) fn mark_busy(&mut self, reg: Reg) {
        if reg == Reg::G(GReg::ZERO) {
            return;
        }
        self.ready[reg.dense_index()] = BUSY;
        self.busy |= 1u64 << reg.dense_index();
    }

    /// Writes `bits` to `reg` and sets its ready time (producer
    /// selected at `selected`, result latency `latency`): readers may
    /// issue from cycle `selected + latency + 1`.
    pub(crate) fn write(&mut self, reg: Reg, bits: u64, selected: u64, latency: u32) {
        match reg {
            Reg::G(GReg(0)) => return, // r0 is hardwired to zero
            Reg::G(GReg(n)) => self.gvals[n as usize] = bits as i64,
            Reg::F(FReg(n)) => self.fvals[n as usize] = f64::from_bits(bits),
        }
        self.ready[reg.dense_index()] = selected + latency as u64 + 1;
        self.busy |= 1u64 << reg.dense_index();
    }

    /// True if every register in the bank can be read at `now` — i.e.
    /// no write is outstanding. `fastfork` interlocks on this so the
    /// copied register set is quiescent.
    pub(crate) fn all_ready(&self, now: u64) -> bool {
        // An empty (possibly stale-free) busy mask proves quiescence
        // without scanning; a non-empty one may be stale, so fall back
        // to the ready times.
        self.busy == 0 || self.ready.iter().all(|&r| r <= now)
    }

    /// Reads the raw bit pattern of `reg` (integers as two's
    /// complement, floats as IEEE-754 bits).
    pub(crate) fn read_bits(&self, reg: Reg) -> u64 {
        match reg {
            Reg::G(GReg(n)) => self.gvals[n as usize] as u64,
            Reg::F(FReg(n)) => self.fvals[n as usize].to_bits(),
        }
    }

    /// Reads the raw bit pattern of the register at dense index `idx`
    /// (the `Reg::dense_index` layout: G0..G31, then F0..F31). The
    /// Capture plans store source slots in this form, so issue-time
    /// capture is one bound check and one indexed load. `idx` 0 is r0,
    /// whose slot in `gvals` is never written — no zero special-case
    /// needed.
    #[inline]
    pub(crate) fn read_dense(&self, idx: usize) -> u64 {
        if idx < NUM_GREGS {
            self.gvals[idx] as u64
        } else {
            self.fvals[idx - NUM_GREGS].to_bits()
        }
    }

    /// Directly sets an integer register (used to seed arguments and
    /// by `fastfork`/`lpid` plumbing); leaves it ready immediately.
    pub(crate) fn poke_g(&mut self, reg: GReg, value: i64) {
        if reg != GReg::ZERO {
            self.gvals[reg.0 as usize] = value;
            self.ready[Reg::G(reg).dense_index()] = 0;
            self.busy &= !(1u64 << Reg::G(reg).dense_index());
        }
    }

    /// Reads an integer register's current value.
    pub(crate) fn peek_g(&self, reg: GReg) -> i64 {
        self.gvals[reg.0 as usize]
    }

    /// Reads a floating register's current value.
    pub(crate) fn peek_f(&self, reg: FReg) -> f64 {
        self.fvals[reg.0 as usize]
    }

    /// Directly sets a floating register (test/setup helper).
    pub(crate) fn poke_f(&mut self, reg: FReg, value: f64) {
        self.fvals[reg.0 as usize] = value;
        self.ready[Reg::F(reg).dense_index()] = 0;
        self.busy &= !(1u64 << Reg::F(reg).dense_index());
    }

    /// Copies the architectural state (values only) of `src` into this
    /// bank and clears the scoreboard. Used by `fastfork`, which
    /// interlocks until the parent bank is quiescent
    /// ([`Self::all_ready`]), so dropping the parent's ready times
    /// loses nothing — every register is readable immediately in the
    /// child, exactly as a full clone of a quiescent bank would be.
    pub(crate) fn copy_arch_from(&mut self, src: &RegBank) {
        self.gvals = src.gvals;
        self.fvals = src.fvals;
        self.ready = [0; NUM_GREGS + NUM_FREGS];
        self.busy = 0;
    }

    /// The raw architectural image of the bank: the 32 integer
    /// registers (two's complement) followed by the 32 floating
    /// registers (IEEE-754 bits). Scoreboard state is excluded, so two
    /// banks holding the same values compare equal regardless of
    /// timing history — the basis of differential testing.
    pub(crate) fn image(&self) -> Vec<u64> {
        self.gvals
            .iter()
            .map(|&v| v as u64)
            .chain(self.fvals.iter().map(|&v| v.to_bits()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_dense_matches_read_bits_for_every_register() {
        let mut bank = RegBank::new();
        for n in 1..NUM_GREGS as u8 {
            bank.poke_g(GReg(n), -(n as i64) * 3);
        }
        for n in 0..NUM_FREGS as u8 {
            bank.poke_f(FReg(n), n as f64 * 0.5 - 7.25);
        }
        for n in 0..NUM_GREGS as u8 {
            let r = Reg::G(GReg(n));
            assert_eq!(bank.read_dense(r.dense_index()), bank.read_bits(r), "G{n}");
        }
        for n in 0..NUM_FREGS as u8 {
            let r = Reg::F(FReg(n));
            assert_eq!(bank.read_dense(r.dense_index()), bank.read_bits(r), "F{n}");
        }
    }

    #[test]
    fn zero_register_is_immutable_and_always_ready() {
        let mut bank = RegBank::new();
        bank.mark_busy(Reg::G(GReg::ZERO));
        assert!(bank.is_ready(Reg::G(GReg::ZERO), 0));
        bank.write(Reg::G(GReg::ZERO), 99, 0, 2);
        assert_eq!(bank.peek_g(GReg::ZERO), 0);
        assert!(bank.is_ready(Reg::G(GReg::ZERO), 0));
    }

    #[test]
    fn dependent_separation_is_result_latency_plus_one() {
        let mut bank = RegBank::new();
        let r = Reg::G(GReg(5));
        bank.mark_busy(r);
        assert!(!bank.is_ready(r, 1000));
        // Producer selected at cycle 10 with ALU result latency 2.
        bank.write(r, 7, 10, 2);
        assert!(!bank.is_ready(r, 12));
        assert!(bank.is_ready(r, 13)); // 10 + 2 + 1
        assert_eq!(bank.peek_g(GReg(5)), 7);
    }

    #[test]
    fn float_bits_round_trip() {
        let mut bank = RegBank::new();
        let r = Reg::F(FReg(2));
        bank.write(r, (-1.5f64).to_bits(), 0, 4);
        assert_eq!(bank.peek_f(FReg(2)), -1.5);
        assert_eq!(bank.read_bits(r), (-1.5f64).to_bits());
    }

    #[test]
    fn g_and_f_files_are_independent() {
        let mut bank = RegBank::new();
        bank.poke_g(GReg(3), 11);
        bank.poke_f(FReg(3), 2.5);
        assert_eq!(bank.peek_g(GReg(3)), 11);
        assert_eq!(bank.peek_f(FReg(3)), 2.5);
        assert!(bank.is_ready(Reg::G(GReg(3)), 0));
        bank.mark_busy(Reg::F(FReg(3)));
        assert!(bank.is_ready(Reg::G(GReg(3)), 0));
        assert!(!bank.is_ready(Reg::F(FReg(3)), 0));
    }

    #[test]
    fn negative_integers_survive_bit_transport() {
        let mut bank = RegBank::new();
        let r = Reg::G(GReg(1));
        bank.write(r, (-123i64) as u64, 0, 2);
        assert_eq!(bank.peek_g(GReg(1)), -123);
        assert_eq!(bank.read_bits(r) as i64, -123);
    }

    // ------------------------------------------------------------------
    // Pinned busy-mask regressions: sequences that once looked likely
    // to break the conservative-superset contract, kept as exact
    // replays alongside the property tests below.
    // ------------------------------------------------------------------

    /// A write landing on a register still carrying the issue-time
    /// `BUSY` sentinel must leave the bit set until the new ready time
    /// passes — the mark/write pair is the normal producer lifecycle.
    #[test]
    fn pinned_mark_then_write_keeps_bit_until_ready() {
        let mut bank = RegBank::new();
        let r = Reg::F(FReg(7));
        bank.mark_busy(r);
        assert_ne!(bank.busy() & (1 << r.dense_index()), 0);
        bank.write(r, 1, 10, 3);
        // Still outstanding at the write cycle and through latency.
        for now in 10..14 {
            assert_ne!(bank.refresh(now) & (1 << r.dense_index()), 0, "cycle {now}");
        }
        assert_eq!(bank.refresh(14) & (1 << r.dense_index()), 0);
    }

    /// Zero-latency writes clear on the very next cycle, not the same
    /// one (`selected + 0 + 1`).
    #[test]
    fn pinned_zero_latency_write_is_busy_for_one_cycle() {
        let mut bank = RegBank::new();
        let r = Reg::G(GReg(9));
        bank.write(r, 5, 20, 0);
        assert_ne!(bank.refresh(20), 0);
        assert_eq!(bank.refresh(21), 0);
    }

    /// The trap-flush/`fastfork` path (`copy_arch_from`) resets the
    /// child's scoreboard wholesale: stale busy bits from the child's
    /// previous occupant must not leak through.
    #[test]
    fn pinned_copy_arch_from_clears_stale_bits() {
        let mut parent = RegBank::new();
        parent.poke_g(GReg(4), 44);
        let mut child = RegBank::new();
        child.mark_busy(Reg::G(GReg(17)));
        child.write(Reg::F(FReg(30)), 2, 0, 50);
        child.copy_arch_from(&parent);
        assert_eq!(child.busy(), 0);
        assert_eq!(child.recompute_busy(0), 0);
        assert_eq!(child.peek_g(GReg(4)), 44);
    }

    /// A poke to a register with an outstanding write drops the bit —
    /// pokes model architectural seeding, which makes the value ready
    /// immediately.
    #[test]
    fn pinned_poke_clears_outstanding_bit() {
        let mut bank = RegBank::new();
        bank.write(Reg::G(GReg(3)), 1, 0, 40);
        bank.poke_g(GReg(3), 2);
        assert_eq!(bank.busy(), 0);
        bank.write(Reg::F(FReg(3)), 1, 0, 40);
        bank.poke_f(FReg(3), 2.0);
        assert_eq!(bank.busy(), 0);
    }
}

/// Property tests: the packed busy mask against a naive per-register
/// oracle, under arbitrary op interleavings at monotonic times (found
/// regressions would be pinned in
/// `crates/sim/proptest-regressions/regfile.txt`; none so far).
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// One randomized driver op. Times advance monotonically outside
    /// the op stream, mirroring the machine's cycle loop.
    #[derive(Debug, Clone)]
    enum Op {
        /// Producer issued (scoreboard bit on, ready time unknown).
        MarkBusy(u8),
        /// Producer selected: writeback at `now` with a result latency.
        Write(u8, u8),
        /// Architectural seed of an integer register.
        PokeG(u8),
        /// Architectural seed of a floating register.
        PokeF(u8),
        /// Trap-flush / `fastfork` child reset from a quiescent bank.
        CopyFresh,
        /// Lazy exact-ification at the current cycle.
        Refresh,
        /// Advance the clock.
        Tick(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..64).prop_map(Op::MarkBusy),
            ((0u8..64), (0u8..8)).prop_map(|(r, l)| Op::Write(r, l)),
            (0u8..32).prop_map(Op::PokeG),
            (0u8..32).prop_map(Op::PokeF),
            Just(Op::CopyFresh),
            Just(Op::Refresh),
            (1u8..5).prop_map(Op::Tick),
        ]
    }

    fn reg(dense: u8) -> Reg {
        if (dense as usize) < NUM_GREGS {
            Reg::G(GReg(dense))
        } else {
            Reg::F(FReg(dense - NUM_GREGS as u8))
        }
    }

    proptest! {
        /// Whatever the op interleaving, the packed mask stays a
        /// conservative superset of the outstanding writes (a clear
        /// bit is always a sound "no hazard" proof), `refresh` makes
        /// it exact, and bit 0 (r0) never sets.
        #[test]
        fn busy_mask_is_a_sound_superset(
            ops in prop::collection::vec(op_strategy(), 1..80),
        ) {
            let mut bank = RegBank::new();
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::MarkBusy(r) => bank.mark_busy(reg(r)),
                    Op::Write(r, lat) => bank.write(reg(r), 7, now, lat as u32),
                    Op::PokeG(r) => bank.poke_g(GReg(r), 3),
                    Op::PokeF(r) => bank.poke_f(FReg(r), 0.5),
                    Op::CopyFresh => bank.copy_arch_from(&RegBank::new()),
                    Op::Refresh => {
                        let refreshed = bank.refresh(now);
                        prop_assert_eq!(refreshed, bank.recompute_busy(now));
                    }
                    Op::Tick(dt) => now += dt as u64,
                }
                // Superset: every truly-outstanding write is flagged.
                let exact = bank.recompute_busy(now);
                prop_assert_eq!(
                    exact & !bank.busy(), 0,
                    "clear busy bit on an outstanding write at {}", now
                );
                // r0 is hardwired: never busy, never written.
                prop_assert_eq!(bank.busy() & 1, 0);
                prop_assert!(bank.is_ready(Reg::G(GReg::ZERO), now));
            }
        }

        /// The `check_issue` fast-path contract, stated directly: if
        /// an operand mask misses the (possibly stale) busy mask, then
        /// every register in it is ready — under any op history.
        #[test]
        fn clear_mask_bits_prove_readiness(
            ops in prop::collection::vec(op_strategy(), 1..60),
            probe in prop::collection::vec(0u8..64, 1..4),
        ) {
            let mut bank = RegBank::new();
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::MarkBusy(r) => bank.mark_busy(reg(r)),
                    Op::Write(r, lat) => bank.write(reg(r), 7, now, lat as u32),
                    Op::PokeG(r) => bank.poke_g(GReg(r), 3),
                    Op::PokeF(r) => bank.poke_f(FReg(r), 0.5),
                    Op::CopyFresh => bank.copy_arch_from(&RegBank::new()),
                    Op::Refresh => { bank.refresh(now); }
                    Op::Tick(dt) => now += dt as u64,
                }
                let mask: u64 = probe.iter().fold(0u64, |m, &r| m | (1u64 << r));
                if mask & bank.busy() == 0 {
                    for &r in &probe {
                        prop_assert!(
                            bank.is_ready(reg(r), now),
                            "fast path missed a hazard on dense index {} at {}", r, now
                        );
                    }
                }
            }
        }
    }
}
