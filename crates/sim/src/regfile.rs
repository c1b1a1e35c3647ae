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
/// per-register ready times.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegBank {
    gvals: [i64; NUM_GREGS],
    fvals: [f64; NUM_FREGS],
    ready: [u64; NUM_GREGS + NUM_FREGS],
}

impl RegBank {
    pub(crate) fn new() -> Self {
        RegBank {
            gvals: [0; NUM_GREGS],
            fvals: [0.0; NUM_FREGS],
            ready: [0; NUM_GREGS + NUM_FREGS],
        }
    }

    /// True if `reg` can be read by an instruction issuing at `now`.
    /// r0 always is: no write, mark or poke sets its ready time.
    pub(crate) fn is_ready(&self, reg: Reg, now: u64) -> bool {
        self.ready[reg.dense_index()] <= now
    }

    /// The first cycle at which `reg` can be read ([`u64::MAX`] while
    /// the producer awaits selection). Used to bound stall blocks.
    pub(crate) fn ready_time(&self, reg: Reg) -> u64 {
        self.ready[reg.dense_index()]
    }

    /// Marks `reg` busy from issue until the producer is scheduled.
    pub(crate) fn mark_busy(&mut self, reg: Reg) {
        if reg == Reg::G(GReg::ZERO) {
            return;
        }
        self.ready[reg.dense_index()] = BUSY;
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
    }

    /// True if every register in the bank can be read at `now` — i.e.
    /// no write is outstanding. `fastfork` interlocks on this so the
    /// copied register set is quiescent.
    pub(crate) fn all_ready(&self, now: u64) -> bool {
        self.ready.iter().all(|&r| r <= now)
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

    /// A zero-latency result is readable from the next cycle, never on
    /// its own (`selected + 0 + 1`).
    #[test]
    fn zero_latency_write_is_ready_on_the_next_cycle() {
        let mut bank = RegBank::new();
        let r = Reg::G(GReg(9));
        bank.write(r, 5, 20, 0);
        assert!(!bank.is_ready(r, 20));
        assert!(!bank.all_ready(20));
        assert!(bank.is_ready(r, 21));
        assert!(bank.all_ready(21));
    }

    /// `copy_arch_from` (the `fastfork` copy) drops every write the
    /// child still had outstanding, unscheduled or scheduled.
    #[test]
    fn copy_arch_from_drops_the_childs_outstanding_writes() {
        let mut parent = RegBank::new();
        parent.poke_g(GReg(4), 44);
        let mut child = RegBank::new();
        child.mark_busy(Reg::G(GReg(17)));
        child.write(Reg::F(FReg(30)), 2, 0, 50);
        assert!(!child.all_ready(0));
        child.copy_arch_from(&parent);
        assert!(child.all_ready(0));
        assert!(child.is_ready(Reg::G(GReg(17)), 0));
        assert!(child.is_ready(Reg::F(FReg(30)), 0));
        assert_eq!(child.peek_g(GReg(4)), 44);
    }

    /// A poke seeds a value architecturally: the register is readable
    /// at once, even with a write to it outstanding.
    #[test]
    fn poke_readies_a_register_with_a_write_outstanding() {
        let mut bank = RegBank::new();
        bank.write(Reg::G(GReg(3)), 1, 0, 40);
        bank.mark_busy(Reg::F(FReg(3)));
        bank.poke_g(GReg(3), 2);
        assert!(bank.is_ready(Reg::G(GReg(3)), 0));
        assert!(!bank.all_ready(0));
        bank.poke_f(FReg(3), 2.0);
        assert!(bank.is_ready(Reg::F(FReg(3)), 0));
        assert!(bank.all_ready(0));
    }
}
