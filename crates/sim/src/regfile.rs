//! One register bank (the per-context general-purpose + floating-point
//! register set of §2.1.1) together with its scoreboard.
//!
//! The bank names a register by its dense index, the operand byte the
//! predecoded store carries (`crate::predecode`): `r0..r31` at 0..32,
//! then `f0..f31` at 32..64. Issue, capture and writeback therefore
//! read values and ready times with one indexed load each.
//!
//! The scoreboard follows §2.1.2: a destination's bit is flagged when
//! the instruction issues (enters its S stage) and cleared at the end
//! of the last EX stage, so a consumer may issue `result latency + 1`
//! cycles after the producer. We record, per register, the earliest
//! cycle at which a reader's S stage may be scheduled.

use hirata_isa::{FReg, GReg, NUM_FREGS, NUM_GREGS};

/// Sentinel ready-time for "issued but not yet scheduled" — the bit is
/// on but the clearing time is unknown until the schedule unit selects
/// the producer.
const BUSY: u64 = u64::MAX;

/// Registers in a bank.
const NUM_REGS: usize = NUM_GREGS + NUM_FREGS;

/// A register bank: 32 general + 32 floating registers with values and
/// per-register ready times, both by dense index.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegBank {
    /// Raw bit patterns: integers as two's complement, floats as
    /// IEEE-754 bits. r0's entry is never written, so it reads 0.
    bits: [u64; NUM_REGS],
    ready: [u64; NUM_REGS],
}

impl RegBank {
    pub(crate) fn new() -> Self {
        RegBank { bits: [0; NUM_REGS], ready: [0; NUM_REGS] }
    }

    /// True if register `r` can be read by an instruction issuing at
    /// `now`. r0 always is: no write, mark or poke sets its ready time.
    #[inline]
    pub(crate) fn is_ready(&self, r: u8, now: u64) -> bool {
        self.ready[r as usize] <= now
    }

    /// The first cycle at which register `r` can be read ([`u64::MAX`]
    /// while the producer awaits selection). Used to bound stall
    /// blocks.
    #[inline]
    pub(crate) fn ready_time(&self, r: u8) -> u64 {
        self.ready[r as usize]
    }

    /// Marks register `r` busy from issue until the producer is
    /// scheduled.
    pub(crate) fn mark_busy(&mut self, r: u8) {
        if r != 0 {
            self.ready[r as usize] = BUSY;
        }
    }

    /// Writes `bits` to register `r` and sets its ready time (producer
    /// selected at `selected`, result latency `latency`): readers may
    /// issue from cycle `selected + latency + 1`. Writes to r0 are
    /// discarded.
    pub(crate) fn write(&mut self, r: u8, bits: u64, selected: u64, latency: u32) {
        if r != 0 {
            self.bits[r as usize] = bits;
            self.ready[r as usize] = selected + latency as u64 + 1;
        }
    }

    /// True if every register in the bank can be read at `now` — i.e.
    /// no write is outstanding. `fastfork` interlocks on this so the
    /// copied register set is quiescent.
    pub(crate) fn all_ready(&self, now: u64) -> bool {
        self.ready.iter().all(|&r| r <= now)
    }

    /// Reads the raw bit pattern of register `r`.
    #[inline]
    pub(crate) fn read(&self, r: u8) -> u64 {
        self.bits[r as usize]
    }

    /// Directly sets an integer register (used to seed arguments and
    /// by `fastfork`/`lpid` plumbing); leaves it ready immediately.
    pub(crate) fn poke_g(&mut self, reg: GReg, value: i64) {
        if reg != GReg::ZERO {
            self.bits[..NUM_GREGS][reg.0 as usize] = value as u64;
            self.ready[reg.0 as usize] = 0;
        }
    }

    /// Reads an integer register's current value.
    pub(crate) fn peek_g(&self, reg: GReg) -> i64 {
        self.bits[..NUM_GREGS][reg.0 as usize] as i64
    }

    /// Reads a floating register's current value.
    pub(crate) fn peek_f(&self, reg: FReg) -> f64 {
        f64::from_bits(self.bits[NUM_GREGS..][reg.0 as usize])
    }

    /// Directly sets a floating register (test/setup helper).
    pub(crate) fn poke_f(&mut self, reg: FReg, value: f64) {
        self.bits[NUM_GREGS..][reg.0 as usize] = value.to_bits();
        self.ready[NUM_GREGS + reg.0 as usize] = 0;
    }

    /// Copies the architectural state (values only) of `src` into this
    /// bank and clears the scoreboard. Used by `fastfork`, which
    /// interlocks until the parent bank is quiescent
    /// ([`Self::all_ready`]), so dropping the parent's ready times
    /// loses nothing — every register is readable immediately in the
    /// child, exactly as a full clone of a quiescent bank would be.
    pub(crate) fn copy_arch_from(&mut self, src: &RegBank) {
        self.bits = src.bits;
        self.ready = [0; NUM_REGS];
    }

    /// The raw architectural image of the bank: the 32 integer
    /// registers (two's complement) followed by the 32 floating
    /// registers (IEEE-754 bits). Scoreboard state is excluded, so two
    /// banks holding the same values compare equal regardless of
    /// timing history — the basis of differential testing.
    pub(crate) fn image(&self) -> Vec<u64> {
        self.bits.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_isa::Reg;

    /// Dense index of `f{n}`.
    fn f(n: u8) -> u8 {
        NUM_GREGS as u8 + n
    }

    #[test]
    fn read_matches_peek_for_every_register() {
        let mut bank = RegBank::new();
        for n in 1..NUM_GREGS as u8 {
            bank.poke_g(GReg(n), -(n as i64) * 3);
        }
        for n in 0..NUM_FREGS as u8 {
            bank.poke_f(FReg(n), n as f64 * 0.5 - 7.25);
        }
        for i in 0..NUM_REGS as u8 {
            let want = match Reg::from_dense_index(i.into()).unwrap() {
                Reg::G(r) => bank.peek_g(r) as u64,
                Reg::F(r) => bank.peek_f(r).to_bits(),
            };
            assert_eq!(bank.read(i), want, "dense index {i}");
        }
    }

    #[test]
    fn zero_register_is_immutable_and_always_ready() {
        let mut bank = RegBank::new();
        bank.mark_busy(0);
        assert!(bank.is_ready(0, 0));
        bank.write(0, 99, 0, 2);
        assert_eq!(bank.peek_g(GReg::ZERO), 0);
        assert!(bank.is_ready(0, 0));
    }

    #[test]
    fn dependent_separation_is_result_latency_plus_one() {
        let mut bank = RegBank::new();
        bank.mark_busy(5);
        assert!(!bank.is_ready(5, 1000));
        // Producer selected at cycle 10 with ALU result latency 2.
        bank.write(5, 7, 10, 2);
        assert!(!bank.is_ready(5, 12));
        assert!(bank.is_ready(5, 13)); // 10 + 2 + 1
        assert_eq!(bank.peek_g(GReg(5)), 7);
    }

    #[test]
    fn float_bits_round_trip() {
        let mut bank = RegBank::new();
        bank.write(f(2), (-1.5f64).to_bits(), 0, 4);
        assert_eq!(bank.peek_f(FReg(2)), -1.5);
        assert_eq!(bank.read(f(2)), (-1.5f64).to_bits());
    }

    #[test]
    fn g_and_f_files_are_independent() {
        let mut bank = RegBank::new();
        bank.poke_g(GReg(3), 11);
        bank.poke_f(FReg(3), 2.5);
        assert_eq!(bank.peek_g(GReg(3)), 11);
        assert_eq!(bank.peek_f(FReg(3)), 2.5);
        assert!(bank.is_ready(3, 0));
        bank.mark_busy(f(3));
        assert!(bank.is_ready(3, 0));
        assert!(!bank.is_ready(f(3), 0));
    }

    #[test]
    fn negative_integers_survive_bit_transport() {
        let mut bank = RegBank::new();
        bank.write(1, (-123i64) as u64, 0, 2);
        assert_eq!(bank.peek_g(GReg(1)), -123);
        assert_eq!(bank.read(1) as i64, -123);
    }

    /// A zero-latency result is readable from the next cycle, never on
    /// its own (`selected + 0 + 1`).
    #[test]
    fn zero_latency_write_is_ready_on_the_next_cycle() {
        let mut bank = RegBank::new();
        bank.write(9, 5, 20, 0);
        assert!(!bank.is_ready(9, 20));
        assert!(!bank.all_ready(20));
        assert!(bank.is_ready(9, 21));
        assert!(bank.all_ready(21));
    }

    /// `copy_arch_from` (the `fastfork` copy) drops every write the
    /// child still had outstanding, unscheduled or scheduled.
    #[test]
    fn copy_arch_from_drops_the_childs_outstanding_writes() {
        let mut parent = RegBank::new();
        parent.poke_g(GReg(4), 44);
        let mut child = RegBank::new();
        child.mark_busy(17);
        child.write(f(30), 2, 0, 50);
        assert!(!child.all_ready(0));
        child.copy_arch_from(&parent);
        assert!(child.all_ready(0));
        assert!(child.is_ready(17, 0));
        assert!(child.is_ready(f(30), 0));
        assert_eq!(child.peek_g(GReg(4)), 44);
    }

    /// A poke seeds a value architecturally: the register is readable
    /// at once, even with a write to it outstanding.
    #[test]
    fn poke_readies_a_register_with_a_write_outstanding() {
        let mut bank = RegBank::new();
        bank.write(3, 1, 0, 40);
        bank.mark_busy(f(3));
        bank.poke_g(GReg(3), 2);
        assert!(bank.is_ready(3, 0));
        assert!(!bank.all_ready(0));
        bank.poke_f(FReg(3), 2.0);
        assert!(bank.is_ready(f(3), 0));
        assert!(bank.all_ready(0));
    }
}
