//! The standby stations (§2.1.1, §2.2) and the one owner of their
//! occupancy: per slot and functional-unit class, a FIFO of issued
//! instructions waiting for a unit (depth one in the paper, at most
//! [`crate::MAX_STANDBY_DEPTH`]), all in one buffer sized at
//! construction. No station overflows: `check_issue` refuses an issue
//! to a full one, and `class_taken` allows one issue per class per
//! cycle. Beside the entries it keeps a slot mask per class, a
//! class-occupancy byte and per-slot and machine-wide counts, which
//! push, pop and clear update here and nowhere else; debug builds
//! re-count them every cycle ([`Standby::consistent`]).

use hirata_isa::{Inst, FU_CLASS_COUNT};

use super::InFlight;
use crate::predecode::DecodedInst;
use crate::trace::{set_bits, SlotSet};

impl InFlight {
    /// Placeholder filling unused station capacity; never observable
    /// (stations expose only their first `len` entries).
    fn vacant() -> Self {
        InFlight {
            slot: 0,
            ctx: 0,
            pc: 0,
            di: DecodedInst::of(Inst::Nop),
            vals: [0; 2],
            replayed: false,
            issued_at: 0,
        }
    }
}

/// The stations of every slot, with their occupancy indexes.
#[derive(Debug)]
pub(super) struct Standby {
    /// Station `st = s * FU_CLASS_COUNT + ci` keeps its `len[st]`
    /// entries, oldest first, at the front of
    /// `buf[st * depth..(st + 1) * depth]`.
    buf: Vec<InFlight>,
    len: Vec<u8>,
    depth: usize,
    /// Per class, the slots whose station of that class is non-empty.
    mask: [SlotSet; FU_CLASS_COUNT],
    /// Bit `ci` is set iff `mask[ci]` is non-empty (the seven classes
    /// fit a byte).
    classes: u8,
    /// Entries per slot, all classes.
    slot_count: Vec<u16>,
    /// Entries machine-wide.
    total: usize,
}

impl Standby {
    /// Empty stations for `slots` slots, `depth` entries each.
    pub(super) fn new(slots: usize, depth: usize) -> Self {
        let stations = slots * FU_CLASS_COUNT;
        Standby {
            buf: vec![InFlight::vacant(); stations * depth],
            len: vec![0; stations],
            depth,
            mask: [SlotSet::EMPTY; FU_CLASS_COUNT],
            classes: 0,
            slot_count: vec![0; slots],
            total: 0,
        }
    }

    /// Slot `s`'s station of class `ci`, oldest first. Always inlined:
    /// `check_issue` asks it for every functional-unit instruction.
    #[inline(always)]
    pub(super) fn station(&self, s: usize, ci: usize) -> &[InFlight] {
        let st = s * FU_CLASS_COUNT + ci;
        let base = st * self.depth;
        &self.buf[base..base + self.len[st] as usize]
    }

    /// Appends `f` to slot `s`'s station of class `ci`.
    #[inline(always)]
    pub(super) fn push(&mut self, s: usize, ci: usize, f: InFlight) {
        let st = s * FU_CLASS_COUNT + ci;
        let len = self.len[st] as usize;
        assert!(len < self.depth, "standby station overflow");
        self.buf[st * self.depth + len] = f;
        self.len[st] += 1;
        self.mask[ci].insert(s);
        self.classes |= 1 << ci;
        self.slot_count[s] += 1;
        self.total += 1;
    }

    /// Takes the oldest entry of slot `s`'s station of class `ci`,
    /// which must not be empty.
    #[inline(always)]
    pub(super) fn pop(&mut self, s: usize, ci: usize) -> InFlight {
        let st = s * FU_CLASS_COUNT + ci;
        let base = st * self.depth;
        let len = self.len[st] as usize;
        debug_assert!(len > 0);
        let f = self.buf[base];
        self.buf.copy_within(base + 1..base + len, base);
        self.len[st] -= 1;
        if len == 1 {
            self.emptied(s, ci);
        }
        self.slot_count[s] -= 1;
        self.total -= 1;
        f
    }

    /// Empties slot `s`'s station of class `ci`.
    #[inline]
    pub(super) fn clear(&mut self, s: usize, ci: usize) {
        let n = std::mem::take(&mut self.len[s * FU_CLASS_COUNT + ci]);
        self.emptied(s, ci);
        self.slot_count[s] -= u16::from(n);
        self.total -= usize::from(n);
    }

    /// Drops slot `s`'s station of class `ci`, just emptied, from the
    /// masks.
    #[inline]
    fn emptied(&mut self, s: usize, ci: usize) {
        self.mask[ci].remove(s);
        if self.mask[ci].is_empty() {
            self.classes &= !(1 << ci);
        }
    }

    /// True if any of slot `s`'s stations holds an instruction.
    #[inline]
    pub(super) fn has(&self, s: usize) -> bool {
        self.slot_count[s] > 0
    }

    /// Instructions standing by in slot `s`'s stations.
    #[inline]
    pub(super) fn occupancy(&self, s: usize) -> usize {
        self.slot_count[s] as usize
    }

    /// Instructions standing by machine-wide.
    #[inline]
    pub(super) fn total(&self) -> usize {
        self.total
    }

    /// The slots with class `ci` standing by.
    #[inline]
    pub(super) fn slots_in(&self, ci: usize) -> SlotSet {
        self.mask[ci]
    }

    /// The slots with anything standing by.
    #[inline]
    pub(super) fn slots(&self) -> SlotSet {
        self.mask.iter().fold(SlotSet::EMPTY, |acc, &m| acc.union(m))
    }

    /// The classes with anything standing by, in [`hirata_isa::FuClass::ALL`]
    /// order.
    #[inline]
    pub(super) fn classes(&self) -> impl Iterator<Item = usize> {
        set_bits(self.classes.into())
    }

    /// Debug-build rescan: the masks, the class byte, the per-slot
    /// counts and the total all agree with the stations themselves.
    /// Allocation-free, so the counting-allocator test can run with
    /// debug assertions on.
    #[cfg(debug_assertions)]
    pub(super) fn consistent(&self) -> bool {
        let mut rescan = [SlotSet::EMPTY; FU_CLASS_COUNT];
        let mut total = 0usize;
        let mut counts_ok = true;
        for (s, &count) in self.slot_count.iter().enumerate() {
            let mut slot_count = 0u16;
            for (ci, mask) in rescan.iter_mut().enumerate() {
                let n = self.station(s, ci).len();
                if n > 0 {
                    mask.insert(s);
                }
                slot_count += n as u16;
                total += n;
            }
            counts_ok &= slot_count == count;
        }
        let classes =
            (0..FU_CLASS_COUNT).filter(|&ci| !rescan[ci].is_empty()).fold(0, |m, ci| m | 1 << ci);
        counts_ok && rescan == self.mask && classes == self.classes && total == self.total
    }
}
