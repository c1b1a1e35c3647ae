//! Host speed. The measuring host is a shared virtual machine whose
//! speed drifts over minutes (the reference loop's fastest time ranged
//! 520-750 us across runs), so the same code reads slower or faster
//! from one run to the next. The benchmark therefore times a
//! fixed reference loop of its own between ops and scales every time
//! it reports to the loop's nominal time, [`Reference::nominal_secs`]
//! (see `README.md`).
//!
//! The loop is a small register interpreter — table dispatch,
//! data-dependent branches, loads and stores in a 256 KiB table — so
//! it slows with the host the way the simulator does. A workload whose
//! ops keep two threads busy (the daemon's two simulation workers) is
//! scaled by the loop run on two threads at once, which also slows
//! when the host gives the second vCPU less time. The loop lives in the
//! benchmark, so no change to the program can speed it up or slow it
//! down.

use std::hint::black_box;
use std::time::Instant;

use crate::SplitMix64;

/// Nominal time of one timing on one thread, and on two threads at
/// once: round figures near the loop's fastest times on the host the
/// bounds were fixed on (Intel Xeon, 2 vCPUs). They set the level of
/// the reported times, not their spread.
const NOMINAL_SECS: [f64; 2] = [0.000_60, 0.000_75];

/// Interpreted steps per timing.
const STEPS: usize = 300_000;
/// Instructions in the interpreted program.
const CODE_LEN: usize = 4096;
/// Words of interpreter memory (256 KiB).
const MEM_WORDS: usize = 1 << 15;

/// The reference loop on one or two threads.
pub struct Reference {
    loops: Vec<Loop>,
}

impl Reference {
    /// The loop on `threads` threads (1 or 2).
    ///
    /// # Panics
    ///
    /// If `threads` is not 1 or 2.
    pub fn new(threads: usize) -> Self {
        assert!((1..=NOMINAL_SECS.len()).contains(&threads), "1 or 2 reference threads");
        Reference { loops: (0..threads).map(|_| Loop::new()).collect() }
    }

    /// Runs the loop once on every thread at the same time; returns
    /// the wall time until all end, in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        match self.loops.as_mut_slice() {
            [one] => one.run(),
            [first, rest @ ..] => std::thread::scope(|s| {
                let helpers: Vec<_> = rest.iter_mut().map(|l| s.spawn(|| l.run())).collect();
                first.run();
                for helper in helpers {
                    helper.join().expect("reference loop thread");
                }
            }),
            [] => unreachable!("at least one thread"),
        }
        start.elapsed().as_secs_f64()
    }

    /// Nominal time of [`Reference::time`].
    pub fn nominal_secs(&self) -> f64 {
        NOMINAL_SECS[self.loops.len() - 1]
    }
}

/// One thread's copy of the loop: a fixed program and its memory.
struct Loop {
    code: Vec<(u8, u8, u8, u32)>,
    mem: Vec<u64>,
    checksum: Option<u64>,
}

impl Loop {
    fn new() -> Self {
        let mut rng = SplitMix64::new(0x005e_ed0f_4057);
        let code = (0..CODE_LEN)
            .map(|_| {
                let r = rng.next_u64();
                ((r % 8) as u8, (r >> 8) as u8 % 16, (r >> 16) as u8 % 16, (r >> 32) as u32)
            })
            .collect();
        Loop { code, mem: vec![0; MEM_WORDS], checksum: None }
    }

    /// Runs the program once from its fixed initial state. Every run
    /// must compute the same checksum.
    fn run(&mut self) {
        for (i, w) in self.mem.iter_mut().enumerate() {
            *w = i as u64;
        }
        let sum = interpret(black_box(&self.code), &mut self.mem, black_box(STEPS));
        assert_eq!(*self.checksum.get_or_insert(sum), sum, "the reference loop is deterministic");
    }
}

fn interpret(code: &[(u8, u8, u8, u32)], mem: &mut [u64], steps: usize) -> u64 {
    let mut regs = [0u64; 16];
    let mut pc = 0;
    let mask = mem.len() - 1;
    for _ in 0..steps {
        let (op, a, b, imm) = code[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        pc += 1;
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b] >> 3,
            2 => regs[a] = regs[a].wrapping_mul(u64::from(imm) | 1),
            3 => regs[a] = mem[regs[b] as usize & mask],
            4 => mem[regs[a] as usize & mask] = regs[b],
            5 => {
                if regs[a] & 1 == 0 {
                    pc = imm as usize % code.len();
                }
            }
            6 => regs[a] = regs[a].rotate_left(imm & 63),
            _ => regs[a] = regs[a].wrapping_sub(u64::from(imm)),
        }
        if pc == code.len() {
            pc = 0;
        }
    }
    regs.iter().fold(0, |x, &r| x ^ r)
}
