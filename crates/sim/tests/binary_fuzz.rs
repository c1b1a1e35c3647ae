//! Whole-input fuzzing of binary programs: every word stream goes
//! through `decode_program`, then `PredecodedProgram::shared`, then a
//! short run, and must end in a value or a typed error at each stage —
//! a `DecodeError`, a `MachineError` (the watchdog included, as runs
//! are cut short on purpose), or a finished run. None may panic.
//!
//! Three input families, from a deterministic generator:
//!
//! * random words — some wholly random, most a real opcode over random
//!   fields;
//! * valid encodings of random programs (every instruction form,
//!   control flow included) with a few bits flipped;
//! * valid encodings cut short inside a two-word form (`lif`, or a
//!   branch with an immediate comparand).

use std::panic::{catch_unwind, AssertUnwindSafe};

use hirata_isa::{
    decode_program, encode_program, BranchCond, FReg, FpBinOp, FpUnOp, GReg, GSrc, Inst, IntOp,
    Program, Reg, RotationMode, NUM_FREGS, NUM_GREGS,
};
use hirata_sim::{Config, Machine, MachineError, PredecodedProgram};

/// Inputs per family.
const CASES: u64 = 1000;

/// Cycle budget per run: long enough for loops and forks to get going,
/// short enough that a spinning program ends at the watchdog quickly.
const MAX_CYCLES: u64 = 1500;

/// Deterministic SplitMix64, so every input reproduces from its seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// A random instruction of any form, with every field in its encodable
/// range and control-flow targets inside a program of `len` words.
fn random_inst(rng: &mut SplitMix, len: u32) -> Inst {
    let g = |rng: &mut SplitMix| GReg(rng.below(NUM_GREGS as u64) as u8);
    let f = |rng: &mut SplitMix| FReg(rng.below(NUM_FREGS as u64) as u8);
    let reg = |rng: &mut SplitMix| if rng.below(2) == 0 { Reg::G(g(rng)) } else { Reg::F(f(rng)) };
    // Magnitudes below 2^29: the one-word immediate field holds 2^30.
    let imm = |rng: &mut SplitMix| (rng.next() as i64) >> (34 + rng.below(30));
    let target = |rng: &mut SplitMix| rng.below(u64::from(len)) as u32;
    match rng.below(20) {
        0..=2 => Inst::IntOp {
            op: rng.pick(&IntOp::ALL),
            rd: g(rng),
            rs: g(rng),
            src2: if rng.below(2) == 0 { GSrc::Reg(g(rng)) } else { GSrc::Imm(imm(rng)) },
        },
        3 => Inst::Li { rd: g(rng), imm: imm(rng) },
        4 => Inst::LiF { fd: f(rng), imm: f64::from_bits(rng.next()) },
        5 => Inst::FpBin { op: rng.pick(&FpBinOp::ALL), fd: f(rng), fs: f(rng), ft: f(rng) },
        6 => Inst::FpUn { op: rng.pick(&FpUnOp::ALL), fd: f(rng), fs: f(rng) },
        7 => Inst::FpCmp { cond: rng.pick(&BranchCond::ALL), rd: g(rng), fs: f(rng), ft: f(rng) },
        8 => Inst::CvtIF { fd: f(rng), rs: g(rng) },
        9 => Inst::CvtFI { rd: g(rng), fs: f(rng) },
        10 => Inst::Load { dst: reg(rng), base: g(rng), off: imm(rng) },
        11 => Inst::Store { src: reg(rng), base: g(rng), off: imm(rng), gated: rng.below(4) == 0 },
        12 => Inst::Branch {
            cond: rng.pick(&BranchCond::ALL),
            rs: g(rng),
            src2: if rng.below(2) == 0 { GSrc::Reg(g(rng)) } else { GSrc::Imm(imm(rng)) },
            target: target(rng),
        },
        13 => Inst::Jump { target: target(rng) },
        14 => Inst::JumpReg { rs: g(rng) },
        15 => rng.pick(&[
            Inst::Halt,
            Inst::Nop,
            Inst::FastFork,
            Inst::ChgPri,
            Inst::KillOthers,
            Inst::QUnmap,
            Inst::Drain,
        ]),
        16 => Inst::SetRotation {
            mode: if rng.below(3) == 0 {
                RotationMode::Explicit
            } else {
                RotationMode::Implicit { interval: rng.below(20) as u32 }
            },
        },
        17 => Inst::QMap { read: reg(rng), write: reg(rng) },
        18 => Inst::Lpid { rd: g(rng) },
        _ => Inst::Nlp { rd: g(rng) },
    }
}

/// A random program of 1–24 instructions, most often ending in `halt`.
fn random_program(rng: &mut SplitMix) -> Vec<Inst> {
    let len = 1 + rng.below(24) as u32;
    let mut insts: Vec<Inst> = (0..len).map(|_| random_inst(rng, len)).collect();
    if rng.below(4) != 0 {
        insts[len as usize - 1] = Inst::Halt;
    }
    insts
}

/// Decodes, lowers and runs `words` on a one-slot and a three-slot
/// machine. Returns `None` when decoding (a `DecodeError`) or lowering
/// (a `MachineError`) rejected the input, and otherwise each run's
/// cycle count or typed error. A panic anywhere propagates to the
/// caller.
fn drive(words: &[u64]) -> Option<Vec<Result<u64, MachineError>>> {
    let insts = decode_program(words).ok()?;
    let shared = PredecodedProgram::shared(&Program::from_insts(insts)).ok()?;
    let runs = [1usize, 3]
        .into_iter()
        .map(|slots| {
            let mut config = Config::multithreaded(slots);
            config.max_cycles = MAX_CYCLES;
            config.mem_words = 1 << 12;
            let mut machine = Machine::from_predecoded(config, shared.clone())?;
            machine.run().map(|stats| stats.cycles)
        })
        .collect();
    Some(runs)
}

/// Runs every input of one family and fails with the seeds and words
/// of the inputs that panicked.
fn fuzz_family(family: &str, salt: u64, input: impl Fn(&mut SplitMix) -> Vec<u64>) {
    let mut panics = Vec::new();
    let (mut ran, mut finished) = (0usize, 0usize);
    for seed in 0..CASES {
        let mut rng = SplitMix(salt ^ seed.wrapping_mul(0x9e37_79b9));
        let words = input(&mut rng);
        match catch_unwind(AssertUnwindSafe(|| drive(&words))) {
            Ok(Some(runs)) => {
                ran += 1;
                finished += runs.iter().filter(|r| r.is_ok()).count();
            }
            Ok(None) => {}
            Err(_) => panics.push(format!("seed {seed}: {words:#x?}")),
        }
        if panics.len() >= 3 {
            break;
        }
    }
    assert!(panics.is_empty(), "{family}: inputs panicked:\n{}", panics.join("\n"));
    // Every family must reach the machine sometimes, or the fuzz
    // exercises only the decoder.
    assert!(ran > 0, "{family}: no input reached a run");
    eprintln!("{family}: {ran} of {CASES} inputs ran, {finished} runs finished");
}

#[test]
fn random_words_end_in_a_value_or_typed_error() {
    fuzz_family("random words", 0x5eed_0001, |rng| {
        let valid = encode_program(&random_program(rng)).expect("generated programs encode");
        // Bits 5 and 6 of each register byte: clear, the index is in
        // range (bit 7 picks the file).
        const REG_HIGH_BITS: u64 = 0x0060_6060_0000_0000;
        (0..1 + rng.below(16))
            .map(|_| match rng.below(4) {
                0 => rng.next(),
                // A real opcode byte over random fields, half the time
                // with in-range register indices.
                _ => {
                    let word = (valid[rng.below(valid.len() as u64) as usize]
                        & 0xff00_0000_0000_0000)
                        | (rng.next() >> 8);
                    if rng.below(2) == 0 {
                        word & !REG_HIGH_BITS
                    } else {
                        word
                    }
                }
            })
            .collect()
    });
}

#[test]
fn bit_flipped_encodings_end_in_a_value_or_typed_error() {
    fuzz_family("flipped bits", 0x5eed_0002, |rng| {
        let mut words = encode_program(&random_program(rng)).expect("generated programs encode");
        for _ in 0..1 + rng.below(3) {
            let i = rng.below(words.len() as u64) as usize;
            words[i] ^= 1 << rng.below(64);
        }
        words
    });
}

#[test]
fn truncated_two_word_forms_end_in_a_value_or_typed_error() {
    fuzz_family("truncated", 0x5eed_0003, |rng| {
        let mut insts = random_program(rng);
        let len = insts.len() as u32;
        // End on a two-word form, then cut its second word off.
        insts.push(if rng.below(2) == 0 {
            Inst::LiF { fd: FReg(rng.below(32) as u8), imm: f64::from_bits(rng.next()) }
        } else {
            Inst::Branch {
                cond: rng.pick(&BranchCond::ALL),
                rs: GReg(rng.below(32) as u8),
                src2: GSrc::Imm(1 + rng.below(1000) as i64),
                target: rng.below(u64::from(len)) as u32,
            }
        });
        let mut words = encode_program(&insts).expect("generated programs encode");
        words.pop();
        // Most of these end in `DecodeError::Truncated`; the rest hand
        // the machine the program without its last word.
        if rng.below(4) == 0 {
            words.truncate(rng.below(words.len() as u64 + 1) as usize);
        }
        words
    });
}
