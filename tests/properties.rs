//! Property-based tests (proptest): the invariants that must hold for
//! *any* program, not just the curated workloads.
//!
//! * assembler/disassembler round-trip;
//! * timing models never change architectural results — a random
//!   straight-line program produces the same memory image on the base
//!   RISC, on any multithreaded width, on hybrids, and with or without
//!   standby stations;
//! * the §2.3.2 schedulers preserve program semantics for arbitrary
//!   blocks.

use hirata::asm::assemble;
use hirata::isa::{FReg, FpBinOp, FpUnOp, GReg, GSrc, Inst, IntOp, Program, Reg};
use hirata::sched::{apply_strategy, Strategy as SchedStrategy};
use hirata::sim::{Config, Machine};
use proptest::prelude::*;

/// Strategy for a random arithmetic/memory instruction over a bounded
/// register pool and a bounded scratch-memory window. All inputs are
/// legal: uninitialized registers read as zero, and every address
/// stays in `0..64`.
fn arb_inst() -> impl Strategy<Value = Inst> {
    let greg = (0u8..12).prop_map(GReg);
    let freg = (0u8..12).prop_map(FReg);
    let gsrc =
        prop_oneof![(0u8..12).prop_map(|n| GSrc::Reg(GReg(n))), (-64i64..64).prop_map(GSrc::Imm),];
    let int_op = prop::sample::select(IntOp::ALL.to_vec());
    let fp_op = prop::sample::select(FpBinOp::ALL.to_vec());
    let fp_un = prop::sample::select(FpUnOp::ALL.to_vec());
    prop_oneof![
        4 => (int_op, greg.clone(), greg.clone(), gsrc)
            .prop_map(|(op, rd, rs, src2)| Inst::IntOp { op, rd, rs, src2 }),
        2 => (greg.clone(), -100i64..100).prop_map(|(rd, imm)| Inst::Li { rd, imm }),
        1 => (freg.clone(), -8i64..8)
            .prop_map(|(fd, v)| Inst::LiF { fd, imm: v as f64 * 0.25 }),
        3 => (fp_op, freg.clone(), freg.clone(), freg.clone())
            .prop_map(|(op, fd, fs, ft)| Inst::FpBin { op, fd, fs, ft }),
        1 => (fp_un, freg.clone(), freg.clone())
            .prop_map(|(op, fd, fs)| Inst::FpUn { op, fd, fs }),
        1 => (greg.clone(), freg.clone()).prop_map(|(rd, fs)| Inst::CvtFI { rd, fs }),
        1 => (freg.clone(), greg.clone()).prop_map(|(fd, rs)| Inst::CvtIF { fd, rs }),
        2 => (greg.clone(), 0i64..64)
            .prop_map(|(rd, off)| Inst::Load { dst: Reg::G(rd), base: GReg(0), off }),
        1 => (freg.clone(), 0i64..64)
            .prop_map(|(fd, off)| Inst::Load { dst: Reg::F(fd), base: GReg(0), off }),
        2 => (greg, 0i64..64).prop_map(|(rs, off)| Inst::Store {
            src: Reg::G(rs),
            base: GReg(0),
            off,
            gated: false
        }),
        1 => (freg, 0i64..64).prop_map(|(fs, off)| Inst::Store {
            src: Reg::F(fs),
            base: GReg(0),
            off,
            gated: false
        }),
    ]
}

fn arb_block() -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(arb_inst(), 1..40)
}

/// Like [`arb_block`], but with forward-only conditional branches
/// spliced in (forward-only means the program always terminates, so
/// the differential tests cover control flow too).
fn arb_branchy_block() -> impl Strategy<Value = Vec<Inst>> {
    (arb_block(), prop::collection::vec((0usize..40, 0usize..40, 0u8..12, -4i64..4), 0..6))
        .prop_map(|(mut block, branches)| {
            for (pos, skip, reg, cmp) in branches {
                let pos = pos % block.len();
                let len = block.len();
                let target = (pos + 1 + skip % (len - pos)).min(len);
                block.insert(
                    pos,
                    Inst::Branch {
                        cond: hirata::isa::BranchCond::Lt,
                        rs: GReg(reg),
                        src2: GSrc::Imm(cmp),
                        target: target as u32,
                    },
                );
            }
            // Later insertions shift earlier targets; clamp every
            // branch strictly forward so the program must terminate
            // (a target of `len` lands on the harness's store block).
            let n = block.len() as u32;
            for (i, inst) in block.iter_mut().enumerate() {
                if let Inst::Branch { target, .. } = inst {
                    *target = (*target).max(i as u32 + 1).min(n);
                }
            }
            block
        })
}

/// Wraps a block into a runnable program: the block, then stores of
/// the whole register pool into `64..88`, then halt.
fn harness(block: &[Inst]) -> Program {
    let mut insts = block.to_vec();
    for n in 0..12u8 {
        insts.push(Inst::Store {
            src: Reg::G(GReg(n)),
            base: GReg(0),
            off: 64 + n as i64,
            gated: false,
        });
        insts.push(Inst::Store {
            src: Reg::F(FReg(n)),
            base: GReg(0),
            off: 76 + n as i64,
            gated: false,
        });
    }
    insts.push(Inst::Halt);
    Program::from_insts(insts)
}

/// Final observable state: the scratch window plus the register dump.
fn observe(config: Config, program: &Program) -> Vec<u64> {
    let mut m = Machine::new(config, program).expect("machine builds");
    m.run().expect("program runs");
    m.memory().words()[..88].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assembler_round_trips_generated_instructions(block in arb_block()) {
        let program = harness(&block);
        let text: String =
            program.insts.iter().map(|i| format!("    {i}\n")).collect();
        let reparsed = assemble(&text).expect("rendered assembly parses");
        prop_assert_eq!(reparsed.insts, program.insts);
    }

    #[test]
    fn machine_shape_never_changes_results(block in arb_branchy_block()) {
        let program = harness(&block);
        let reference = observe(Config::base_risc(), &program);
        for config in [
            Config::multithreaded(1),
            Config::multithreaded(4),
            Config::multithreaded(2).with_standby(false),
            Config::multithreaded(2).with_private_fetch(true),
            Config::hybrid(2, 2),
            Config::hybrid(4, 1),
        ] {
            prop_assert_eq!(&observe(config, &program), &reference);
        }
    }

    #[test]
    fn schedulers_preserve_semantics(block in arb_block()) {
        let reference = observe(Config::base_risc(), &harness(&block));
        for strategy in [SchedStrategy::ListA, SchedStrategy::ReservationB { threads: 4 }] {
            let scheduled = apply_strategy(&block, strategy);
            prop_assert_eq!(scheduled.len(), block.len());
            let program = harness(&scheduled);
            prop_assert_eq!(&observe(Config::base_risc(), &program), &reference);
            prop_assert_eq!(&observe(Config::multithreaded(4), &program), &reference);
        }
    }

    #[test]
    fn cycle_counts_are_deterministic(block in arb_block()) {
        let program = harness(&block);
        let c1 = {
            let mut m = Machine::new(Config::multithreaded(4), &program).unwrap();
            m.run().unwrap().cycles
        };
        let c2 = {
            let mut m = Machine::new(Config::multithreaded(4), &program).unwrap();
            m.run().unwrap().cycles
        };
        prop_assert_eq!(c1, c2);
    }
}

/// One line an assembler must survive: labels (some invalid, some
/// multi-byte UTF-8), stray `:`, `,` and `;`, a mnemonic or directive
/// in any case, an operand list of up to forty operands with odd
/// separators, a comment in any script, and an LF or CRLF ending.
/// Most lines are well formed enough to reach the next one.
fn arb_junk_line() -> impl Strategy<Value = String> {
    use prop::sample::select;
    let label = prop_oneof![
        4 => select(vec!["a", "loop", "_x9", "Main", "b2"]),
        1 => select(vec!["é", "中文", "9x", "a b", "", "x😀"]),
    ];
    let stray = prop_oneof![
        6 => Just(""),
        1 => select(vec![":", "::", ",", ";", " : ", ", ,", ";:"]),
    ];
    let head = select(vec![
        "add", "ADD", "Li", "lw", "SW", "fadd", "fcmplt", "beq", "j", "jr", "halt", "Nop", "qmap",
        "setrot", "mv", "lif", ".data", ".text", ".word", ".float", ".space", ".org", ".entry",
        ".equ", ".WORD", ".Data", "frob", "ädd", "",
    ]);
    let operand = prop_oneof![
        4 => select(vec![
            "r1", "R2", "r0", "f3", "#3", "#-0x10", "#a", "4(r2)", "(r3)", "a(r0)", "loop", "@2",
            "implicit #8", "explicit", "#1.5", "0.25", "-7", "r99", "#", "()", "4(r2", "x😀",
            "ünï", "中文",
        ])
        .prop_map(String::from),
        2 => "[a-zA-Z0-9_#@().+\\-]{1,8}",
        1 => "[éß中文Ω😀\u{a0}]{1,4}",
        1 => "[ -~]{0,6}",
    ];
    let operands = prop_oneof![
        6 => (prop::collection::vec(operand.clone(), 0..4), select(vec![", ", ",", " , ", ",,"])),
        1 => (prop::collection::vec(operand, 4..40), select(vec![", ", ",", " , ", ",\t"])),
    ]
    .prop_map(|(operands, sep)| operands.join(sep));
    let comment = prop::option::of("[ -~éß中文😀:,;]{0,20}");
    let ending = select(vec!["\n", "\n", "\r\n", "\r\n\r\n", "", "\r"]);
    ((prop::collection::vec(label, 0..3), stray.clone(), head), (operands, stray, comment, ending))
        .prop_map(|((labels, lead, head), (operands, tail, comment, ending))| {
            let mut line: String = labels.iter().map(|l| format!("{l}: ")).collect();
            line.push_str(lead);
            line.push_str(head);
            line.push(' ');
            line.push_str(&operands);
            line.push_str(tail);
            if let Some(comment) = comment {
                line.push_str(" ;");
                line.push_str(&comment);
            }
            line.push_str(ending);
            line
        })
}

/// Whole sources: one line or many from [`arb_junk_line`], printable
/// ASCII, or any mix of ASCII, multi-byte UTF-8, Unicode spaces and
/// line ends.
fn arb_junk_source() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop::collection::vec(arb_junk_line(), 0..24).prop_map(|lines| lines.concat()),
        2 => arb_junk_line(),
        1 => "[ -~\n]{0,300}",
        1 => "[\t -~éß中文😀\u{a0}\u{2028}\r\n]{0,300}",
    ]
}

/// Random list shapes for the eager-execution equivalence property.
fn arb_shape() -> impl Strategy<Value = hirata::workloads::linked_list::ListShape> {
    (1usize..24, proptest::option::of(0usize..24)).prop_map(|(nodes, brk)| {
        hirata::workloads::linked_list::ListShape { nodes, break_at: brk.map(|b| b % nodes) }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn eager_execution_always_matches_sequential_semantics(
        shape in arb_shape(),
        slots in 1usize..6,
    ) {
        use hirata::workloads::linked_list::{
            eager_program, reference, sequential_program, RESULT_ADDR,
        };
        let (_, tmp) = reference(shape);
        let mut seq =
            Machine::new(Config::base_risc(), &sequential_program(shape)).unwrap();
        seq.run().unwrap();
        let mut eager =
            Machine::new(Config::multithreaded(slots), &eager_program(shape)).unwrap();
        eager.run().unwrap();
        let want = tmp.unwrap_or(0.0);
        prop_assert_eq!(seq.memory().read_f64(RESULT_ADDR).unwrap(), want);
        prop_assert_eq!(eager.memory().read_f64(RESULT_ADDR).unwrap(), want);
    }

    #[test]
    fn doacross_kernel5_matches_reference(n in 1usize..40, slots in 1usize..6) {
        use hirata::workloads::livermore::{kernel5_program, kernel5_reference, K5_X_BASE};
        let mut m =
            Machine::new(Config::multithreaded(slots), &kernel5_program(n)).unwrap();
        m.run().unwrap();
        let expected = kernel5_reference(n);
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(m.memory().read_f64(K5_X_BASE + i as u64).unwrap(), *want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_encoding_round_trips(block in arb_block()) {
        use hirata::isa::{decode_program, encode_program};
        let program = harness(&block);
        let words = encode_program(&program.insts).expect("generated blocks encode");
        let back = decode_program(&words).expect("encoded words decode");
        prop_assert_eq!(back, program.insts);
    }

    #[test]
    fn emulator_and_machine_agree(block in arb_branchy_block()) {
        // The architectural emulator is the golden model: for
        // timing-independent programs the cycle-level machine must
        // produce the identical memory image.
        use hirata::sim::Emulator;
        let program = harness(&block);
        let emu = Emulator::execute(&program, 1, 1 << 20, 10_000_000).unwrap();
        let machine_view = observe(Config::multithreaded(1), &program);
        prop_assert_eq!(&emu.memory.words()[..88], machine_view.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn assembler_never_panics_on_junk(text in arb_junk_source()) {
        // Any input must produce a valid program or an error located
        // on one of its lines (line 0: the whole program failed
        // validation), never a panic.
        match hirata::asm::assemble(&text) {
            Ok(program) => prop_assert!(program.validate().is_ok()),
            Err(e) => prop_assert!(e.line() <= text.lines().count(), "{e} for {text:?}"),
        }
    }
}
