//! The assembler's observable contract, pinned: the exact [`Program`]
//! every shipped source assembles to, and the exact line and message
//! of the [`AsmError`] for a table of malformed inputs. The values
//! were recorded with the earlier lexer, which owned a `String` per
//! token, so a change to what the assembler accepts, produces or
//! reports fails here. A new example source fails until it is pinned.
//!
//! [`AsmError`]: hirata::asm::AsmError

use std::collections::BTreeMap;

use hirata::asm::assemble;
use hirata::isa::Program;
use hirata::kernelc::compile;
use hirata::sched::Strategy;
use hirata::workloads::linked_list::{eager_source, sequential_source, ListShape};

/// FNV-1a over the program's `Debug` text, which spells out every
/// instruction, data word, the entry point and every label.
fn digest(program: &Program) -> u64 {
    format!("{program:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Every `examples/asm/*.s`, by file name, in name order.
fn examples() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/asm");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/asm")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "s"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, text)
        })
        .collect();
    sources.sort();
    sources
}

/// The kernel-language kernels the kernelc tests and example compile,
/// each built into a runnable program.
fn kernelc_programs() -> Vec<(&'static str, Program)> {
    let kernels: [(&str, &str, &[&str]); 3] = [
        (
            "kernelc saxpy",
            "const a = 2.5; array x at 1000; array y at 2000;
             kernel saxpy(i) { y[i] = a * x[i] + y[i]; }",
            &["x", "y"],
        ),
        (
            "kernelc hydro",
            "const q = 0.5; const r = 1.25; const t = -0.75;
             array x at 1000; array y at 2000; array z at 3000;
             kernel hydro(k) { x[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11]); }",
            &["y", "z"],
        ),
        (
            "kernelc smooth",
            "const w = 0.25; array out at 1000; array v at 2000;
             kernel smooth(k) {
                 let left = v[k]; let mid = v[k + 1]; let right = v[k + 2];
                 out[k] = mid + w * (left - 2.0 * mid + right);
             }",
            &["v"],
        ),
    ];
    let n = 24;
    kernels
        .iter()
        .map(|&(name, src, arrays)| {
            let kernel = compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let inputs: BTreeMap<String, Vec<f64>> = arrays
                .iter()
                .enumerate()
                .map(|(a, &array)| {
                    let values = (0..n + 12).map(|i| (i + a) as f64 * 0.375 - 2.0).collect();
                    (array.to_string(), values)
                })
                .collect();
            (name, kernel.program(n, &inputs, Strategy::ListA))
        })
        .collect()
}

#[test]
fn shipped_sources_assemble_to_pinned_programs() {
    let mut sources = examples();
    for (nodes, break_at) in [(40, None), (200, Some(150))] {
        let shape = ListShape { nodes, break_at };
        sources.push((format!("sequential {nodes}"), sequential_source(shape)));
        sources.push((format!("eager {nodes}"), eager_source(shape)));
    }
    let mut got: Vec<(String, u64)> = sources
        .iter()
        .map(|(name, src)| {
            let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.clone(), digest(&program))
        })
        .collect();
    got.extend(kernelc_programs().iter().map(|(name, p)| (name.to_string(), digest(p))));

    let want = [
        ("affine_stride.s", 0xc7c7_ec85_d2eb_6ffd),
        ("fib.s", 0x2dba_bcc0_997b_bfbc),
        ("fig6_while.s", 0xae45_cd47_e820_4d48),
        ("ring_token.s", 0xf059_d917_b5a9_c0c7),
        ("saxpy.s", 0x06d4_e2f6_64e5_e596),
        ("sequential 40", 0xda3d_5a72_dde4_c029),
        ("eager 40", 0x2fbe_1a93_98be_40c9),
        ("sequential 200", 0x6f6f_6efd_b2ea_6a96),
        ("eager 200", 0x0319_c62f_80dd_3dd4),
        ("kernelc saxpy", 0x196e_0a6b_e304_1ece),
        ("kernelc hydro", 0x3be6_3aff_bb94_ad5e),
        ("kernelc smooth", 0x027e_fea6_30a2_415a),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, want);
}

/// Odd but valid spellings: comments holding `:` and `,`, Unicode
/// whitespace, CRLF endings, uppercase mnemonics and directives,
/// multi-byte UTF-8 in comments, and spaces around every separator.
#[test]
fn odd_spellings_assemble_to_pinned_programs() {
    let cases = [
        ("nop ; comment: with colons, and commas", 0x7b54_0e24_c3a2_fa9c),
        ("label:\u{a0}halt", 0xa8fd_d6ee_aa37_5e1e),
        ("halt\u{2028}", 0x8b68_6ca1_811c_e1d6),
        (
            "Main: LI r1, #3\r\n\tADD r2, r1, #-4 ; ünïcödé: 中文, 😀\r\n  BNE r2, #0, Main\r\nHALT\r\n",
            0x1c6d_2a39_2cb1_2513,
        ),
        (
            ".DATA\nv: .WORD 1, 2, 0x3\n.TEXT\n.ENTRY go\ngo: lw r1, v(r0) ;;; ;: ,\nHalt",
            0x32c7_39c2_c60d_5c23,
        ),
        ("a:b:c: nop\nd :halt", 0xdc4b_4db2_7696_c9c4),
        ("  li   r1 ,  #7  ;x\n\n\n\t  sw r1 , 4 ( r0 ) \nhalt", 0xa47a_a780_417b_51ea),
    ];
    for (src, want) in cases {
        let program = assemble(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        assert_eq!(digest(&program), want, "{src:?}");
    }
}

/// Malformed inputs, each with the line and message it must report.
const MALFORMED: &[(&str, usize, &str)] = &[
    ("3x: halt", 1, "invalid label name `3x` in `3x: halt`"),
    (" : halt", 1, "invalid label name `` in `: halt`"),
    ("add r1, , r2", 1, "empty operand (stray comma?) in `add r1, , r2`"),
    ("add r1, r2,", 1, "empty operand (stray comma?) in `add r1, r2,`"),
    (",", 1, "unknown mnemonic `,` in `,`"),
    ("halt,", 1, "unknown mnemonic `halt,` in `halt,`"),
    ("a: b: c d: halt", 1, "invalid label name `c d` in `a: b: c d: halt`"),
    ("héllo: halt", 1, "invalid label name `héllo` in `héllo: halt`"),
    ("start: ADD r1, r2", 1, "`add` expects 3 operand(s), got 2 in `start: ADD r1, r2`"),
    ("FROB r1", 1, "unknown mnemonic `frob` in `FROB r1`"),
    ("Nop r1", 1, "`nop` expects 0 operand(s), got 1 in `Nop r1`"),
    ("li r1, #ünïcode", 1, "undefined label or bad integer `ünïcode` in `li r1, #ünïcode`"),
    ("li r1 #3", 1, "`li` expects 2 operand(s), got 1 in `li r1 #3`"),
    ("halt\r\nli r1\r\nhalt\r\n", 2, "`li` expects 2 operand(s), got 1 in `li r1`"),
    ("nop\n\n  lw r1, 4(r2\n", 3, "missing `)` in memory operand `4(r2` in `lw r1, 4(r2`"),
    ("sw r1, r2", 1, "expected memory operand `off(base)`, got `r2` in `sw r1, r2`"),
    ("j nowhere", 1, "undefined label `nowhere` in `j nowhere`"),
    ("a: nop\r\na: halt", 2, "duplicate label `a` in `a: halt`"),
    (".data\nv: .word 1\n.text\nj v", 4, "`v` is not a code label in `j v`"),
    (
        ".data\nadd r1, r2, r3",
        2,
        "instructions are only allowed in the .text segment in `add r1, r2, r3`",
    ),
    (".word 3", 1, "`.word` is only allowed in the .data segment in `.word 3`"),
    (".bogus 1", 1, "unknown directive `.bogus` in `.bogus 1`"),
    (".equ 9x, 1", 1, "invalid .equ name `9x` in `.equ 9x, 1`"),
    (
        ".equ A, nonsense",
        1,
        "`.equ` value `nonsense` is not an integer or known name in `.equ A, nonsense`",
    ),
    (".equ A", 1, "`.equ` expects 2 operand(s), got 1 in `.equ A`"),
    (".data\n.word 1\n.org 0\n.word 2\n.text\nhalt", 4, "data word 0 defined twice in `.word 2`"),
    (".data\n.float 1.0, x\n", 2, "invalid float literal `x` in `.float 1.0, x`"),
    (".data\n.space -1\n", 2, "invalid count `-1` in `.space -1`"),
    ("halt\n.entry nowhere", 2, "undefined entry label `nowhere` in `.entry nowhere`"),
    (".data\nv: .word 1\n.text\nhalt\n.entry v", 5, "entry `v` is not a code label in `.entry v`"),
    ("setrot implicit #0", 1, "invalid rotation interval `0` in `setrot implicit #0`"),
    (
        "setrot sideways",
        1,
        "expected `setrot explicit` or `setrot implicit #N`, got `sideways` in `setrot sideways`",
    ),
    ("j @99", 0, "program validation failed: instruction @0 targets out-of-range address @99"),
    ("add r1, r99, r2", 1, "invalid register name `r99` in `add r1, r99, r2`"),
    ("fadd f1, f2, r3", 1, "invalid register name `r3` in `fadd f1, f2, r3`"),
    ("lif f1, #zz", 1, "invalid float literal `zz` in `lif f1, #zz`"),
    ("qmap r1", 1, "`qmap` expects 2 operand(s), got 1 in `qmap r1`"),
    ("x: y:: halt", 1, "invalid label name `` in `x: y:: halt`"),
    ("  ;; only\n\tmv r1, r2, r3", 2, "`mv` expects 2 operand(s), got 3 in `mv r1, r2, r3`"),
    (
        "add r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12",
        1,
        "`add` expects 3 operand(s), got 12 in `add r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12`",
    ),
    ("Ä: halt", 1, "invalid label name `Ä` in `Ä: halt`"),
];

#[test]
fn malformed_inputs_report_pinned_errors() {
    for &(src, line, message) in MALFORMED {
        let err = match assemble(src) {
            Ok(p) => panic!("{src:?} assembled to {p:?}"),
            Err(e) => e,
        };
        assert_eq!((err.line(), err.message()), (line, message), "{src:?}");
    }
}
