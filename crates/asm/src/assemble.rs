//! The two-pass assembler proper.

use std::collections::BTreeMap;

use hirata_isa::{
    BranchCond, DataSegment, FReg, FpBinOp, FpUnOp, GReg, GSrc, Inst, IntOp, Program, Reg,
    RotationMode,
};

use crate::error::AsmError;
use crate::lexer::{lex, Line, Stmt};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelVal {
    Code(u32),
    Data(u64),
    Const(i64),
}

impl LabelVal {
    fn as_i64(self) -> i64 {
        match self {
            LabelVal::Code(a) => a as i64,
            LabelVal::Data(a) => a as i64,
            LabelVal::Const(v) => v,
        }
    }
}

/// Assembles source text into a validated [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending source line for any
/// syntactic or semantic problem (unknown mnemonic, bad operand,
/// duplicate or undefined label, overlapping data, invalid entry).
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let attach_context = |e: AsmError| {
        // Quote the offending source line in the diagnostic.
        match src.lines().nth(e.line().wrapping_sub(1)) {
            Some(text) if !text.trim().is_empty() => {
                AsmError::new(e.line(), format!("{} in `{}`", e.message(), text.trim()))
            }
            _ => e,
        }
    };
    let lines = lex(src).map_err(attach_context)?;
    let labels = first_pass(&lines).map_err(attach_context)?;
    second_pass(&lines, &labels).map_err(attach_context)
}

/// Pass 1: assign every label an address and check for duplicates.
fn first_pass<'a>(lines: &[Line<'a>]) -> Result<BTreeMap<&'a str, LabelVal>, AsmError> {
    let mut labels = BTreeMap::new();
    let mut seg = Segment::Text;
    let mut text_cursor: u32 = 0;
    let mut data_cursor: u64 = 0;

    for line in lines {
        for name in line.labels() {
            let val = match seg {
                Segment::Text => LabelVal::Code(text_cursor),
                Segment::Data => LabelVal::Data(data_cursor),
            };
            if labels.insert(name, val).is_some() {
                return Err(AsmError::new(line.num, format!("duplicate label `{name}`")));
            }
        }
        let Some(stmt) = &line.stmt else { continue };
        match &*stmt.head {
            ".text" => seg = Segment::Text,
            ".data" => seg = Segment::Data,
            ".entry" => {}
            ".equ" => {
                let [name, value] = expect_n::<2>(stmt, line.num)?;
                let resolved = parse_int(value)
                    .or_else(|| labels.get(value).copied().map(LabelVal::as_i64))
                    .ok_or_else(|| {
                        AsmError::new(
                            line.num,
                            format!("`.equ` value `{value}` is not an integer or known name"),
                        )
                    })?;
                if !valid_equ_name(name) {
                    return Err(AsmError::new(line.num, format!("invalid .equ name `{name}`")));
                }
                if labels.insert(name, LabelVal::Const(resolved)).is_some() {
                    return Err(AsmError::new(line.num, format!("duplicate label `{name}`")));
                }
            }
            ".word" | ".float" => {
                require_data(seg, line.num, &stmt.head)?;
                data_cursor += stmt.operands.len() as u64;
            }
            ".space" => {
                require_data(seg, line.num, &stmt.head)?;
                data_cursor += parse_count(stmt, line.num)?;
            }
            ".org" => {
                require_data(seg, line.num, &stmt.head)?;
                data_cursor = parse_count(stmt, line.num)?;
            }
            head if head.starts_with('.') => {
                return Err(AsmError::new(line.num, format!("unknown directive `{head}`")));
            }
            _ => {
                if seg != Segment::Text {
                    return Err(AsmError::new(
                        line.num,
                        "instructions are only allowed in the .text segment",
                    ));
                }
                text_cursor += 1;
            }
        }
    }
    Ok(labels)
}

/// Pass 2: encode instructions and data now that labels are known.
fn second_pass(lines: &[Line<'_>], labels: &BTreeMap<&str, LabelVal>) -> Result<Program, AsmError> {
    let mut prog = Program::default();
    let mut data_cursor: u64 = 0;
    let mut data_words: Vec<(u64, u64, usize)> = Vec::new(); // (addr, word, line)
    let mut entry: Option<(&str, usize)> = None;

    for line in lines {
        let Some(stmt) = &line.stmt else { continue };
        let ctx = Ctx { labels, line: line.num };
        match &*stmt.head {
            // Segment placement was validated in the first pass;
            // `.equ` was fully consumed there.
            ".text" | ".data" | ".equ" => {}
            ".entry" => {
                let [name] = expect_n::<1>(stmt, line.num)?;
                entry = Some((name, line.num));
            }
            ".word" => {
                for op in stmt.operands.iter() {
                    let v = ctx.int_or_label(op)?;
                    data_words.push((data_cursor, v as u64, line.num));
                    data_cursor += 1;
                }
            }
            ".float" => {
                for op in stmt.operands.iter() {
                    let v: f64 = op.parse().map_err(|_| {
                        AsmError::new(line.num, format!("invalid float literal `{op}`"))
                    })?;
                    data_words.push((data_cursor, v.to_bits(), line.num));
                    data_cursor += 1;
                }
            }
            ".space" => data_cursor += parse_count(stmt, line.num)?,
            ".org" => data_cursor = parse_count(stmt, line.num)?,
            _ => {
                let inst = encode(stmt, &ctx)?;
                prog.insts.push(inst);
            }
        }
    }

    for (name, val) in labels {
        if let LabelVal::Code(addr) = val {
            prog.labels.insert(name.to_string(), *addr);
        }
    }

    if let Some((name, line)) = entry {
        match labels.get(name) {
            Some(LabelVal::Code(addr)) => prog.entry = *addr,
            Some(LabelVal::Data(_)) | Some(LabelVal::Const(_)) => {
                return Err(AsmError::new(line, format!("entry `{name}` is not a code label")))
            }
            None => return Err(AsmError::new(line, format!("undefined entry label `{name}`"))),
        }
    }

    prog.data = coalesce(data_words)?;
    prog.validate().map_err(|e| AsmError::new(0, format!("program validation failed: {e}")))?;
    Ok(prog)
}

/// Groups (addr, word) pairs into contiguous segments, rejecting
/// duplicate definitions of the same address.
fn coalesce(mut words: Vec<(u64, u64, usize)>) -> Result<Vec<DataSegment>, AsmError> {
    words.sort_by_key(|&(addr, _, _)| addr);
    for pair in words.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(AsmError::new(pair[1].2, format!("data word {} defined twice", pair[1].0)));
        }
    }
    let mut segs: Vec<DataSegment> = Vec::new();
    for (addr, word, _) in words {
        match segs.last_mut() {
            Some(seg) if seg.end() == addr => seg.words.push(word),
            _ => segs.push(DataSegment { base: addr, words: vec![word] }),
        }
    }
    Ok(segs)
}

fn valid_equ_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn require_data(seg: Segment, line: usize, head: &str) -> Result<(), AsmError> {
    if seg == Segment::Data {
        Ok(())
    } else {
        Err(AsmError::new(line, format!("`{head}` is only allowed in the .data segment")))
    }
}

fn parse_count(stmt: &Stmt<'_>, line: usize) -> Result<u64, AsmError> {
    let [text] = expect_n::<1>(stmt, line)?;
    parse_int(text)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| AsmError::new(line, format!("invalid count `{text}`")))
}

fn expect_n<'a, const N: usize>(stmt: &Stmt<'a>, line: usize) -> Result<[&'a str; N], AsmError> {
    if stmt.operands.len() != N {
        return Err(AsmError::new(
            line,
            format!("`{}` expects {N} operand(s), got {}", stmt.head, stmt.operands.len()),
        ));
    }
    let mut out = [""; N];
    for (slot, op) in out.iter_mut().zip(stmt.operands.iter()) {
        *slot = op;
    }
    Ok(out)
}

fn parse_int(text: &str) -> Option<i64> {
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -value } else { value })
}

/// Shared operand-parsing context for one source line.
struct Ctx<'a> {
    labels: &'a BTreeMap<&'a str, LabelVal>,
    line: usize,
}

impl Ctx<'_> {
    fn err(&self, msg: impl Into<String>) -> AsmError {
        AsmError::new(self.line, msg)
    }

    fn greg(&self, text: &str) -> Result<GReg, AsmError> {
        text.parse().map_err(|e| self.err(format!("{e}")))
    }

    fn freg(&self, text: &str) -> Result<FReg, AsmError> {
        text.parse().map_err(|e| self.err(format!("{e}")))
    }

    fn reg(&self, text: &str) -> Result<Reg, AsmError> {
        text.parse().map_err(|e| self.err(format!("{e}")))
    }

    fn int_or_label(&self, text: &str) -> Result<i64, AsmError> {
        if let Some(v) = parse_int(text) {
            return Ok(v);
        }
        self.labels
            .get(text)
            .map(|v| v.as_i64())
            .ok_or_else(|| self.err(format!("undefined label or bad integer `{text}`")))
    }

    /// `#int`, `#float-label`... an immediate: integer literal or label.
    fn imm(&self, text: &str) -> Result<i64, AsmError> {
        let body = text
            .strip_prefix('#')
            .ok_or_else(|| self.err(format!("expected immediate `#...`, got `{text}`")))?;
        self.int_or_label(body)
    }

    fn fimm(&self, text: &str) -> Result<f64, AsmError> {
        let body = text
            .strip_prefix('#')
            .ok_or_else(|| self.err(format!("expected immediate `#...`, got `{text}`")))?;
        body.parse().map_err(|_| self.err(format!("invalid float literal `{body}`")))
    }

    /// Register or `#imm`.
    fn gsrc(&self, text: &str) -> Result<GSrc, AsmError> {
        if text.starts_with('#') {
            Ok(GSrc::Imm(self.imm(text)?))
        } else {
            Ok(GSrc::Reg(self.greg(text)?))
        }
    }

    /// `off(base)` with `off` an integer or label; bare `(base)` means
    /// offset zero.
    fn memop(&self, text: &str) -> Result<(i64, GReg), AsmError> {
        let open = self.find_paren(text).ok_or_else(|| {
            self.err(format!("expected memory operand `off(base)`, got `{text}`"))
        })?;
        let off_text = text[..open].trim();
        let inner = text[open + 1..]
            .strip_suffix(')')
            .ok_or_else(|| self.err(format!("missing `)` in memory operand `{text}`")))?;
        let off = if off_text.is_empty() { 0 } else { self.int_or_label(off_text)? };
        Ok((off, self.greg(inner.trim())?))
    }

    fn find_paren(&self, text: &str) -> Option<usize> {
        text.find('(')
    }

    /// Branch/jump target: label or `@abs`.
    fn target(&self, text: &str) -> Result<u32, AsmError> {
        if let Some(abs) = text.strip_prefix('@') {
            return abs.parse().map_err(|_| self.err(format!("invalid absolute target `{text}`")));
        }
        match self.labels.get(text) {
            Some(LabelVal::Code(addr)) => Ok(*addr),
            Some(LabelVal::Data(_)) | Some(LabelVal::Const(_)) => {
                Err(self.err(format!("`{text}` is not a code label")))
            }
            None => Err(self.err(format!("undefined label `{text}`"))),
        }
    }
}

fn int_op(head: &str) -> Option<IntOp> {
    IntOp::ALL.into_iter().find(|op| op.mnemonic() == head)
}

fn fp_bin_op(head: &str) -> Option<FpBinOp> {
    FpBinOp::ALL.into_iter().find(|op| op.mnemonic() == head)
}

fn fp_un_op(head: &str) -> Option<FpUnOp> {
    FpUnOp::ALL.into_iter().find(|op| op.mnemonic() == head)
}

fn branch_cond(head: &str) -> Option<BranchCond> {
    BranchCond::ALL.into_iter().find(|c| c.mnemonic() == head)
}

fn fcmp_cond(head: &str) -> Option<BranchCond> {
    let suffix = head.strip_prefix("fcmp")?;
    BranchCond::ALL.into_iter().find(|c| c.suffix() == suffix)
}

fn encode(stmt: &Stmt<'_>, ctx: &Ctx<'_>) -> Result<Inst, AsmError> {
    let line = ctx.line;
    let head = &*stmt.head;

    if let Some(op) = int_op(head) {
        let [rd, rs, src2] = expect_n::<3>(stmt, line)?;
        return Ok(Inst::IntOp { op, rd: ctx.greg(rd)?, rs: ctx.greg(rs)?, src2: ctx.gsrc(src2)? });
    }
    if let Some(op) = fp_bin_op(head) {
        let [fd, fs, ft] = expect_n::<3>(stmt, line)?;
        return Ok(Inst::FpBin { op, fd: ctx.freg(fd)?, fs: ctx.freg(fs)?, ft: ctx.freg(ft)? });
    }
    if let Some(op) = fp_un_op(head) {
        let [fd, fs] = expect_n::<2>(stmt, line)?;
        return Ok(Inst::FpUn { op, fd: ctx.freg(fd)?, fs: ctx.freg(fs)? });
    }
    if let Some(cond) = fcmp_cond(head) {
        let [rd, fs, ft] = expect_n::<3>(stmt, line)?;
        return Ok(Inst::FpCmp { cond, rd: ctx.greg(rd)?, fs: ctx.freg(fs)?, ft: ctx.freg(ft)? });
    }
    if let Some(cond) = branch_cond(head) {
        let [rs, src2, target] = expect_n::<3>(stmt, line)?;
        return Ok(Inst::Branch {
            cond,
            rs: ctx.greg(rs)?,
            src2: ctx.gsrc(src2)?,
            target: ctx.target(target)?,
        });
    }

    match head {
        "li" => {
            let [rd, imm] = expect_n::<2>(stmt, line)?;
            Ok(Inst::Li { rd: ctx.greg(rd)?, imm: ctx.imm(imm)? })
        }
        "lif" => {
            let [fd, imm] = expect_n::<2>(stmt, line)?;
            Ok(Inst::LiF { fd: ctx.freg(fd)?, imm: ctx.fimm(imm)? })
        }
        "mv" => {
            let [rd, rs] = expect_n::<2>(stmt, line)?;
            Ok(Inst::IntOp {
                op: IntOp::Add,
                rd: ctx.greg(rd)?,
                rs: ctx.greg(rs)?,
                src2: GSrc::Imm(0),
            })
        }
        "cvtif" => {
            let [fd, rs] = expect_n::<2>(stmt, line)?;
            Ok(Inst::CvtIF { fd: ctx.freg(fd)?, rs: ctx.greg(rs)? })
        }
        "cvtfi" => {
            let [rd, fs] = expect_n::<2>(stmt, line)?;
            Ok(Inst::CvtFI { rd: ctx.greg(rd)?, fs: ctx.freg(fs)? })
        }
        "lw" | "lf" => {
            let [dst, mem] = expect_n::<2>(stmt, line)?;
            let dst = if head == "lw" { Reg::G(ctx.greg(dst)?) } else { Reg::F(ctx.freg(dst)?) };
            let (off, base) = ctx.memop(mem)?;
            Ok(Inst::Load { dst, base, off })
        }
        "sw" | "sf" | "swp" | "sfp" => {
            let [src, mem] = expect_n::<2>(stmt, line)?;
            let src = if head.starts_with("sw") {
                Reg::G(ctx.greg(src)?)
            } else {
                Reg::F(ctx.freg(src)?)
            };
            let (off, base) = ctx.memop(mem)?;
            Ok(Inst::Store { src, base, off, gated: head.ends_with('p') })
        }
        "j" => {
            let [target] = expect_n::<1>(stmt, line)?;
            Ok(Inst::Jump { target: ctx.target(target)? })
        }
        "jr" => {
            let [rs] = expect_n::<1>(stmt, line)?;
            Ok(Inst::JumpReg { rs: ctx.greg(rs)? })
        }
        "halt" => expect_n::<0>(stmt, line).map(|_| Inst::Halt),
        "nop" => expect_n::<0>(stmt, line).map(|_| Inst::Nop),
        "fastfork" => expect_n::<0>(stmt, line).map(|_| Inst::FastFork),
        "chgpri" => expect_n::<0>(stmt, line).map(|_| Inst::ChgPri),
        "killothers" => expect_n::<0>(stmt, line).map(|_| Inst::KillOthers),
        "qunmap" => expect_n::<0>(stmt, line).map(|_| Inst::QUnmap),
        "drain" => expect_n::<0>(stmt, line).map(|_| Inst::Drain),
        "qmap" => {
            let [read, write] = expect_n::<2>(stmt, line)?;
            Ok(Inst::QMap { read: ctx.reg(read)?, write: ctx.reg(write)? })
        }
        "lpid" => {
            let [rd] = expect_n::<1>(stmt, line)?;
            Ok(Inst::Lpid { rd: ctx.greg(rd)? })
        }
        "nlp" => {
            let [rd] = expect_n::<1>(stmt, line)?;
            Ok(Inst::Nlp { rd: ctx.greg(rd)? })
        }
        "setrot" => {
            let [spec] = expect_n::<1>(stmt, line)?;
            let mut parts = spec.split_whitespace();
            let mode = match (parts.next(), parts.next(), parts.next()) {
                (Some("explicit"), None, _) => RotationMode::Explicit,
                (Some("implicit"), Some(interval), None) => {
                    let n = ctx.imm(interval)?;
                    let interval = u32::try_from(n)
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| ctx.err(format!("invalid rotation interval `{n}`")))?;
                    RotationMode::Implicit { interval }
                }
                _ => {
                    return Err(ctx.err(format!(
                        "expected `setrot explicit` or `setrot implicit #N`, got `{spec}`"
                    )))
                }
            };
            Ok(Inst::SetRotation { mode })
        }
        _ => Err(AsmError::new(line, format!("unknown mnemonic `{head}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Program {
        assemble(src).unwrap()
    }

    #[test]
    fn minimal_program() {
        let prog = asm("halt");
        assert_eq!(prog.insts, vec![Inst::Halt]);
        assert_eq!(prog.entry, 0);
    }

    #[test]
    fn arithmetic_forms() {
        let prog = asm("add r1, r2, r3\nsub r4, r5, #-7\nmul r6, r7, r8");
        assert_eq!(
            prog.insts[0],
            Inst::IntOp { op: IntOp::Add, rd: GReg(1), rs: GReg(2), src2: GSrc::Reg(GReg(3)) }
        );
        assert_eq!(
            prog.insts[1],
            Inst::IntOp { op: IntOp::Sub, rd: GReg(4), rs: GReg(5), src2: GSrc::Imm(-7) }
        );
    }

    #[test]
    fn hex_immediates() {
        let prog = asm("li r1, #0x10\nli r2, #-0x2");
        assert_eq!(prog.insts[0], Inst::Li { rd: GReg(1), imm: 16 });
        assert_eq!(prog.insts[1], Inst::Li { rd: GReg(2), imm: -2 });
    }

    #[test]
    fn labels_resolve_forward_and_back() {
        let prog = asm("start: beq r1, #0, end\n j start\nend: halt");
        assert_eq!(
            prog.insts[0],
            Inst::Branch { cond: BranchCond::Eq, rs: GReg(1), src2: GSrc::Imm(0), target: 2 }
        );
        assert_eq!(prog.insts[1], Inst::Jump { target: 0 });
    }

    #[test]
    fn memory_operands() {
        let prog = asm(".data\nv: .word 5\n.text\nlw r1, v(r0)\nlf f1, 4(r2)\nsw r1, (r3)");
        assert_eq!(prog.insts[0], Inst::Load { dst: Reg::G(GReg(1)), base: GReg(0), off: 0 });
        assert_eq!(prog.insts[1], Inst::Load { dst: Reg::F(FReg(1)), base: GReg(2), off: 4 });
        assert_eq!(
            prog.insts[2],
            Inst::Store { src: Reg::G(GReg(1)), base: GReg(3), off: 0, gated: false }
        );
        assert_eq!(prog.data, vec![DataSegment { base: 0, words: vec![5] }]);
    }

    #[test]
    fn data_labels_as_immediates_and_words() {
        let prog = asm(
            ".data\nhead: .word node\nnode: .word 1, 2\n.text\nli r1, #head\nlw r2, 0(r1)\nhalt",
        );
        // head at 0 holds the address of node (1).
        assert_eq!(prog.data[0].base, 0);
        assert_eq!(prog.data[0].words, vec![1, 1, 2]);
        assert_eq!(prog.insts[0], Inst::Li { rd: GReg(1), imm: 0 });
    }

    #[test]
    fn float_data_and_lif() {
        let prog = asm(".data\nc: .float 0.5, -2.0\n.text\nlif f1, #1.25\nhalt");
        assert_eq!(prog.data[0].words, vec![0.5f64.to_bits(), (-2.0f64).to_bits()]);
        assert_eq!(prog.insts[0], Inst::LiF { fd: FReg(1), imm: 1.25 });
    }

    #[test]
    fn space_and_org() {
        let prog = asm(".data\na: .word 1\n.space 3\nb: .word 2\n.org 10\nc: .word 3\n.text\nhalt");
        assert_eq!(prog.data.len(), 3);
        assert_eq!(prog.data[0], DataSegment { base: 0, words: vec![1] });
        assert_eq!(prog.data[1], DataSegment { base: 4, words: vec![2] });
        assert_eq!(prog.data[2], DataSegment { base: 10, words: vec![3] });
    }

    #[test]
    fn entry_directive() {
        let prog = asm("nop\nmain: halt\n.entry main");
        assert_eq!(prog.entry, 1);
    }

    #[test]
    fn special_instructions() {
        let prog = asm(
            "fastfork\nchgpri\nkillothers\nqmap r4, f5\nqunmap\nlpid r9\nsetrot implicit #8\nsetrot explicit\nswp r1, 0(r2)\nsfp f1, 0(r2)",
        );
        assert_eq!(prog.insts[0], Inst::FastFork);
        assert_eq!(prog.insts[3], Inst::QMap { read: Reg::G(GReg(4)), write: Reg::F(FReg(5)) });
        assert_eq!(prog.insts[5], Inst::Lpid { rd: GReg(9) });
        assert_eq!(
            prog.insts[6],
            Inst::SetRotation { mode: RotationMode::Implicit { interval: 8 } }
        );
        assert_eq!(prog.insts[7], Inst::SetRotation { mode: RotationMode::Explicit });
        assert!(matches!(prog.insts[8], Inst::Store { gated: true, .. }));
    }

    #[test]
    fn pseudo_mv() {
        let prog = asm("mv r1, r2");
        assert_eq!(
            prog.insts[0],
            Inst::IntOp { op: IntOp::Add, rd: GReg(1), rs: GReg(2), src2: GSrc::Imm(0) }
        );
    }

    #[test]
    fn absolute_targets() {
        let prog = asm("j @1\nhalt");
        assert_eq!(prog.insts[0], Inst::Jump { target: 1 });
    }

    #[test]
    fn fcmp_family() {
        let prog = asm("fcmplt r1, f2, f3\nfcmpge r4, f5, f6");
        assert_eq!(
            prog.insts[0],
            Inst::FpCmp { cond: BranchCond::Lt, rd: GReg(1), fs: FReg(2), ft: FReg(3) }
        );
        assert_eq!(
            prog.insts[1],
            Inst::FpCmp { cond: BranchCond::Ge, rd: GReg(4), fs: FReg(5), ft: FReg(6) }
        );
    }

    // --- error cases ---

    #[test]
    fn unknown_mnemonic() {
        let err = assemble("frobnicate r1").unwrap_err();
        assert!(err.to_string().contains("unknown mnemonic"));
    }

    #[test]
    fn wrong_operand_count() {
        let err = assemble("add r1, r2").unwrap_err();
        assert!(err.to_string().contains("expects 3 operand(s)"));
    }

    #[test]
    fn undefined_label() {
        let err = assemble("j nowhere").unwrap_err();
        assert!(err.to_string().contains("undefined label"));
    }

    #[test]
    fn duplicate_label() {
        let err = assemble("a: nop\na: halt").unwrap_err();
        assert!(err.to_string().contains("duplicate label"));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn data_label_not_branch_target() {
        let err = assemble(".data\nv: .word 1\n.text\nj v").unwrap_err();
        assert!(err.to_string().contains("not a code label"));
    }

    #[test]
    fn instructions_outside_text_rejected() {
        let err = assemble(".data\nadd r1, r2, r3").unwrap_err();
        assert!(err.to_string().contains(".text"));
    }

    #[test]
    fn word_outside_data_rejected() {
        let err = assemble(".word 3").unwrap_err();
        assert!(err.to_string().contains(".data"));
    }

    #[test]
    fn duplicate_data_address_rejected() {
        let err = assemble(".data\n.word 1\n.org 0\n.word 2\n.text\nhalt").unwrap_err();
        assert!(err.to_string().contains("defined twice"));
    }

    #[test]
    fn bad_entry_rejected() {
        assert!(assemble("halt\n.entry nowhere").is_err());
        assert!(assemble(".data\nv: .word 1\n.text\nhalt\n.entry v").is_err());
    }

    #[test]
    fn bad_register_reports_line() {
        let err = assemble("nop\nadd r1, r99, r2").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("r99"));
    }

    #[test]
    fn bad_rotation_interval() {
        assert!(assemble("setrot implicit #0").is_err());
        assert!(assemble("setrot sideways").is_err());
    }

    #[test]
    fn float_ops() {
        let prog = asm("fadd f1, f2, f3\nfdiv f4, f5, f6\nfabs f7, f8\nfmov f9, f10");
        assert_eq!(
            prog.insts[0],
            Inst::FpBin { op: FpBinOp::FAdd, fd: FReg(1), fs: FReg(2), ft: FReg(3) }
        );
        assert_eq!(
            prog.insts[1],
            Inst::FpBin { op: FpBinOp::FDiv, fd: FReg(4), fs: FReg(5), ft: FReg(6) }
        );
        assert_eq!(prog.insts[2], Inst::FpUn { op: FpUnOp::FAbs, fd: FReg(7), fs: FReg(8) });
        assert_eq!(prog.insts[3], Inst::FpUn { op: FpUnOp::FMov, fd: FReg(9), fs: FReg(10) });
    }
}

#[cfg(test)]
mod equ_tests {
    use super::*;

    #[test]
    fn equ_defines_immediates_and_offsets() {
        let prog = assemble(
            ".equ N, 64\n.equ BASE, 0x100\nli r1, #N\nlw r2, BASE(r0)\nslt r3, r1, #N\nhalt",
        )
        .unwrap();
        assert_eq!(prog.insts[0], Inst::Li { rd: GReg(1), imm: 64 });
        assert_eq!(prog.insts[1], Inst::Load { dst: Reg::G(GReg(2)), base: GReg(0), off: 256 });
    }

    #[test]
    fn equ_values_can_reference_earlier_names() {
        let prog = assemble(".equ A, 10\n.equ B, A\nli r1, #B\nhalt").unwrap();
        assert_eq!(prog.insts[0], Inst::Li { rd: GReg(1), imm: 10 });
    }

    #[test]
    fn equ_is_not_a_branch_target() {
        let err = assemble(".equ X, 3\nj X").unwrap_err();
        assert!(err.to_string().contains("not a code label"));
    }

    #[test]
    fn equ_rejects_duplicates_and_junk() {
        assert!(assemble(".equ A, 1\n.equ A, 2\nhalt")
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        assert!(assemble(".equ 9x, 1\nhalt").is_err());
        assert!(assemble(".equ A, nonsense\nhalt").is_err());
        assert!(assemble(".equ A\nhalt").is_err());
    }

    #[test]
    fn equ_works_in_data_directives() {
        let prog = assemble(".equ V, -7\n.data\nd: .word V\n.text\nhalt").unwrap();
        assert_eq!(prog.data[0].words, vec![(-7i64) as u64]);
    }
}
