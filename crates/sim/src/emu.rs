//! A fast *architectural* emulator — no pipelines, no latencies — used
//! as the golden model for differential testing of the cycle-level
//! machine, and handy for quickly checking programs.
//!
//! Threads execute round-robin, one instruction per turn. Blocking
//! constructs (queue-register reads, `chgpri`/`killothers`/gated
//! stores waiting for the highest priority) simply skip the turn until
//! they can proceed. For programs whose results are
//! timing-independent — which is everything except code that races
//! through shared memory without the §2.3.3 ordering primitives — the
//! final memory image matches [`crate::Machine`]'s exactly, because
//! both use the same operation semantics (the `exec` module).

use std::collections::VecDeque;
use std::sync::Arc;

use hirata_isa::{Inst, Program, Reg};
use hirata_mem::Memory;

use crate::config::ConfigError;
use crate::error::MachineError;
use crate::exec::{branch_taken, fu_action, resolve_operands, FuAction};
use crate::predecode::{operand, PredecodedProgram};
use crate::regfile::RegBank;

/// Result of an emulator run.
#[derive(Debug)]
pub struct EmuOutcome {
    /// Final data memory.
    pub memory: Memory,
    /// Instructions retired.
    pub instructions: u64,
    /// Threads killed by `killothers`.
    pub threads_killed: u64,
    /// Final architectural register image per logical processor: the
    /// 32 integer registers (two's complement) followed by the 32
    /// floating registers (IEEE-754 bits). Comparable against
    /// [`crate::Machine::register_image`] for differential testing.
    pub regs: Vec<Vec<u64>>,
    /// Entries left in each queue-register link, indexed like
    /// [`crate::Machine::queue_depths`].
    pub queue_depths: Vec<usize>,
    /// Per-thread dynamic instruction traces (empty unless recording
    /// was requested with [`Emulator::execute_with_traces`]).
    pub traces: Vec<Vec<Inst>>,
}

#[derive(Debug)]
struct EmuThread {
    regs: RegBank,
    pc: u32,
    lpid: i64,
    alive: bool,
    qread: Option<Reg>,
    qwrite: Option<Reg>,
}

/// The architectural emulator. See the module docs.
#[derive(Debug)]
pub struct Emulator {
    program: Arc<PredecodedProgram>,
    memory: Memory,
    threads: Vec<EmuThread>,
    queues: Vec<VecDeque<u64>>,
    /// Priority ring: `order[0]` is the highest-priority thread index.
    order: Vec<usize>,
    instructions: u64,
    threads_killed: u64,
    traces: Option<Vec<Vec<Inst>>>,
}

impl Emulator {
    /// Creates an emulator for `program` on a logical machine with
    /// `slots` logical processors and `mem_words` of data memory.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] if `slots` is zero, the program is
    /// invalid or its data does not fit.
    pub fn new(program: &Program, slots: usize, mem_words: usize) -> Result<Self, MachineError> {
        Self::from_predecoded(PredecodedProgram::shared(program)?, slots, mem_words)
    }

    /// Creates an emulator from an already-lowered program, sharing
    /// the instruction store with any machines running it (see
    /// [`PredecodedProgram::shared`]).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] if `slots` is zero, as
    /// [`crate::Machine::new`] does, and [`MachineError::Mem`] if the
    /// program's data does not fit in memory.
    pub fn from_predecoded(
        program: Arc<PredecodedProgram>,
        slots: usize,
        mem_words: usize,
    ) -> Result<Self, MachineError> {
        if slots == 0 {
            return Err(MachineError::Config(ConfigError::no_slots()));
        }
        let mut memory = Memory::new(mem_words);
        for seg in program.data() {
            memory.load_block(seg.base, &seg.words).map_err(|source| MachineError::Mem {
                slot: 0,
                pc: 0,
                source,
            })?;
        }
        let mut threads: Vec<EmuThread> = (0..slots)
            .map(|i| EmuThread {
                regs: RegBank::new(),
                pc: 0,
                lpid: i as i64,
                alive: false,
                qread: None,
                qwrite: None,
            })
            .collect();
        threads[0].alive = true;
        threads[0].pc = program.entry();
        Ok(Emulator {
            program,
            memory,
            threads,
            queues: vec![VecDeque::new(); slots],
            order: (0..slots).collect(),
            instructions: 0,
            threads_killed: 0,
            traces: None,
        })
    }

    /// Enables per-thread dynamic-instruction recording (the paper's
    /// §3.1 methodology: "traced instruction sequences were translated
    /// to be used for our simulator").
    pub fn record_traces(&mut self) {
        self.traces = Some(vec![Vec::new(); self.threads.len()]);
    }

    /// Runs to completion (every thread halted/killed).
    ///
    /// # Errors
    ///
    /// Propagates machine checks; `max_steps` bounds the run like the
    /// machine's watchdog.
    pub fn run(mut self, max_steps: u64) -> Result<EmuOutcome, MachineError> {
        let mut steps = 0u64;
        while self.threads.iter().any(|t| t.alive) {
            let mut progressed = false;
            for i in 0..self.threads.len() {
                if !self.threads[i].alive {
                    continue;
                }
                steps += 1;
                if steps > max_steps {
                    return Err(MachineError::Watchdog { cycles: max_steps, slots: Vec::new() });
                }
                progressed |= self.step_thread(i)?;
            }
            if !progressed && self.threads.iter().any(|t| t.alive) {
                // Every live thread is blocked: architectural deadlock.
                return Err(MachineError::Watchdog { cycles: steps, slots: Vec::new() });
            }
        }
        Ok(EmuOutcome {
            regs: self.threads.iter().map(|t| t.regs.image()).collect(),
            queue_depths: self.queues.iter().map(VecDeque::len).collect(),
            memory: self.memory,
            instructions: self.instructions,
            threads_killed: self.threads_killed,
            traces: self.traces.unwrap_or_default(),
        })
    }

    fn highest_live(&self) -> Option<usize> {
        self.order.iter().copied().find(|&t| self.threads[t].alive)
    }

    /// Executes one instruction on thread `i`; returns false if the
    /// thread is blocked this turn.
    fn step_thread(&mut self, i: usize) -> Result<bool, MachineError> {
        let pc = self.threads[i].pc;
        if pc as usize >= self.program.len() {
            return Err(MachineError::PcOutOfRange { slot: i, pc });
        }
        let di = self.program.insts()[pc as usize];
        let inst = di.inst;

        // Blocking conditions.
        if di.needs_highest_priority() && self.highest_live() != Some(i) {
            return Ok(false);
        }
        let read_link = i;
        let write_link = (i + 1) % self.threads.len();
        let needs_queue_read =
            inst.srcs().into_iter().flatten().any(|r| self.threads[i].qread == Some(r));
        if needs_queue_read && self.queues[read_link].is_empty() {
            return Ok(false);
        }

        self.instructions += 1;
        if let Some(traces) = &mut self.traces {
            traces[i].push(inst);
        }
        let mut next_pc = pc + 1;
        match inst {
            Inst::Branch { cond, .. } => {
                let vals = self.read_operands(i, &inst);
                if let Inst::Branch { target, .. } = inst {
                    if branch_taken(cond, vals) {
                        next_pc = target;
                    }
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::JumpReg { .. } => {
                let vals = self.read_operands(i, &inst);
                next_pc = vals[0] as u32;
            }
            Inst::Halt => {
                self.threads[i].alive = false;
            }
            Inst::Nop | Inst::Drain => {}
            Inst::FastFork => {
                for j in 0..self.threads.len() {
                    if j == i {
                        continue;
                    }
                    if self.threads[j].alive {
                        return Err(MachineError::ForkBusy { slot: j, pc });
                    }
                    let (qread, qwrite) = (self.threads[i].qread, self.threads[i].qwrite);
                    // Copy only the architectural values; the emulator
                    // never consults scoreboard state (see `RegBank::
                    // copy_arch_from`).
                    let (parent, child) = if i < j {
                        let (lo, hi) = self.threads.split_at_mut(j);
                        (&lo[i], &mut hi[0])
                    } else {
                        let (lo, hi) = self.threads.split_at_mut(i);
                        (&hi[0], &mut lo[j])
                    };
                    child.regs.copy_arch_from(&parent.regs);
                    let t = &mut self.threads[j];
                    t.pc = pc + 1;
                    t.lpid = j as i64;
                    t.alive = true;
                    t.qread = qread;
                    t.qwrite = qwrite;
                }
                self.threads[i].lpid = i as i64;
            }
            Inst::ChgPri => self.order.rotate_left(1),
            Inst::KillOthers => {
                for j in 0..self.threads.len() {
                    if j != i && self.threads[j].alive {
                        self.threads[j].alive = false;
                        self.threads_killed += 1;
                    }
                }
                for q in &mut self.queues {
                    q.clear();
                }
            }
            Inst::SetRotation { .. } => {} // timing-only
            Inst::QMap { read, write } => {
                if read == write {
                    return Err(MachineError::QueueMisuse {
                        slot: i,
                        pc,
                        detail: format!("qmap maps {read} for both read and write"),
                    });
                }
                self.threads[i].qread = Some(read);
                self.threads[i].qwrite = Some(write);
            }
            _ => {
                // Functional-unit instruction: compute and write back.
                let vals = self.read_operands(i, &inst);
                let nlp = self.threads.len() as i64;
                let action =
                    fu_action(&inst, vals, self.threads[i].lpid, nlp).ok_or_else(|| {
                        MachineError::DecodeAtFu { slot: i, pc, inst: inst.to_string() }
                    })?;
                match action {
                    FuAction::Write(bits) => self.write_dest(i, write_link, &inst, bits),
                    FuAction::Load { addr } => {
                        let bits = self.memory.read(addr).map_err(|source| MachineError::Mem {
                            slot: i,
                            pc,
                            source,
                        })?;
                        self.write_dest(i, write_link, &inst, bits);
                    }
                    FuAction::Store { addr, bits } => {
                        self.memory.write(addr, bits).map_err(|source| MachineError::Mem {
                            slot: i,
                            pc,
                            source,
                        })?;
                    }
                }
            }
        }
        if matches!(inst, Inst::QUnmap) {
            self.threads[i].qread = None;
            self.threads[i].qwrite = None;
        }
        self.threads[i].pc = next_pc;
        Ok(true)
    }

    fn read_operands(&mut self, i: usize, inst: &Inst) -> [u64; 2] {
        let qread = self.threads[i].qread;
        let link = i;
        let mut dequeued: Option<u64> = None;
        let queues = &mut self.queues;
        let regs = &self.threads[i].regs;
        resolve_operands(inst, |r| {
            if qread == Some(r) {
                *dequeued
                    .get_or_insert_with(|| queues[link].pop_front().expect("checked non-empty"))
            } else {
                regs.read(operand(r))
            }
        })
    }

    fn write_dest(&mut self, i: usize, write_link: usize, inst: &Inst, bits: u64) {
        let Some(d) = inst.dest() else { return };
        if self.threads[i].qwrite == Some(d) {
            self.queues[write_link].push_back(bits);
        } else {
            self.threads[i].regs.write(operand(d), bits, 0, 0);
        }
    }

    /// Convenience: build and run in one call.
    ///
    /// # Errors
    ///
    /// As for [`Emulator::new`] and [`Emulator::run`].
    pub fn execute(
        program: &Program,
        slots: usize,
        mem_words: usize,
        max_steps: u64,
    ) -> Result<EmuOutcome, MachineError> {
        Emulator::new(program, slots, mem_words)?.run(max_steps)
    }

    /// Like [`Emulator::execute`], with per-thread dynamic traces
    /// recorded into the outcome.
    ///
    /// # Errors
    ///
    /// As for [`Emulator::execute`].
    pub fn execute_with_traces(
        program: &Program,
        slots: usize,
        mem_words: usize,
        max_steps: u64,
    ) -> Result<EmuOutcome, MachineError> {
        let mut emu = Emulator::new(program, slots, mem_words)?;
        emu.record_traces();
        emu.run(max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_asm::assemble;

    fn run(src: &str, slots: usize) -> EmuOutcome {
        let prog = assemble(src).unwrap();
        Emulator::execute(&prog, slots, 1 << 16, 1_000_000).unwrap()
    }

    #[test]
    fn arithmetic_and_memory() {
        let out = run("li r1, #6\nmul r2, r1, #7\nsw r2, 10(r0)\nhalt", 1);
        assert_eq!(out.memory.read_i64(10).unwrap(), 42);
        assert_eq!(out.instructions, 4);
    }

    #[test]
    fn fork_and_stride() {
        let out = run("fastfork\nlpid r1\nnlp r2\nsw r2, 20(r1)\nhalt", 4);
        for lp in 0..4 {
            assert_eq!(out.memory.read_i64(20 + lp).unwrap(), 4);
        }
    }

    #[test]
    fn queue_ring_and_kill() {
        let out = run(
            "setrot explicit\nqmap r10, r11\nfastfork\nlpid r1\nbne r1, #0, c\nli r11, #5\nkillothers\nhalt\nc: add r3, r10, #1\nsw r3, 30(r0)\nhalt",
            2,
        );
        // Thread 0 kills thread 1; whether the consumer got to store
        // first is a race in the emulator too — but killothers requires
        // the highest priority, which thread 0 holds, so thread 1 dies
        // before its store only if it was still blocked. With
        // round-robin it dequeues on its turn... either way the run
        // terminates and kills at most one thread.
        assert!(out.threads_killed <= 1);
    }

    #[test]
    fn deadlock_is_detected() {
        let prog = assemble("qmap r10, r11\nadd r1, r10, #0\nhalt").unwrap();
        let err = Emulator::execute(&prog, 1, 1 << 12, 10_000).unwrap_err();
        assert!(matches!(err, MachineError::Watchdog { .. }));
    }

    #[test]
    fn no_slots_is_the_machines_config_error() {
        let prog = assemble("halt").unwrap();
        let err = Emulator::new(&prog, 0, 1 << 12).unwrap_err();
        let machine_err = crate::Machine::new(crate::Config::multithreaded(0), &prog).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err:?}");
        assert_eq!(err, machine_err);
    }

    #[test]
    fn pc_overrun_is_detected() {
        let prog = assemble("nop").unwrap();
        let err = Emulator::execute(&prog, 1, 1 << 12, 100).unwrap_err();
        assert!(matches!(err, MachineError::PcOutOfRange { .. }));
    }
}
