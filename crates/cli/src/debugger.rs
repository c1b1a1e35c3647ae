//! `hirata debug` — a scriptable single-step debugger for the
//! simulated machine.
//!
//! Commands (one per line; from stdin interactively, or from any
//! reader in tests):
//!
//! ```text
//! s [n]        step n cycles (default 1)
//! c            continue until a breakpoint, completion, or the limit
//! b <pc>       toggle a breakpoint on issue of instruction <pc>
//! r <ctx>      print general registers of context frame <ctx>
//! f <ctx>      print floating registers of context frame <ctx>
//! m <a> <b>    print data-memory words [a, b)
//! i            machine state: cycle, slots, priorities, queues
//! q            quit
//! ```

use std::fmt::Write as _;

use hirata_isa::{FReg, GReg, Program};
use hirata_sim::{Config, Machine};

use crate::CliError;

/// Runs the debugger loop, reading commands from `input` and returning
/// everything that would have been printed.
///
/// # Errors
///
/// Machine checks surface as [`CliError::Failure`]; malformed commands
/// are reported inline and do not abort the session.
pub fn debug_session(config: Config, program: &Program, input: &str) -> Result<String, CliError> {
    // Single-stepping is cycle-exact: `s 1` means one cycle, and
    // `Machine::step` never fast-forwards.
    let mut machine =
        Machine::new(config, program).map_err(|e| CliError::Failure(e.to_string()))?;
    machine.set_trace(true);
    let mut out = String::new();
    let mut breakpoints: Vec<u32> = Vec::new();
    let mut seen_events = 0usize;
    let mut done = false;

    let step_cycles = |machine: &mut Machine,
                       n: u64,
                       breakpoints: &[u32],
                       seen: &mut usize,
                       out: &mut String|
     -> Result<bool, CliError> {
        for _ in 0..n {
            let finished = machine.step().map_err(|e| CliError::Failure(e.to_string()))?;
            let trace = machine.trace();
            while *seen < trace.len() {
                let e = trace[*seen];
                *seen += 1;
                if breakpoints.contains(&e.pc) {
                    let _ = writeln!(
                        out,
                        "breakpoint: slot {} issued @{} `{}` at cycle {}",
                        e.slot, e.pc, program.insts[e.pc as usize], e.cycle
                    );
                    return Ok(finished);
                }
            }
            if finished {
                let _ = writeln!(out, "machine finished at cycle {}", machine.cycles());
                return Ok(true);
            }
        }
        Ok(false)
    };

    let _ =
        writeln!(out, "debugging {} instructions; type `i` for state, `q` to quit", program.len());
    for raw in input.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().expect("non-empty line");
        match cmd {
            "q" => break,
            "s" => {
                let n: u64 = parts.next().and_then(|t| t.parse().ok()).unwrap_or(1);
                if !done {
                    done = step_cycles(&mut machine, n, &breakpoints, &mut seen_events, &mut out)?;
                }
                let _ = writeln!(out, "cycle {}", machine.cycles());
            }
            "c" => {
                // Bounded "continue": the watchdog still protects us.
                while !done {
                    let before = out.len();
                    done = step_cycles(
                        &mut machine,
                        10_000,
                        &breakpoints,
                        &mut seen_events,
                        &mut out,
                    )?;
                    if out.len() != before {
                        break; // hit a breakpoint or finished
                    }
                }
            }
            "b" => match parts.next().and_then(|t| t.parse::<u32>().ok()) {
                Some(pc) if (pc as usize) < program.len() => {
                    if let Some(i) = breakpoints.iter().position(|&b| b == pc) {
                        breakpoints.remove(i);
                        let _ = writeln!(out, "breakpoint removed at @{pc}");
                    } else {
                        breakpoints.push(pc);
                        let _ = writeln!(
                            out,
                            "breakpoint set at @{pc} `{}`",
                            program.insts[pc as usize]
                        );
                    }
                }
                _ => {
                    let _ = writeln!(out, "usage: b <pc> (0..{})", program.len());
                }
            },
            "r" | "f" => {
                let frames = machine.context_frames();
                let ctx = match parts.next().map(str::parse::<usize>) {
                    None => 0,
                    Some(Ok(ctx)) if ctx < frames => ctx,
                    Some(_) => {
                        let _ = writeln!(out, "usage: {cmd} <ctx> (0..{frames})");
                        continue;
                    }
                };
                if cmd == "r" {
                    for n in (0..32).step_by(4) {
                        let _ = writeln!(
                            out,
                            "r{n:<2} {:>20} r{:<2} {:>20} r{:<2} {:>20} r{:<2} {:>20}",
                            machine.reg_g(ctx, GReg(n)),
                            n + 1,
                            machine.reg_g(ctx, GReg(n + 1)),
                            n + 2,
                            machine.reg_g(ctx, GReg(n + 2)),
                            n + 3,
                            machine.reg_g(ctx, GReg(n + 3)),
                        );
                    }
                } else {
                    for n in (0..32).step_by(4) {
                        let _ = writeln!(
                            out,
                            "f{n:<2} {:>18} f{:<2} {:>18} f{:<2} {:>18} f{:<2} {:>18}",
                            machine.reg_f(ctx, FReg(n)),
                            n + 1,
                            machine.reg_f(ctx, FReg(n + 1)),
                            n + 2,
                            machine.reg_f(ctx, FReg(n + 2)),
                            n + 3,
                            machine.reg_f(ctx, FReg(n + 3)),
                        );
                    }
                }
            }
            "m" => {
                let a: Option<u64> = parts.next().and_then(|t| t.parse().ok());
                let b: Option<u64> = parts.next().and_then(|t| t.parse().ok());
                match (a, b) {
                    (Some(a), Some(b)) if b >= a => {
                        for addr in a..b {
                            match machine.memory().read(addr) {
                                Ok(bits) => {
                                    let _ = writeln!(
                                        out,
                                        "[{addr:>6}] i64 {:<20} f64 {}",
                                        bits as i64,
                                        f64::from_bits(bits)
                                    );
                                }
                                Err(e) => {
                                    let _ = writeln!(out, "[{addr:>6}] {e}");
                                    break;
                                }
                            }
                        }
                    }
                    _ => {
                        let _ = writeln!(out, "usage: m <a> <b>");
                    }
                }
            }
            "i" => {
                let _ = writeln!(out, "cycle {}", machine.cycles());
                let _ = writeln!(out, "priority order {:?}", machine.priority_order());
                let _ = writeln!(out, "queue depths   {:?}", machine.queue_depths());
                for s in 0..machine.thread_slots() {
                    let v = machine.slot_view(s);
                    let _ = writeln!(
                        out,
                        "slot {s}: ctx {:?} lpid {:?} next-pc {:?} window {} standby {}",
                        v.context, v.lpid, v.next_pc, v.window_len, v.standby_occupancy
                    );
                }
            }
            other => {
                let _ = writeln!(out, "unknown command `{other}` (s/c/b/r/f/m/i/q)");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirata_asm::assemble;

    fn prog() -> Program {
        assemble("fastfork\nlpid r1\nmul r2, r1, r1\nsw r2, 100(r1)\nhalt").unwrap()
    }

    #[test]
    fn stepping_reports_cycles_and_state() {
        let out = debug_session(Config::multithreaded(2), &prog(), "s 3\ni\ns 100\ni\nq").unwrap();
        assert!(out.contains("cycle 3"), "{out}");
        assert!(out.contains("priority order"), "{out}");
        assert!(out.contains("machine finished"), "{out}");
    }

    #[test]
    fn single_steps_advance_one_cycle_through_stalls() {
        // One slot stalled on a 20-cycle divide: a run would jump the
        // span, but every `s 1` is exactly one cycle.
        let program = assemble("lif f1, #6.0\nfdiv f2, f1, f1\nfadd f3, f2, f2\nhalt").unwrap();
        let input = "s 1\n".repeat(24);
        let out = debug_session(Config::multithreaded(1), &program, &input).unwrap();
        let cycles: Vec<&str> = out.lines().filter(|l| l.starts_with("cycle ")).collect();
        let expected: Vec<String> = (1..=24).map(|c| format!("cycle {c}")).collect();
        assert_eq!(cycles, expected, "{out}");
    }

    #[test]
    fn breakpoints_fire_on_issue() {
        let out = debug_session(Config::multithreaded(2), &prog(), "b 2\nc\nq").unwrap();
        assert!(out.contains("breakpoint set at @2"), "{out}");
        assert!(out.contains("issued @2 `mul r2, r1, r1`"), "{out}");
    }

    #[test]
    fn breakpoint_toggles_off() {
        let out = debug_session(Config::multithreaded(2), &prog(), "b 2\nb 2\nc\nq").unwrap();
        assert!(out.contains("breakpoint removed"), "{out}");
        assert!(out.contains("machine finished"), "{out}");
    }

    #[test]
    fn registers_and_memory_inspection() {
        let out = debug_session(Config::multithreaded(2), &prog(), "c\nr 1\nm 100 102\nq").unwrap();
        assert!(out.contains("i64 1"), "thread 1 stored 1: {out}");
    }

    #[test]
    fn junk_commands_are_reported_not_fatal() {
        let input = "zap\nb\nm 5\nr 99\nf 2\nr x\nq";
        let out = debug_session(Config::multithreaded(2), &prog(), input).unwrap();
        assert!(out.contains("unknown command `zap`"));
        assert!(out.contains("usage: b <pc>"));
        assert!(out.contains("usage: m <a> <b>"));
        // Two slots have two context frames, 0 and 1.
        assert_eq!(out.matches("usage: r <ctx> (0..2)").count(), 2, "{out}");
        assert!(out.contains("usage: f <ctx> (0..2)"), "{out}");
    }
}
