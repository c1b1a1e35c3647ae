//! The `hirata` binary on input it must reject: a typed error and exit
//! 1, or a usage line inside a debugging session, never a panic (exit
//! 101).

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn fib() -> String {
    format!("{}/../../examples/asm/fib.s", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `hirata` with `args`, feeding it `stdin`.
fn hirata(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hirata"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hirata starts");
    child.stdin.take().expect("stdin is piped").write_all(stdin.as_bytes()).expect("stdin written");
    child.wait_with_output().expect("hirata ends")
}

#[test]
fn an_emulator_of_no_slots_is_a_typed_error() {
    let out = hirata(&["emu", &fib(), "--slots", "0"], "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("thread_slots must be at least 1"), "{stderr}");
}

#[test]
fn the_debugger_reports_a_context_past_the_last_frame() {
    let out = hirata(&["debug", &fib(), "--slots", "2"], "r 99\nf 2\nq\n");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stdout.contains("usage: r <ctx> (0..2)"), "{stdout}");
    assert!(stdout.contains("usage: f <ctx> (0..2)"), "{stdout}");
}
