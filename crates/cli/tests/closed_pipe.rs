//! The `hirata` binary's output end: a reader that closes stdout early,
//! as `head` does, ends the command quietly and successfully.

use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_early_ends_the_output_quietly() {
    let program = format!("{}/../../examples/asm/fig6_while.s", env!("CARGO_MANIFEST_DIR"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_hirata"))
        .args(["trace", &program, "--slots", "4", "--format", "text"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hirata starts");
    // The trace is longer than a pipe holds, so writing it meets the
    // closed end however fast the command runs.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("hirata ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
