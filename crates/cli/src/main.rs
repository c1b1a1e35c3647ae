//! Thin binary wrapper over [`hirata_cli::execute`].

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hirata_cli::execute(&args, hirata_cli::read_file) {
        Ok(out) => write_stdout(out.as_bytes()),
        Err(hirata_cli::CliError::Failure(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        Err(hirata_cli::CliError::Usage(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Writes the command's output. A reader that closes early, as `head`
/// does, ends the output quietly; any other write error is reported.
fn write_stdout(bytes: &[u8]) {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(bytes).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
