//! End-to-end daemon smoke test: boot `hirata serve` on an ephemeral
//! port, submit a small sweep, and check that
//!
//! * the remote result table is byte-identical to a direct `Lab` run,
//! * a resubmission is answered entirely from the artifact store,
//! * interleaved mode produces the same numbers as pool mode,
//! * results and Chrome traces are servable by content hash,
//! * `/stats` reflects the traffic, and `/shutdown` stops the daemon.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hirata_lab::{Job, Lab};
use hirata_serve::client::{fetch_result, fetch_stats, shutdown, submit, Mode, SubmitRequest};
use hirata_serve::json::Json;
use hirata_serve::server::{ServeConfig, Server};
use hirata_serve::{render_sweep_table, sweep_config, sweep_grid, SweepRow};

/// A multithreaded workload with fork/kill and memory traffic (the
/// Figure 6 shape, shrunk).
const PROGRAM: &str = "
    fastfork
    lpid r1
    mul  r2, r1, r1
    add  r3, r1, r2
    sw   r2, 100(r1)
    sw   r3, 200(r1)
    lw   r4, 100(r1)
    add  r5, r4, r3
    sw   r5, 300(r1)
    halt
";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty scratch directory (removed by [`Scratch::drop`]).
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "hirata-serve-{label}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot(
    cache: &Scratch,
    traces: &Scratch,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: 2,
        sim_workers: Some(2),
        cache_dir: Some(cache.0.clone()),
        no_cache: false,
        cache_budget: None,
        trace_dir: traces.0.clone(),
        quiet: true,
    };
    let (addr, handle) = Server::spawn(config).expect("daemon boots");
    (addr.to_string(), handle)
}

fn request(mode: Mode) -> SubmitRequest {
    SubmitRequest {
        name: "prog.s".into(),
        program: PROGRAM.into(),
        slots: vec![1, 2, 4],
        ls: vec![1, 2],
        mode,
        timeout_secs: None,
        trace: false,
    }
}

/// Runs the same sweep directly through a local [`Lab`] and renders
/// the table the CLI would print.
fn direct_table() -> String {
    let program = Arc::new(hirata_asm::assemble(PROGRAM).expect("assembles"));
    let grid = sweep_grid(&[1, 2, 4], &[1, 2]);
    let jobs: Vec<Job> = grid
        .iter()
        .map(|&(slots, ls)| {
            Job::new(
                format!("prog.s s{slots} {ls}LS"),
                sweep_config(slots, ls),
                Arc::clone(&program),
            )
        })
        .collect();
    let engine = Lab::new().quiet().without_cache().with_workers(2);
    let batch = engine.run_batch(jobs);
    let rows: Vec<SweepRow> = grid
        .iter()
        .zip(&batch.results)
        .map(|(&(slots, ls), result)| SweepRow {
            slots,
            ls,
            outcome: match result {
                Ok(out) => Ok((out.stats.cycles, out.stats.instructions)),
                Err(err) => Err(err.to_string()),
            },
        })
        .collect();
    render_sweep_table("prog.s", 2, &rows)
}

fn remote_table(addr: &str, mode: Mode) -> (String, hirata_serve::client::SubmitOutcome) {
    let outcome = submit(addr, &request(mode), &mut |_, _| {}).expect("submission succeeds");
    let rows: Vec<SweepRow> = outcome
        .rows
        .iter()
        .map(|row| SweepRow { slots: row.slots, ls: row.ls, outcome: row.outcome.clone() })
        .collect();
    (render_sweep_table("prog.s", outcome.workers, &rows), outcome)
}

#[test]
fn serve_smoke() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let (addr, handle) = boot(&cache, &traces);

    // Liveness.
    let stats = fetch_stats(&addr).expect("stats");
    assert_eq!(stats.get("submissions").and_then(Json::as_u64), Some(0));

    // Cold submission: everything simulates, and the table is
    // byte-identical to a direct local run of the same grid.
    let want = direct_table();
    let (cold, outcome) = remote_table(&addr, Mode::Pool);
    assert_eq!(cold, want, "remote table differs from direct run");
    assert_eq!(outcome.executed, 6);
    assert_eq!(outcome.cache_hits, 0);
    assert_eq!(outcome.failed, 0);

    // Warm submission: answered entirely from the artifact store,
    // bytes unchanged.
    let (warm, outcome) = remote_table(&addr, Mode::Pool);
    assert_eq!(warm, want, "cached table differs");
    assert_eq!(outcome.cache_hits, 6);
    assert_eq!(outcome.executed, 0);

    // Interleaved mode steps every config round-robin on one daemon
    // thread; numbers must match. (The grid is warm, so force fresh
    // execution through a disjoint grid point set: use the same grid
    // — cache hits are fine, the daemon answers with stored numbers —
    // plus assert the mode is honored via the header worker count.)
    let outcome_il =
        submit(&addr, &request(Mode::Interleaved), &mut |_, _| {}).expect("interleaved submission");
    assert_eq!(outcome_il.workers, 1, "interleaved mode runs on one lane-stepper");
    for (row, want_row) in outcome_il.rows.iter().zip(&outcome.rows) {
        assert_eq!(row.outcome, want_row.outcome, "interleaved diverged at {:?}", row);
        assert!(row.cached, "warm interleaved point re-simulated");
    }

    // Interleaved execution from a cold store must also reproduce the
    // pool numbers: wipe by pointing at fresh keys via extra slots.
    let mut cold_il = request(Mode::Interleaved);
    cold_il.slots = vec![3];
    let il = submit(&addr, &cold_il, &mut |_, _| {}).expect("cold interleaved");
    assert_eq!(il.executed, 2);
    let mut cold_pool = request(Mode::Pool);
    cold_pool.slots = vec![3];
    let pool = submit(&addr, &cold_pool, &mut |_, _| {}).expect("warm pool");
    assert_eq!(pool.cache_hits, 2, "pool did not reuse interleaved results");
    for (a, b) in il.rows.iter().zip(&pool.rows) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.key, b.key, "modes hash the same job differently");
    }

    // Every result is fetchable by its content hash.
    for row in &outcome.rows {
        let (cycles, instructions) = row.outcome.as_ref().expect("row ok");
        let doc = fetch_result(&addr, &row.key).expect("result fetch");
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(*cycles));
        assert_eq!(doc.get("instructions").and_then(Json::as_u64), Some(*instructions));
    }
    assert!(fetch_result(&addr, "0123456789abcdef").is_err(), "unknown key must 404");
    assert!(fetch_result(&addr, "../../etc/passwd").is_err(), "traversal must be rejected");

    // Traced submission: artifacts appear under the trace dir and are
    // servable; tracing re-simulates cached points to get artifacts.
    let mut traced = request(Mode::Pool);
    traced.trace = true;
    traced.slots = vec![1, 2];
    traced.ls = vec![1];
    let outcome = submit(&addr, &traced, &mut |_, _| {}).expect("traced submission");
    assert_eq!(outcome.executed, 2, "tracing must re-simulate to produce artifacts");
    for row in &outcome.rows {
        let trace = fetch_trace(&addr, &row.key).expect("trace fetch");
        assert!(trace.get("traceEvents").is_some(), "not a Chrome trace");
    }

    // Counters add up.
    let stats = fetch_stats(&addr).expect("stats");
    assert_eq!(stats.get("submissions").and_then(Json::as_u64), Some(6));
    assert_eq!(stats.get("jobs_failed").and_then(Json::as_u64), Some(0));
    let cache_stats = stats.get("cache").expect("store enabled");
    assert!(cache_stats.get("entries").and_then(Json::as_u64).unwrap_or(0) >= 8);
    assert!(cache_stats.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 8);

    // Graceful shutdown: the daemon thread exits cleanly.
    shutdown(&addr).expect("shutdown accepted");
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

/// Fetches `/trace/{key}` and parses the Chrome trace JSON.
fn fetch_trace(addr: &str, key: &str) -> std::io::Result<Json> {
    use std::io::BufReader;
    use std::net::TcpStream;

    let mut stream = TcpStream::connect(addr)?;
    hirata_serve::http::write_request(&mut stream, "GET", &format!("/trace/{key}"), b"")?;
    let mut reader = BufReader::new(stream);
    let head = hirata_serve::http::read_response_head(&mut reader)?;
    let body = hirata_serve::http::read_body(&mut reader, &head)?;
    if head.status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("status {}", head.status),
        ));
    }
    Json::parse(std::str::from_utf8(&body).expect("utf8 trace"))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}")))
}

/// A program that assembles but cannot be lowered for the machine (no
/// instructions) fails every grid point once, with the same text in
/// both modes; a point whose configuration is invalid reports the
/// configuration error, which is checked first.
#[test]
fn unlowerable_program_fails_each_point_alike_in_both_modes() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let (addr, handle) = boot(&cache, &traces);
    let sweep = |mode| {
        let request = SubmitRequest {
            program: ".data\n.org 0\n.word 7\n".into(),
            slots: vec![1, 2, 65],
            ls: vec![1],
            ..request(mode)
        };
        submit(&addr, &request, &mut |_, _| {}).expect("submission answered")
    };
    let interleaved = sweep(Mode::Interleaved);
    let pool = sweep(Mode::Pool);
    for outcome in [&interleaved, &pool] {
        assert_eq!((outcome.rows.len(), outcome.failed, outcome.executed), (3, 3, 3));
    }
    for (a, b) in interleaved.rows.iter().zip(&pool.rows) {
        assert_eq!(a.outcome, b.outcome, "modes disagree at {} slots", a.slots);
    }
    let text = |i: usize| interleaved.rows[i].outcome.clone().unwrap_err();
    assert!(text(0).contains("program has no instructions"), "{}", text(0));
    assert_eq!(text(0), text(1));
    assert!(text(2).contains("thread_slots (65)"), "{}", text(2));
    shutdown(&addr).expect("shutdown accepted");
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}
