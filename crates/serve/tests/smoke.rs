//! End-to-end daemon smoke test: boot `hirata serve` on an ephemeral
//! port, submit a small sweep, and check that
//!
//! * the remote result table is byte-identical to a direct `Lab` run,
//! * a resubmission is answered entirely from the artifact store,
//! * interleaved mode produces the same numbers as pool mode,
//! * results and Chrome traces are servable by content hash,
//! * `/stats` reflects the traffic, its transport counters exactly,
//!   and `/shutdown` stops the daemon,
//! * the submission memo answers a resubmission of the same program
//!   and grid exactly as assembling and hashing would, and only that;
//!   another spelling of the program's JSON escapes is an entry of its
//!   own with the same keys.

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

type Daemon = (String, std::thread::JoinHandle<std::io::Result<()>>);

fn boot(cache: &Scratch, traces: &Scratch) -> Daemon {
    boot_with_budget(cache, traces, None)
}

fn boot_with_budget(cache: &Scratch, traces: &Scratch, cache_budget: Option<u64>) -> Daemon {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: 2,
        sim_workers: Some(2),
        cache_dir: Some(cache.0.clone()),
        no_cache: false,
        cache_budget,
        trace_dir: traces.0.clone(),
        quiet: true,
    };
    let (addr, handle) = Server::spawn(config).expect("daemon boots");
    (addr.to_string(), handle)
}

fn stop((addr, handle): Daemon) {
    shutdown(&addr).expect("shutdown accepted");
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

/// A `/stats` counter; a dotted name reads a field of a nested object
/// (`memo.hits`, `cache.misses`).
fn count(stats: &Json, field: &str) -> u64 {
    let (doc, field) = match field.split_once('.') {
        Some((object, field)) => (stats.get(object).expect(object), field),
        None => (stats, field),
    };
    doc.get(field).and_then(Json::as_u64).expect(field)
}

/// How far each named `/stats` counter moved from `before` to `after`.
fn deltas(before: &Json, after: &Json, fields: &[&str]) -> Vec<u64> {
    fields.iter().map(|field| count(after, field) - count(before, field)).collect()
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

/// The transport counters of `/stats`, all from one client thread,
/// which keeps one connection: a cold submission of a G-point grid is
/// G + 1 response writes (the head with `accepted`, then one per
/// executed job, the last one carrying `done`), a warm resubmission is
/// one write and no new connection, and `/stats` is one request and
/// one write on the same connection.
#[test]
fn transport_counters_are_exact() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let (addr, handle) = boot(&cache, &traces);
    let stats = || fetch_stats(&addr).expect("stats");
    let count = |doc: &Json, field: &str| doc.get(field).and_then(Json::as_u64).expect(field);
    let delta = |a: &Json, b: &Json, field: &str| count(b, field) - count(a, field);

    let first = stats();
    assert_eq!(count(&first, "connections"), 1);
    assert_eq!(count(&first, "requests"), 1);

    // Cold pool submission of a 6-point grid: 6 + 1 writes, after the
    // first `/stats` reply's one.
    let cold = submit(&addr, &request(Mode::Pool), &mut |_, _| {}).expect("cold submission");
    assert_eq!(cold.executed, 6);
    let after_cold = stats();
    assert_eq!(delta(&first, &after_cold, "writes"), 1 + 6 + 1);
    assert_eq!(delta(&first, &after_cold, "requests"), 2);
    assert_eq!(delta(&first, &after_cold, "connections"), 0);

    // Warm resubmission: the head, `accepted`, six hits and `done` in
    // one write.
    let warm = submit(&addr, &request(Mode::Pool), &mut |_, _| {}).expect("warm submission");
    assert_eq!(warm.cache_hits, 6);
    let after_warm = stats();
    assert_eq!(delta(&after_cold, &after_warm, "writes"), 1 + 1);
    assert_eq!(delta(&after_cold, &after_warm, "requests"), 2);
    assert_eq!(delta(&after_cold, &after_warm, "connections"), 0);

    // A cold interleaved submission of 2 points: 2 + 1 writes.
    let mut interleaved = request(Mode::Interleaved);
    interleaved.slots = vec![3];
    let cold = submit(&addr, &interleaved, &mut |_, _| {}).expect("cold interleaved");
    assert_eq!(cold.executed, 2);
    let after_interleaved = stats();
    assert_eq!(delta(&after_warm, &after_interleaved, "writes"), 1 + 2 + 1);

    // `/stats` alone: one request, one write, no connection.
    let again = stats();
    assert_eq!(delta(&after_interleaved, &again, "requests"), 1);
    assert_eq!(delta(&after_interleaved, &again, "writes"), 1);
    assert_eq!(count(&again, "connections"), 1);

    shutdown(&addr).expect("shutdown accepted");
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

/// Fetches `/trace/{key}` and parses the Chrome trace JSON.
fn fetch_trace(addr: &str, key: &str) -> std::io::Result<Json> {
    use std::io::BufReader;
    use std::net::TcpStream;

    let mut stream = TcpStream::connect(addr)?;
    hirata_serve::http::write_request(&mut stream, "GET", &format!("/trace/{key}"), b"", true)?;
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

/// The job key of every point of `grid` for `program`, by assembling
/// and hashing: what the daemon's full path computes.
fn keys_of(program: &str, grid: &[(usize, usize)]) -> Vec<String> {
    let program = Arc::new(hirata_asm::assemble(program).expect("assembles"));
    let key = |&(slots, ls): &(usize, usize)| {
        Job::new("k", sweep_config(slots, ls), Arc::clone(&program)).content_hash()
    };
    grid.iter().map(key).collect()
}

fn row_keys(outcome: &hirata_serve::client::SubmitOutcome) -> Vec<String> {
    outcome.rows.iter().map(|row| row.key.clone()).collect()
}

/// POSTs `body` to `/submit` on a connection of its own and returns the
/// reply's body as sent: chunk framing, events and all.
fn submit_raw(addr: &str, body: &str) -> Vec<u8> {
    use std::io::BufReader;
    use std::net::TcpStream;

    let mut stream = TcpStream::connect(addr).expect("connects");
    hirata_serve::http::write_request(&mut stream, "POST", "/submit", body.as_bytes(), true)
        .expect("request sent");
    let mut reader = BufReader::new(stream);
    let head = hirata_serve::http::read_response_head(&mut reader).expect("response head");
    assert_eq!(head.status, 200);
    hirata_serve::http::read_body(&mut reader, &head).expect("response body")
}

/// The same program and grid under another name and mode is a memo
/// hit: it answers the rows and keys that a daemon without the entry
/// answers by assembling and hashing, byte for byte, in one reply
/// write, with one store hit per grid point and no miss.
#[test]
fn a_memo_hit_answers_what_assembling_and_hashing_answers() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let addr = daemon.0.clone();
    let stats = || fetch_stats(&addr).expect("stats");

    let cold = submit(&addr, &request(Mode::Pool), &mut |_, _| {}).expect("cold submission");
    assert_eq!(cold.executed, 6);
    let before = stats();
    let renamed = SubmitRequest { name: "other.s".into(), ..request(Mode::Interleaved) };
    let hit = submit(&addr, &renamed, &mut |_, _| {}).expect("memo hit");
    let after = stats();
    let fields = ["memo.hits", "memo.misses", "writes", "cache.hits", "cache.misses"];
    assert_eq!(deltas(&before, &after, &fields), [1, 0, 1 + 1, 6, 0]);
    assert_eq!((hit.cache_hits, hit.executed, hit.workers), (6, 0, 1));
    assert_eq!(row_keys(&hit), keys_of(PROGRAM, &sweep_grid(&[1, 2, 4], &[1, 2])));
    let hit_bytes = submit_raw(&addr, &renamed.render());
    assert_eq!(String::from_utf8_lossy(&hit_bytes).matches("\"cached\":true").count(), 6);
    assert_eq!((count(&stats(), "memo.hits"), count(&stats(), "memo.entries")), (2, 1));
    stop(daemon);

    // A daemon on the same store starts with an empty memo, so the
    // same body takes the full path.
    let daemon = boot(&cache, &traces);
    let full_bytes = submit_raw(&daemon.0, &renamed.render());
    let full_stats = fetch_stats(&daemon.0).expect("stats");
    assert_eq!((count(&full_stats, "memo.hits"), count(&full_stats, "memo.misses")), (0, 1));
    assert_eq!(
        String::from_utf8_lossy(&hit_bytes),
        String::from_utf8_lossy(&full_bytes),
        "a memo hit answers otherwise than the full path"
    );
    stop(daemon);
}

/// The same program with other escapes in its JSON (`\/` for `/`,
/// `\u0041` for `A`) is a memo miss, then a hit, and answers the same
/// job keys and rows as the first spelling.
#[test]
fn a_program_escaped_otherwise_is_a_miss_then_a_hit_with_the_same_keys() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let addr = daemon.0.clone();
    let stats = || fetch_stats(&addr).expect("stats");

    let program = format!("{PROGRAM}    ; A/B\n");
    let req = SubmitRequest { program: program.clone(), ..request(Mode::Pool) };
    let first = submit(&addr, &req, &mut |_, _| {}).expect("cold submission");
    assert_eq!(row_keys(&first), keys_of(&program, &sweep_grid(&[1, 2, 4], &[1, 2])));
    let plain = req.render();
    let other = plain.replacen("; A/B", r"; \u0041\/B", 1);
    assert_ne!(other, plain);

    let warm = submit_raw(&addr, &plain);
    let before = stats();
    let miss = submit_raw(&addr, &other);
    let between = stats();
    let hit = submit_raw(&addr, &other);
    let after = stats();
    assert_eq!(deltas(&before, &between, &["memo.hits", "memo.misses", "jobs_run"]), [0, 1, 0]);
    assert_eq!(deltas(&between, &after, &["memo.hits", "memo.misses", "jobs_run"]), [1, 0, 0]);
    assert_eq!(count(&after, "memo.entries"), 2);
    // Both answers are the first spelling's warm reply, byte for byte:
    // the same keys, the same rows, all from the store.
    assert_eq!(String::from_utf8_lossy(&miss), String::from_utf8_lossy(&warm));
    assert_eq!(String::from_utf8_lossy(&hit), String::from_utf8_lossy(&warm));
    for row in &first.rows {
        let event = format!("\"key\":\"{}\",\"cached\":true", row.key);
        assert!(String::from_utf8_lossy(&hit).contains(&event), "{event}");
    }
    stop(daemon);
}

/// The same program over another grid, a changed `ls` list or the same
/// points in another order, is a memo miss and answers its own keys in
/// its own order.
#[test]
fn another_grid_is_a_memo_miss_with_its_own_keys() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let addr = daemon.0.clone();
    let stats = || fetch_stats(&addr).expect("stats");

    submit(&addr, &request(Mode::Pool), &mut |_, _| {}).expect("cold submission");
    for (slots, ls) in [(vec![1, 2, 4], vec![1]), (vec![4, 2, 1], vec![1, 2])] {
        let before = stats();
        let other = SubmitRequest { slots: slots.clone(), ls: ls.clone(), ..request(Mode::Pool) };
        let outcome = submit(&addr, &other, &mut |_, _| {}).expect("submission");
        let after = stats();
        assert_eq!(
            deltas(&before, &after, &["memo.hits", "memo.misses"]),
            [0, 1],
            "{slots:?} x {ls:?}"
        );
        let grid = sweep_grid(&slots, &ls);
        assert_eq!(row_keys(&outcome), keys_of(PROGRAM, &grid), "{slots:?} x {ls:?}");
        let points: Vec<(usize, usize)> = outcome.rows.iter().map(|r| (r.slots, r.ls)).collect();
        assert_eq!(points, grid);
        // Every point was simulated by the first submission.
        assert_eq!(outcome.cache_hits, grid.len());
    }
    assert_eq!(count(&stats(), "memo.entries"), 3);
    stop(daemon);
}

/// A memo hit whose entry the store has since evicted simulates that
/// point alone, after one store lookup per grid point.
#[test]
fn a_memo_hit_simulates_only_what_the_store_evicted() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    // One stored result of this program is 300-600 bytes, so the
    // budget holds one point's entry but not two.
    let daemon = boot_with_budget(&cache, &traces, Some(600));
    let addr = daemon.0.clone();
    let stats = || fetch_stats(&addr).expect("stats");
    let pair = SubmitRequest { slots: vec![1, 2], ..request(Mode::Pool) };
    let pair = SubmitRequest { ls: vec![1], ..pair };

    let cold = submit(&addr, &pair, &mut |_, _| {}).expect("cold submission");
    assert_eq!(cold.executed, 2);
    let before = stats();
    assert_eq!((count(&before, "cache.entries"), count(&before, "cache.evictions")), (1, 1));

    let again = submit(&addr, &pair, &mut |_, _| {}).expect("memo hit");
    let after = stats();
    assert_eq!(deltas(&before, &after, &["memo.hits", "memo.misses"]), [1, 0]);
    assert_eq!((again.cache_hits, again.executed, again.failed), (1, 1, 0));
    let lookups: u64 = deltas(&before, &after, &["cache.hits", "cache.misses"]).iter().sum();
    assert_eq!(lookups, 2, "one store lookup per grid point");
    for (a, b) in again.rows.iter().zip(&cold.rows) {
        assert_eq!((&a.key, &a.outcome), (&b.key, &b.outcome));
    }
    stop(daemon);
}

/// A failed job is never stored, so a memo hit on its program runs it
/// again: a deterministic failure answers the same error row, and a
/// timeout is the resubmission's.
#[test]
fn a_memo_hit_runs_a_failed_job_again_under_the_new_timeout() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let addr = daemon.0.clone();
    let stats = || fetch_stats(&addr).expect("stats");
    let one = |program: &str, timeout_secs| SubmitRequest {
        program: program.into(),
        slots: vec![1],
        ls: vec![1],
        timeout_secs,
        ..request(Mode::Pool)
    };

    let unlowerable = one(".data\n.org 0\n.word 7\n", None);
    let first = submit(&addr, &unlowerable, &mut |_, _| {}).expect("answered");
    let before = stats();
    let again = submit(&addr, &unlowerable, &mut |_, _| {}).expect("answered");
    let after = stats();
    assert_eq!(deltas(&before, &after, &["memo.hits", "jobs_run", "jobs_failed"]), [1, 1, 1]);
    assert_eq!((again.executed, again.failed), (1, 1));
    assert_eq!(again.rows, first.rows, "the same error row");

    let runaway = submit(&addr, &one("loop: j loop", Some(1)), &mut |_, _| {}).expect("answered");
    let text = runaway.rows[0].outcome.clone().unwrap_err();
    assert!(text.contains("timed out after 1.0s"), "{text}");
    let before = stats();
    let longer = submit(&addr, &one("loop: j loop", Some(2)), &mut |_, _| {}).expect("answered");
    assert_eq!(deltas(&before, &stats(), &["memo.hits", "jobs_run"]), [1, 1]);
    let text = longer.rows[0].outcome.clone().unwrap_err();
    assert!(text.contains("timed out after 2.0s"), "{text}");
    assert_eq!(longer.rows[0].key, runaway.rows[0].key);
    stop(daemon);
}

/// A body whose program does not assemble is a 400 each time it is
/// sent and never enters the memo.
#[test]
fn a_program_that_does_not_assemble_is_a_400_twice_and_no_entry() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let bogus = SubmitRequest { program: "bogus r1".into(), ..request(Mode::Pool) };
    for _ in 0..2 {
        let err = submit(&daemon.0, &bogus, &mut |_, _| {}).expect_err("a 400");
        assert!(err.to_string().contains("program does not assemble"), "{err}");
    }
    let stats = fetch_stats(&daemon.0).expect("stats");
    let fields = ["memo.hits", "memo.misses", "memo.entries", "submissions"];
    assert_eq!(fields.map(|field| count(&stats, field)), [0, 2, 0, 0]);
    stop(daemon);
}

/// The reply bodies of a cold `interleaved` submission and then a warm
/// `pool` one, chunk framing and all, on a daemon with two simulation
/// workers and a fresh store: both have a fixed event order, and their
/// bytes are pinned.
#[test]
fn cold_interleaved_and_warm_pool_replies_are_pinned() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let daemon = boot(&cache, &traces);
    let cold = submit_raw(&daemon.0, &request(Mode::Interleaved).render());
    let warm = submit_raw(&daemon.0, &request(Mode::Pool).render());
    assert_eq!(String::from_utf8_lossy(&cold), COLD_INTERLEAVED_REPLY);
    assert_eq!(String::from_utf8_lossy(&warm), WARM_POOL_REPLY);
    stop(daemon);
}

const COLD_INTERLEAVED_REPLY: &str = concat!(
    "40\r\n{\"event\":\"accepted\",\"total\":6,\"workers\":1,\"mode\":\"interleaved\"}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":0,\"slots\":1,\"ls\":1,\"key\":\"30897d7ccad969da66f4e66cde469feb\",\"cached\":false,\"finished\":1,\"total\":6,\"ok\":true,\"cycles\":31,\"instructions\":10}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":1,\"slots\":2,\"ls\":1,\"key\":\"256bca88ca2a15a4cb96ce78fc354bb1\",\"cached\":false,\"finished\":2,\"total\":6,\"ok\":true,\"cycles\":37,\"instructions\":19}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":2,\"slots\":4,\"ls\":1,\"key\":\"d0ba1799bab5dd745c28e1bb56234e8d\",\"cached\":false,\"finished\":3,\"total\":6,\"ok\":true,\"cycles\":51,\"instructions\":37}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":3,\"slots\":1,\"ls\":2,\"key\":\"dfd7865fee3f46c45931a6ead2ff140c\",\"cached\":false,\"finished\":4,\"total\":6,\"ok\":true,\"cycles\":30,\"instructions\":10}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":4,\"slots\":2,\"ls\":2,\"key\":\"e67077f549a53d54a36627c837d2ed3e\",\"cached\":false,\"finished\":5,\"total\":6,\"ok\":true,\"cycles\":35,\"instructions\":19}\n\r\n",
    "a2\r\n{\"event\":\"job\",\"index\":5,\"slots\":4,\"ls\":2,\"key\":\"165e5f9ef70a52db44263a07b4d1419e\",\"cached\":false,\"finished\":6,\"total\":6,\"ok\":true,\"cycles\":42,\"instructions\":37}\n\r\n",
    "42\r\n{\"event\":\"done\",\"total\":6,\"executed\":6,\"cache_hits\":0,\"failed\":0}\n\r\n",
    "0\r\n\r\n",
);

const WARM_POOL_REPLY: &str = concat!(
    "39\r\n{\"event\":\"accepted\",\"total\":6,\"workers\":2,\"mode\":\"pool\"}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":0,\"slots\":1,\"ls\":1,\"key\":\"30897d7ccad969da66f4e66cde469feb\",\"cached\":true,\"finished\":1,\"total\":6,\"ok\":true,\"cycles\":31,\"instructions\":10}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":1,\"slots\":2,\"ls\":1,\"key\":\"256bca88ca2a15a4cb96ce78fc354bb1\",\"cached\":true,\"finished\":2,\"total\":6,\"ok\":true,\"cycles\":37,\"instructions\":19}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":2,\"slots\":4,\"ls\":1,\"key\":\"d0ba1799bab5dd745c28e1bb56234e8d\",\"cached\":true,\"finished\":3,\"total\":6,\"ok\":true,\"cycles\":51,\"instructions\":37}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":3,\"slots\":1,\"ls\":2,\"key\":\"dfd7865fee3f46c45931a6ead2ff140c\",\"cached\":true,\"finished\":4,\"total\":6,\"ok\":true,\"cycles\":30,\"instructions\":10}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":4,\"slots\":2,\"ls\":2,\"key\":\"e67077f549a53d54a36627c837d2ed3e\",\"cached\":true,\"finished\":5,\"total\":6,\"ok\":true,\"cycles\":35,\"instructions\":19}\n\r\n",
    "a1\r\n{\"event\":\"job\",\"index\":5,\"slots\":4,\"ls\":2,\"key\":\"165e5f9ef70a52db44263a07b4d1419e\",\"cached\":true,\"finished\":6,\"total\":6,\"ok\":true,\"cycles\":42,\"instructions\":37}\n\r\n",
    "42\r\n{\"event\":\"done\",\"total\":6,\"executed\":0,\"cache_hits\":6,\"failed\":0}\n\r\n",
    "0\r\n\r\n",
);
