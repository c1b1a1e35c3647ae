//! Mini load harness: N client threads × M submissions against one
//! daemon, plus hostile traffic, asserting that no request is dropped
//! or double-executed and that failures stay isolated.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use hirata_serve::client::{fetch_stats, shutdown, submit, Mode, SubmitRequest};
use hirata_serve::http::{read_body, read_response_head, write_request};
use hirata_serve::json::Json;
use hirata_serve::server::{ServeConfig, Server};

const CLIENTS: usize = 4;
const SUBMISSIONS_PER_CLIENT: usize = 3;

const PROGRAM: &str = "
    fastfork
    lpid r1
    mul  r2, r1, r1
    sw   r2, 100(r1)
    lw   r3, 100(r1)
    add  r4, r3, r2
    sw   r4, 200(r1)
    halt
";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "hirata-load-{label}-{}-{}",
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

#[test]
fn concurrent_clients_all_complete() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers: CLIENTS,
        sim_workers: Some(2),
        cache_dir: Some(cache.0.clone()),
        no_cache: false,
        cache_budget: None,
        trace_dir: traces.0.clone(),
        quiet: true,
    };
    let (addr, handle) = Server::spawn(config).expect("daemon boots");
    let addr = addr.to_string();

    // Each client hammers its own slot count so the grids overlap on
    // the ls axis (shared cache keys) but differ on the slots axis.
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let addr = addr.clone();
        clients.push(thread::spawn(move || {
            let mut outcomes = Vec::new();
            for round in 0..SUBMISSIONS_PER_CLIENT {
                let request = SubmitRequest {
                    name: format!("client{client}.s"),
                    program: PROGRAM.into(),
                    slots: vec![1, client + 2],
                    ls: vec![1, 2],
                    mode: if round % 2 == 0 { Mode::Pool } else { Mode::Interleaved },
                    timeout_secs: Some(60),
                    trace: false,
                };
                let outcome =
                    submit(&addr, &request, &mut |_, _| {}).expect("submission completes");
                outcomes.push(outcome);
            }
            outcomes
        }));
    }

    let mut reference: Option<Vec<_>> = None;
    for client in clients {
        let outcomes = client.join().expect("client thread");
        assert_eq!(outcomes.len(), SUBMISSIONS_PER_CLIENT, "a submission was dropped");
        for outcome in &outcomes {
            // Complete, duplicate-free, all-successful result set.
            assert_eq!(outcome.rows.len(), 4, "grid rows were dropped");
            let mut indices: Vec<usize> = outcome.rows.iter().map(|r| r.index).collect();
            indices.dedup();
            assert_eq!(indices, vec![0, 1, 2, 3], "rows duplicated or out of order");
            assert_eq!(outcome.failed, 0);
            for row in &outcome.rows {
                assert!(row.outcome.is_ok(), "grid point failed under load: {:?}", row);
            }
        }
        // Rounds 2.. of every client resubmit round 0's grid (modes
        // alternate but hash identically), so the daemon must answer
        // them without re-simulating — double execution would show up
        // here as executed > 0.
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.executed, 0, "a cached grid point was re-executed");
            assert_eq!(outcome.cache_hits, 4);
        }
        // The slot-1 rows are shared across every client; they must
        // agree on the numbers.
        let slot1: Vec<_> = outcomes[0]
            .rows
            .iter()
            .filter(|r| r.slots == 1)
            .map(|r| (r.ls, r.key.clone(), r.outcome.clone()))
            .collect();
        match &reference {
            None => reference = Some(slot1),
            Some(want) => assert_eq!(&slot1, want, "clients disagree on shared grid points"),
        }
    }

    // Totals: 12 submissions, 48 grid-point answers, zero failures.
    let stats = fetch_stats(&addr).expect("stats");
    let total = (CLIENTS * SUBMISSIONS_PER_CLIENT) as u64;
    assert_eq!(stats.get("submissions").and_then(Json::as_u64), Some(total));
    let run = stats.get("jobs_run").and_then(Json::as_u64).expect("jobs_run");
    let cached = stats.get("jobs_cached").and_then(Json::as_u64).expect("jobs_cached");
    assert_eq!(run + cached, total * 4, "grid points dropped or double-counted");
    assert_eq!(stats.get("jobs_failed").and_then(Json::as_u64), Some(0));
    // 5 distinct slot counts × 2 ls variants = at most 10 distinct
    // simulations; concurrent first-round misses may race the same
    // key, but never past one execution per submission row.
    assert!(run >= 10 && run <= total * 4 - cached, "implausible execution count: {run}");

    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn hostile_and_failing_traffic_is_isolated() {
    let cache = Scratch::new("cache");
    let traces = Scratch::new("traces");
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
    let addr = addr.to_string();

    // Garbage bytes on the socket must not take a worker down.
    for garbage in
        [&b"\x00\x01\x02\x03"[..], b"GET", b"POST /submit HTTP/1.1\r\nContent-Length: zz\r\n\r\n"]
    {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream.write_all(garbage).expect("writes");
        drop(stream);
    }
    // A client that sends a valid head then hangs up mid-body.
    {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream
            .write_all(b"POST /submit HTTP/1.1\r\nContent-Length: 100000\r\n\r\ntruncated")
            .expect("writes");
        drop(stream);
    }

    // A submission whose program cannot assemble is a clean 400.
    let bad = SubmitRequest {
        name: "bad.s".into(),
        program: "this is not assembly".into(),
        slots: vec![1],
        ls: vec![1],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    };
    let err = submit(&addr, &bad, &mut |_, _| {}).expect_err("must be rejected");
    assert!(err.to_string().contains("assemble"), "unhelpful rejection: {err}");

    // A zero timeout would fail every point at once, and a grid past
    // the cap would build a job per point: both are clean 400s.
    let zero = SubmitRequest { timeout_secs: Some(0), program: PROGRAM.into(), ..bad.clone() };
    let err = submit(&addr, &zero, &mut |_, _| {}).expect_err("zero timeout must be rejected");
    assert!(err.to_string().contains("`timeout_secs` must be at least 1"), "{err}");
    for (slots, ls) in [(vec![1; 65], vec![1, 2]), (vec![1; 129], vec![1])] {
        let wide = SubmitRequest { slots, ls, program: PROGRAM.into(), ..bad.clone() };
        let err =
            submit(&addr, &wide, &mut |_, _| {}).expect_err("oversized grid must be rejected");
        assert!(err.to_string().contains("at most 128 grid points"), "{err}");
    }
    // Lists far past the cap stop the parse itself, before it builds
    // a tree of them: 100,000 entries, and a body of 4M entries just
    // under the 8 MiB body cap.
    for entries in [100_000usize, 4_000_000] {
        let body = format!("{{\"program\":\"halt\",\"slots\":[1{}]}}", ",1".repeat(entries - 1));
        let mut stream = TcpStream::connect(&addr).expect("connects");
        write_request(&mut stream, "POST", "/submit", body.as_bytes()).expect("writes");
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).expect("response head");
        let reply = String::from_utf8(read_body(&mut reader, &head).expect("body")).unwrap();
        assert_eq!(head.status, 400, "{entries} entries: {reply}");
        assert!(reply.contains("bad json") && reply.contains("values"), "{reply}");
    }
    let widest = SubmitRequest {
        slots: (1..=64).collect(),
        ls: vec![1, 2],
        program: "halt".into(),
        ..bad.clone()
    };
    let outcome = submit(&addr, &widest, &mut |_, _| {}).expect("a grid at the cap runs");
    assert_eq!((outcome.rows.len(), outcome.failed), (128, 0));

    // An infinite loop hits its wall-clock timeout, failing its grid
    // point without poisoning the daemon.
    let looping = SubmitRequest {
        name: "loop.s".into(),
        program: "loop: j loop".into(),
        slots: vec![1],
        ls: vec![1],
        mode: Mode::Pool,
        timeout_secs: Some(2),
        trace: false,
    };
    let outcome = submit(&addr, &looping, &mut |_, _| {}).expect("stream completes");
    assert_eq!(outcome.failed, 1);
    assert!(outcome.rows[0].outcome.is_err());

    // Slot sets are 64-bit masks: 65 slots fails its row at once with a
    // configuration error, while the 64-slot row beside it runs.
    for mode in [Mode::Pool, Mode::Interleaved] {
        let wide = SubmitRequest {
            name: "wide.s".into(),
            program: PROGRAM.into(),
            slots: vec![65, 64],
            ls: vec![1],
            mode,
            timeout_secs: Some(60),
            trace: false,
        };
        let start = std::time::Instant::now();
        let outcome = submit(&addr, &wide, &mut |_, _| {}).expect("stream completes");
        assert!(start.elapsed().as_secs() < 30, "{mode:?} took {:?}", start.elapsed());
        assert_eq!(outcome.failed, 1, "{mode:?}");
        let err = outcome.rows[0].outcome.as_ref().expect_err("65 slots must fail");
        assert!(err.contains("thread_slots (65) exceeds"), "{mode:?}: {err}");
        assert!(outcome.rows[1].outcome.is_ok(), "{mode:?}");
    }

    // A timeout too large to add to the clock means no deadline. Three
    // of them outnumber the two HTTP workers, so a worker lost to one
    // would leave the healthy submission below without an answer.
    let unbounded = SubmitRequest {
        name: "unbounded.s".into(),
        program: PROGRAM.into(),
        slots: vec![1],
        ls: vec![1],
        mode: Mode::Interleaved,
        timeout_secs: Some(i64::MAX as u64),
        trace: false,
    };
    for _ in 0..3 {
        let outcome = submit(&addr, &unbounded, &mut |_, _| {}).expect("stream completes");
        assert_eq!(outcome.failed, 0);
    }

    // The daemon still serves healthy traffic afterwards.
    let good = SubmitRequest {
        name: "good.s".into(),
        program: PROGRAM.into(),
        slots: vec![2],
        ls: vec![1],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    };
    let outcome = submit(&addr, &good, &mut |_, _| {}).expect("daemon survived");
    assert_eq!(outcome.failed, 0);
    assert!(outcome.rows[0].outcome.is_ok());

    let stats = fetch_stats(&addr).expect("stats");
    // The looping job and the two 65-slot rows.
    assert_eq!(stats.get("jobs_failed").and_then(Json::as_u64), Some(3));

    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}
