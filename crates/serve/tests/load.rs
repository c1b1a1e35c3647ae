//! Mini load harness: N client threads × M submissions against one
//! daemon, plus hostile traffic, asserting that no request is dropped
//! or double-executed and that failures stay isolated; and the
//! persistent-connection contract: pipelining, half-close, the idle
//! limit, `Connection: close`, fairness between connections, the
//! client's retry, and shutdown with idle connections open.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use hirata_serve::client::{fetch_stats, shutdown, submit, Mode, SubmitRequest};
use hirata_serve::http::{
    read_body, read_chunk, read_request, read_response_head, response, write_request,
};
use hirata_serve::json::Json;
use hirata_serve::server::{ServeConfig, Server, IDLE_LIMIT};

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
        write_request(&mut stream, "POST", "/submit", body.as_bytes(), true).expect("writes");
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

fn boot(cache: &Scratch, traces: &Scratch, http_workers: usize) -> (String, DaemonThread) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_workers,
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

type DaemonThread = thread::JoinHandle<std::io::Result<()>>;

fn small_request() -> SubmitRequest {
    SubmitRequest {
        name: "small.s".into(),
        program: PROGRAM.into(),
        slots: vec![1, 2],
        ls: vec![1],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    }
}

/// Reads one whole response from a raw connection: its head and its
/// body, fixed-length or chunked.
fn read_response(reader: &mut impl BufRead) -> (hirata_serve::http::ResponseHead, Vec<u8>) {
    let head = read_response_head(reader).expect("response head");
    let body = if head.headers.get("transfer-encoding").is_some_and(|te| te == "chunked") {
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(reader).expect("chunk") {
            body.extend_from_slice(&chunk);
        }
        body
    } else {
        read_body(reader, &head).expect("body")
    };
    (head, body)
}

/// Asserts the peer closes the connection: the next read is EOF.
fn assert_eof(reader: &mut impl Read) {
    let mut byte = [0u8; 1];
    assert_eq!(reader.read(&mut byte).expect("a clean close"), 0, "the connection stayed open");
}

fn says_close(head: &hirata_serve::http::ResponseHead) -> bool {
    head.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

#[test]
fn pipelined_requests_get_in_order_responses() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut both = Vec::new();
    write_request(&mut both, "GET", "/health", b"", false).expect("renders");
    write_request(&mut both, "GET", "/stats", b"", true).expect("renders");
    stream.write_all(&both).expect("one write");
    let mut reader = BufReader::new(stream);
    let (head, body) = read_response(&mut reader);
    assert_eq!(head.status, 200);
    assert!(!says_close(&head) && head.keeps_connection());
    assert!(String::from_utf8(body).unwrap().contains("hirata-serve"));
    let (head, body) = read_response(&mut reader);
    assert_eq!(head.status, 200);
    assert!(says_close(&head));
    let stats = Json::parse(std::str::from_utf8(&body).unwrap()).expect("stats json");
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(1));
    assert_eof(&mut reader);
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn a_half_closed_client_gets_the_whole_response_then_eof() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    let body = r#"{"program":"halt","slots":[1,2],"ls":[1]}"#;
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write_request(&mut stream, "POST", "/submit", body.as_bytes(), false).expect("sends");
    stream.shutdown(Shutdown::Write).expect("half-closes");
    let mut reader = BufReader::new(stream);
    let (head, events) = read_response(&mut reader);
    assert_eq!(head.status, 200);
    let events = String::from_utf8(events).unwrap();
    assert_eq!(events.lines().count(), 4, "accepted, two jobs, done: {events}");
    assert!(events.lines().last().unwrap().contains("\"done\""), "{events}");
    assert_eof(&mut reader);
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn an_idle_connection_is_closed_past_the_limit() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(IDLE_LIMIT + Duration::from_secs(10))).expect("timeout");
    write_request(&mut stream, "GET", "/health", b"", false).expect("sends");
    let mut reader = BufReader::new(stream);
    let (head, _) = read_response(&mut reader);
    assert!(head.keeps_connection());
    let idle = Instant::now();
    assert_eof(&mut reader);
    let waited = idle.elapsed();
    assert!(waited >= IDLE_LIMIT - Duration::from_millis(100), "closed after {waited:?}");
    assert!(waited < IDLE_LIMIT + Duration::from_secs(3), "closed after {waited:?}");
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn connection_close_is_honoured() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    for path in ["/health", "/nowhere"] {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        write_request(&mut stream, "GET", path, b"", true).expect("sends");
        let mut reader = BufReader::new(stream);
        let (head, _) = read_response(&mut reader);
        assert!(says_close(&head), "{path}: {:?}", head.headers);
        assert_eof(&mut reader);
    }
    // A request that cannot be framed gets its 400, then the close.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream
        .write_all(b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        .expect("sends");
    let mut reader = BufReader::new(stream);
    let (head, body) = read_response(&mut reader);
    assert_eq!(head.status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(says_close(&head));
    assert_eof(&mut reader);
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

/// On one raw keep-alive connection, pipelines a submission that
/// simulates for about a second, then `next` in the same write, and —
/// once the submission is simulating — a `/health` in a write of its
/// own, after calling `meanwhile`. The daemon decides to close after
/// answering `next`, so that `/health` is still unread when it does.
/// Every response must still arrive whole, the last saying
/// `Connection: close`, followed by a clean EOF rather than a reset.
fn pipeline_past_a_close(addr: &str, next: (&str, &str), meanwhile: impl FnOnce()) {
    let slow = r#"{"program":"loop: j loop","slots":[1],"ls":[1],"timeout_secs":1}"#;
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut both = Vec::new();
    write_request(&mut both, "POST", "/submit", slow.as_bytes(), false).expect("renders");
    write_request(&mut both, next.0, next.1, b"", false).expect("renders");
    stream.write_all(&both).expect("one write");
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader).expect("submit head");
    assert_eq!(head.status, 200);
    let accepted = read_chunk(&mut reader).expect("accepted").expect("an event");
    assert!(String::from_utf8_lossy(&accepted).contains("\"accepted\""));
    meanwhile();
    let mut late = Vec::new();
    write_request(&mut late, "GET", "/health", b"", false).expect("renders");
    reader.get_mut().write_all(&late).expect("a later write");
    let mut events = 1;
    while let Some(chunk) = read_chunk(&mut reader).expect("a whole event stream") {
        events += String::from_utf8_lossy(&chunk).lines().count();
    }
    assert_eq!(events, 3, "accepted, the timed-out job, done");
    assert!(head.keeps_connection());
    let (head, _) = read_response(&mut reader);
    assert_eq!(head.status, 200);
    assert!(says_close(&head), "{:?}", head.headers);
    assert_eof(&mut reader);
}

#[test]
fn a_close_with_bytes_unread_is_not_a_reset() {
    // A request that cannot be framed, with 200,000 bytes behind it.
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut bad = b"POST /submit HTTP/1.1\r\nContent-Length: zz\r\n\r\n".to_vec();
    bad.resize(bad.len() + 200_000, b'x');
    stream.write_all(&bad).expect("sends");
    let mut reader = BufReader::new(stream);
    let (head, body) = read_response(&mut reader);
    assert_eq!(head.status, 400, "{}", String::from_utf8_lossy(&body));
    assert!(says_close(&head));
    assert_eof(&mut reader);

    // The daemon closes after `/shutdown`.
    pipeline_past_a_close(&addr, ("POST", "/shutdown"), || {});
    handle.join().expect("daemon thread").expect("clean exit");

    // It closes because another connection waits for its only worker.
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 1);
    let mut waiting = None;
    pipeline_past_a_close(&addr, ("GET", "/health"), || {
        waiting = Some(TcpStream::connect(&addr).expect("connects"));
        // Give the acceptor time to queue it well inside the second
        // the submission simulates.
        thread::sleep(Duration::from_millis(200));
    });
    let mut waiting = waiting.expect("a waiting connection");
    waiting.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write_request(&mut waiting, "GET", "/health", b"", true).expect("sends");
    let (head, _) = read_response(&mut BufReader::new(waiting));
    assert_eq!(head.status, 200);
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

/// With one HTTP worker, a second client is served while the first
/// one's thread holds an idle kept connection, and the first client's
/// next submission goes through its retry on a new connection.
#[test]
fn an_idle_kept_connection_does_not_pin_the_only_worker() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 1);
    let first = submit(&addr, &small_request(), &mut |_, _| {}).expect("client A");
    assert_eq!(first.executed, 2);

    let other = addr.clone();
    let b = thread::spawn(move || {
        let start = Instant::now();
        let outcome = submit(&other, &small_request(), &mut |_, _| {}).expect("client B");
        (outcome, start.elapsed())
    });
    let (outcome, took) = b.join().expect("client B thread");
    assert_eq!(outcome.cache_hits, 2);
    assert!(took < Duration::from_secs(1), "client B waited {took:?} for the worker");

    let again = submit(&addr, &small_request(), &mut |_, _| {}).expect("client A again");
    assert_eq!(again.cache_hits, 2);
    let stats = fetch_stats(&addr).expect("stats");
    // A, B, and A's retry after the daemon closed its idle connection.
    assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("submissions").and_then(Json::as_u64), Some(3));
    shutdown(&addr).expect("shutdown");
    handle.join().expect("daemon thread").expect("clean exit");
}

/// A listener that answers one request per connection and then closes
/// it, though its response did not say so: the client's second
/// request finds its kept connection closed and goes out again on a
/// new one.
#[test]
fn the_client_retries_on_a_kept_connection_the_server_closed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = thread::spawn(move || {
        let mut seen = Vec::new();
        for n in 1..=2u64 {
            let (conn, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(conn);
            let request = read_request(&mut reader).expect("framed").expect("a request");
            seen.push(request.path);
            let body = format!("{{\"requests\":{n}}}");
            let reply = response(200, "application/json", body.as_bytes(), false);
            reader.get_mut().write_all(&reply).expect("writes");
        }
        seen
    });
    for n in 1..=2 {
        let stats = fetch_stats(&addr).expect("answered");
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(n));
    }
    assert_eq!(server.join().expect("listener thread"), vec!["/stats", "/stats"]);
}

/// `shutdown` joins promptly while another thread holds an idle
/// connection, and that thread's next submission fails at once
/// instead of hanging.
#[test]
fn shutdown_joins_while_another_thread_holds_an_idle_connection() {
    let (cache, traces) = (Scratch::new("cache"), Scratch::new("traces"));
    let (addr, handle) = boot(&cache, &traces, 2);
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let other = addr.clone();
    let idler = thread::spawn(move || {
        fetch_stats(&other).expect("stats before shutdown");
        ready_tx.send(()).expect("signals");
        go_rx.recv().expect("waits");
        let start = Instant::now();
        let result = submit(&other, &small_request(), &mut |_, _| {});
        (result.is_err(), start.elapsed())
    });
    ready_rx.recv().expect("the idler holds a connection");

    shutdown(&addr).expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(2);
    while !handle.is_finished() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.is_finished(), "the daemon did not stop within 2 s");
    handle.join().expect("daemon thread").expect("clean exit");

    go_tx.send(()).expect("releases the idler");
    let (failed, took) = idler.join().expect("idler thread");
    assert!(failed, "a submission to a stopped daemon succeeded");
    assert!(took < Duration::from_secs(2), "the failing submission took {took:?}");
}
