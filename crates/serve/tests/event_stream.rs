//! The client decodes a `/submit` event stream line by line, whatever
//! its chunks: a raw listener sends one stream cut into two chunks at
//! every byte offset, including the offsets inside a multi-byte
//! character, and every cut must read back as the same outcome.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::thread;

use hirata_serve::client::{submit, Mode, SubmitOutcome, SubmitRequest, SubmitRow};
use hirata_serve::http::read_request;

/// Three events; the failed job's error text holds a two-byte and a
/// three-byte character.
const EVENTS: &str = concat!(
    "{\"event\":\"accepted\",\"total\":1,\"workers\":2,\"mode\":\"pool\"}\n",
    "{\"event\":\"job\",\"index\":0,\"slots\":1,\"ls\":1,\"key\":\"ab\",\"cached\":false,",
    "\"finished\":1,\"total\":1,\"ok\":false,\"error\":\"caf\u{e9} \u{2014} failed\"}\n",
    "{\"event\":\"done\",\"total\":1,\"executed\":1,\"cache_hits\":0,\"failed\":1}\n",
);

/// A chunked reply that closes the connection, its body `EVENTS` sent
/// as two chunks split at byte `at` (an empty part is left out, since
/// an empty chunk ends the body).
fn reply(at: usize) -> Vec<u8> {
    let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
        Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        .to_vec();
    let (first, second) = EVENTS.as_bytes().split_at(at);
    for part in [first, second].into_iter().filter(|part| !part.is_empty()) {
        out.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

#[test]
fn every_split_of_the_event_stream_reads_alike() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let cuts = EVENTS.len() + 1;
    let server = thread::spawn(move || {
        for at in 0..cuts {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream);
            read_request(&mut reader).expect("a request").expect("not closed");
            reader.get_mut().write_all(&reply(at)).expect("writes");
        }
    });

    let request = SubmitRequest {
        name: "p.s".into(),
        program: "halt".into(),
        slots: vec![1],
        ls: vec![1],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    };
    let want = SubmitOutcome {
        workers: 2,
        rows: vec![SubmitRow {
            index: 0,
            slots: 1,
            ls: 1,
            key: "ab".into(),
            cached: false,
            outcome: Err("caf\u{e9} \u{2014} failed".into()),
        }],
        cache_hits: 0,
        executed: 1,
        failed: 1,
    };
    let mut differ = Vec::new();
    for at in 0..cuts {
        match submit(&addr, &request, &mut |_, _| {}) {
            Ok(outcome) if outcome == want => {}
            other => differ.push((at, other.map_err(|e| e.to_string()))),
        }
    }
    server.join().expect("listener thread");
    assert!(differ.is_empty(), "{} of {cuts} cuts read otherwise: {differ:?}", differ.len());
}
