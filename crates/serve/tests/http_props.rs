//! Whole-input fuzzing of the HTTP framing: hostile byte streams fed to
//! `read_request` and `read_chunk` end in `Ok` or an `io::Error`, never
//! a panic, and nothing they accept exceeds the head or body caps.
//! Requests are read the way a persistent connection reads them: one
//! reader over the whole stream, request after request, so well-framed
//! requests sent back to back read back as themselves, in order.

use std::collections::HashMap;
use std::io::{BufReader, Cursor};

use hirata_serve::http::{read_chunk, read_request, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use proptest::prelude::*;

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..max)
}

/// Numbers as a `Content-Length` or chunk size might spell them: small,
/// at and just past the body cap, overflowing, signed, or not numbers.
fn arb_length(hex: bool) -> impl Strategy<Value = String> {
    let cap = MAX_BODY_BYTES;
    let fmt = move |n: u64| if hex { format!("{n:x}") } else { n.to_string() };
    prop_oneof![
        6 => (0u64..40).prop_map(fmt),
        1 => proptest::sample::select(vec![cap, cap + 1, u64::MAX]).prop_map(fmt),
        1 => proptest::sample::select(vec![
            "-1".to_string(),
            "+5".to_string(),
            " 3 ".to_string(),
            "1e3".to_string(),
            "ffffffffffffffffffff".to_string(),
            "99999999999999999999999".to_string(),
            String::new(),
        ]),
    ]
}

/// Framing headers a persistent connection must not misjudge: none,
/// a repeated `Content-Length` that agrees or differs, or a
/// `Transfer-Encoding`.
fn arb_framing_extra() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => Just(String::new()),
        1 => Just("Content-Length: {len}\r\n".to_string()),
        1 => arb_length(false).prop_map(|n| format!("content-length: {n}\r\n")),
        1 => proptest::sample::select(vec!["chunked", "identity", "gzip, chunked"])
            .prop_map(|te| format!("Transfer-Encoding: {te}\r\n")),
    ]
}

/// Requests that start out well formed: a request line, header lines
/// and a `Content-Length` that is right, hostile or missing, then a
/// body; a random cut keeps a prefix of the whole.
fn arb_framed_request() -> impl Strategy<Value = Vec<u8>> {
    let header = ("[a-zA-Z-]{1,12}", "[ -~]{0,30}").prop_map(|(k, v)| format!("{k}: {v}\r\n"));
    let head = (
        proptest::sample::select(vec!["GET", "POST", "PUT", "get"]),
        "[ -~]{0,20}",
        proptest::collection::vec(header, 0..5),
        arb_framing_extra(),
    );
    let rest = (
        prop::option::of(arb_length(false)),
        proptest::sample::select(vec!["\r\n", "\n"]),
        arb_bytes(64),
        0usize..4096,
    );
    (head, rest).prop_map(|((method, path, headers, extra), (length, eol, body, cut))| {
        let length = length.unwrap_or_else(|| body.len().to_string());
        let extra = extra.replace("{len}", &length);
        let mut out = format!(
            "{method} /{path} HTTP/1.1\r\n{}Content-Length: {length}\r\n{extra}{eol}",
            headers.concat()
        )
        .into_bytes();
        out.extend_from_slice(&body);
        // Cuts past the end (most of them) keep the whole request.
        out.truncate(cut);
        out
    })
}

/// A well-framed request and the bytes a client sends for it.
fn arb_request() -> impl Strategy<Value = (Request, Vec<u8>)> {
    let header = ("X-[a-zA-Z-]{1,10}", "[ -~]{0,20}");
    (
        proptest::sample::select(vec!["GET", "POST", "PUT", "DELETE"]),
        "/[!-~]{0,20}",
        proptest::collection::vec(header, 0..4),
        arb_bytes(64),
        proptest::sample::select(vec![false, true]),
    )
        .prop_map(|(method, path, headers, body, close)| {
            let mut wire = format!("{method} {path} HTTP/1.1\r\n");
            let mut map = HashMap::new();
            for (name, value) in &headers {
                wire.push_str(&format!("{name}: {value}\r\n"));
                map.insert(name.to_ascii_lowercase(), value.trim().to_string());
            }
            if close {
                wire.push_str("Connection: close\r\n");
                map.insert("connection".into(), "close".into());
            }
            wire.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            map.insert("content-length".into(), body.len().to_string());
            let mut wire = wire.into_bytes();
            wire.extend_from_slice(&body);
            let request =
                Request { method: method.into(), path, headers: map, body: body.clone(), close };
            (request, wire)
        })
}

/// Streams built from the pieces a request is made of — methods,
/// targets, header lines, `Content-Length`, line ends, colons — mixed
/// with raw bytes, non-UTF-8 bytes and a head longer than the cap.
fn arb_request_stream() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        8 => proptest::sample::select(vec![
            "GET ", "POST ", "/submit ", "/stats", " HTTP/1.1", "HTTP/1.0 ", "\r\n", "\n", "\r",
            ":", ": ", "Host: x", "content-length", "Content-Type: application/json",
            "Transfer-Encoding: chunked", "\r\n\r\n", " ", "\t",
        ])
        .prop_map(|s| s.as_bytes().to_vec()),
        3 => arb_length(false).prop_map(|n| format!("Content-Length: {n}\r\n").into_bytes()),
        2 => "[a-zA-Zé中😀:-]{0,30}".prop_map(String::into_bytes),
        1 => arb_bytes(40),
        1 => proptest::sample::select(vec![0xffu8, 0xc3, 0x80, 0x00]).prop_map(|b| vec![b; 3]),
    ];
    let soup = proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat());
    prop_oneof![
        5 => arb_framed_request(),
        4 => soup,
        1 => (1usize..64).prop_map(|extra| {
            let mut head = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
            head.resize(MAX_HEAD_BYTES + extra, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        }),
    ]
}

/// Chunked bodies: well-framed chunks mixed with hostile ones (size
/// lines with extensions, bad digits and sizes over the cap; data
/// shorter or longer than announced; missing or wrong terminators).
fn arb_chunk_stream() -> impl Strategy<Value = Vec<u8>> {
    let framed = arb_bytes(48).prop_map(|data| {
        let mut out = format!("{:x}\r\n", data.len()).into_bytes();
        out.extend_from_slice(&data);
        out.extend_from_slice(b"\r\n");
        out
    });
    let hostile = (
        arb_length(true),
        proptest::sample::select(vec!["", ";ext=1", "; x", ";"]),
        proptest::sample::select(vec!["\r\n", "\n", "\r", ""]),
        arb_bytes(48),
        proptest::sample::select(vec!["\r\n", "\n", "xx", ""]),
    )
        .prop_map(|(size, ext, eol, data, end)| {
            let mut out = format!("{size}{ext}{eol}").into_bytes();
            out.extend_from_slice(&data);
            out.extend_from_slice(end.as_bytes());
            out
        });
    let piece = prop_oneof![
        8 => framed,
        4 => hostile,
        1 => arb_bytes(24),
        1 => Just(b"0\r\n\r\n".to_vec()),
    ];
    proptest::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

/// Reads `bytes` as one persistent connection would, request after
/// request, until the clean end or an error; each request it accepts
/// is within both caps, has no `Transfer-Encoding`, and has a body
/// exactly as long as it said.
fn check_requests(bytes: &[u8]) {
    let mut reader = Cursor::new(bytes);
    // Every request read consumes at least one byte, so the stream
    // runs out within `bytes.len() + 1` reads.
    for _ in 0..=bytes.len() {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return,
        };
        let head = req.method.len()
            + req.path.len()
            + req.headers.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
        assert!(head <= MAX_HEAD_BYTES, "head of {head} bytes accepted");
        assert!(req.body.len() as u64 <= MAX_BODY_BYTES);
        assert!(!req.headers.contains_key("transfer-encoding"), "a transfer-encoding accepted");
        match req.headers.get("content-length").map(|n| n.parse::<u64>()) {
            Some(Ok(n)) => assert_eq!(req.body.len() as u64, n),
            Some(Err(_)) => panic!("unparsable length accepted"),
            None => assert!(req.body.is_empty()),
        }
    }
    panic!("read_request kept returning requests past the end of its input");
}

/// Reads chunks from `bytes` until the end chunk or an error; every
/// chunk in between is non-empty and within the body cap.
fn check_chunks(bytes: &[u8]) {
    let mut reader = BufReader::new(Cursor::new(bytes));
    // Every chunk read consumes at least its size line, so the stream
    // runs out within `bytes.len() + 1` reads.
    for _ in 0..=bytes.len() {
        match read_chunk(&mut reader) {
            Ok(Some(data)) => {
                assert!(!data.is_empty());
                assert!(data.len() as u64 <= MAX_BODY_BYTES);
            }
            Ok(None) | Err(_) => return,
        }
    }
    panic!("read_chunk kept returning chunks past the end of its input");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_requests_end_in_a_request_or_an_error(bytes in arb_request_stream()) {
        check_requests(&bytes);
    }

    /// Back-to-back hostile streams read through one reader, as a
    /// persistent connection carrying several of them would.
    #[test]
    fn hostile_streams_back_to_back_end_in_requests_or_an_error(
        streams in proptest::collection::vec(arb_request_stream(), 1..4),
    ) {
        check_requests(&streams.concat());
    }

    #[test]
    fn back_to_back_requests_read_back_in_order(
        requests in proptest::collection::vec(arb_request(), 0..6),
    ) {
        let wire: Vec<u8> = requests.iter().flat_map(|(_, wire)| wire.clone()).collect();
        let mut reader = Cursor::new(wire);
        for (want, _) in &requests {
            let got = read_request(&mut reader).expect("framed").expect("a request");
            prop_assert_eq!(&got, want);
        }
        prop_assert!(read_request(&mut reader).expect("a clean end").is_none());
    }

    #[test]
    fn hostile_chunk_streams_end_in_chunks_or_an_error(bytes in arb_chunk_stream()) {
        check_chunks(&bytes);
    }
}

#[test]
fn framing_a_kept_connection_cannot_trust_is_an_error() {
    for raw in [
        "POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        "POST /submit HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\nab",
        "POST /submit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
    ] {
        assert!(read_request(&mut Cursor::new(raw.as_bytes())).is_err(), "{raw:?}");
    }
}

#[test]
fn a_head_over_the_cap_is_an_error() {
    let mut raw = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
    raw.resize(MAX_HEAD_BYTES + 1, b'a');
    raw.extend_from_slice(b"\r\n\r\n");
    assert!(read_request(&mut Cursor::new(&raw)).is_err());
}

#[test]
fn a_body_over_the_cap_is_an_error() {
    let raw = format!("POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
    let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
    assert_eq!(err.to_string(), "body too large");
}

#[test]
fn a_chunk_over_the_cap_is_an_error() {
    let raw = format!("{:x}\r\n", MAX_BODY_BYTES + 1);
    let err = read_chunk(&mut Cursor::new(raw.as_bytes())).unwrap_err();
    assert_eq!(err.to_string(), "chunk too large");
}
