//! Whole-input fuzzing of the HTTP framing: hostile byte streams fed to
//! `read_request` and `read_chunk` end in `Ok` or an `io::Error`, never
//! a panic, and nothing they accept exceeds the head or body caps.

use std::io::{BufReader, Cursor};

use hirata_serve::http::{read_chunk, read_request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
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

/// Requests that start out well formed: a request line, header lines
/// and a `Content-Length` that is right, hostile or missing, then a
/// body; a random cut keeps a prefix of the whole.
fn arb_framed_request() -> impl Strategy<Value = Vec<u8>> {
    let header = ("[a-zA-Z-]{1,12}", "[ -~]{0,30}").prop_map(|(k, v)| format!("{k}: {v}\r\n"));
    let head = (
        proptest::sample::select(vec!["GET", "POST", "PUT", "get"]),
        "[ -~]{0,20}",
        proptest::collection::vec(header, 0..5),
    );
    let rest = (
        prop::option::of(arb_length(false)),
        proptest::sample::select(vec!["\r\n", "\n"]),
        arb_bytes(64),
        0usize..4096,
    );
    (head, rest).prop_map(|((method, path, headers), (length, eol, body, cut))| {
        let length = length.unwrap_or_else(|| body.len().to_string());
        let mut out = format!(
            "{method} /{path} HTTP/1.1\r\n{}Content-Length: {length}\r\n{eol}",
            headers.concat()
        )
        .into_bytes();
        out.extend_from_slice(&body);
        // Cuts past the end (most of them) keep the whole request.
        out.truncate(cut);
        out
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

/// Checks what `read_request` makes of `bytes`: an error, or a
/// request within both caps whose body is exactly as long as it said.
fn check_request(bytes: &[u8]) {
    let Ok(req) = read_request(&mut Cursor::new(bytes)) else { return };
    let head = req.method.len()
        + req.path.len()
        + req.headers.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
    assert!(head <= MAX_HEAD_BYTES, "head of {head} bytes accepted");
    assert!(req.body.len() as u64 <= MAX_BODY_BYTES);
    match req.headers.get("content-length").map(|n| n.parse::<u64>()) {
        Some(Ok(n)) => assert_eq!(req.body.len() as u64, n),
        Some(Err(_)) => panic!("unparsable length accepted"),
        None => assert!(req.body.is_empty()),
    }
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
        check_request(&bytes);
    }

    #[test]
    fn hostile_chunk_streams_end_in_chunks_or_an_error(bytes in arb_chunk_stream()) {
        check_chunks(&bytes);
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
