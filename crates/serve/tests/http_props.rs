//! Whole-input fuzzing of the HTTP framing: hostile byte streams fed to
//! `read_request` and `read_chunk` end in `Ok` or an `io::Error`, never
//! a panic, and nothing they accept exceeds the head or body caps.
//! Requests are read the way a persistent connection reads them: one
//! reader over the whole stream, request after request, so well-framed
//! requests sent back to back read back as themselves, in order.
//! Requests, response heads and chunks read the same whether their
//! bytes arrive all at once, a few at a time or through buffers of any
//! size.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Cursor, Read};

use hirata_serve::http::{
    read_chunk, read_chunk_into, read_request, read_response_head, Request, MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
};
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

/// A `BufRead` over `bytes` that hands out 1 to `k` bytes per fill,
/// the count varying call by call, as a socket read in small pieces
/// would.
struct Trickle<'b> {
    bytes: &'b [u8],
    pos: usize,
    /// End of the bytes the last fill handed out.
    end: usize,
    k: usize,
    fills: usize,
}

impl<'b> Trickle<'b> {
    fn new(bytes: &'b [u8], k: usize) -> Trickle<'b> {
        Trickle { bytes, pos: 0, end: 0, k, fills: 0 }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let available = self.fill_buf()?;
            let n = available.len().min(out.len());
            out[..n].copy_from_slice(&available[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Trickle<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end {
            self.fills += 1;
            let n = 1 + (self.fills * 7 + 3) % self.k;
            self.end = (self.pos + n).min(self.bytes.len());
        }
        Ok(&self.bytes[self.pos..self.end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.end);
    }
}

/// An error as the caller sees it: its kind and its text.
type Failure = (io::ErrorKind, String);

fn failure(e: io::Error) -> Failure {
    (e.kind(), e.to_string())
}

/// Every request `reader` yields, until the clean end or an error
/// (which ends the list).
fn requests_from(reader: &mut impl BufRead, limit: usize) -> Vec<Result<Option<Request>, Failure>> {
    let mut seen = Vec::new();
    for _ in 0..=limit {
        let next = read_request(reader).map_err(failure);
        let last = !matches!(next, Ok(Some(_)));
        seen.push(next);
        if last {
            break;
        }
    }
    seen
}

/// A response read as the client reads one: the head, then chunks
/// until the last one or an error.
type ResponseRead = (Result<(u16, Vec<(String, String)>), Failure>, Vec<Result<Vec<u8>, Failure>>);

fn response_from(reader: &mut impl BufRead, limit: usize) -> ResponseRead {
    let head = read_response_head(reader).map_err(failure).map(|head| {
        let mut headers: Vec<(String, String)> = head.headers.into_iter().collect();
        headers.sort();
        (head.status, headers)
    });
    let mut chunks = Vec::new();
    if head.is_ok() {
        for _ in 0..=limit {
            let mut data = b"kept".to_vec();
            match read_chunk_into(reader, &mut data) {
                Ok(more) => {
                    chunks.push(Ok(data));
                    if !more {
                        break;
                    }
                }
                Err(e) => {
                    chunks.push(Err(failure(e)));
                    break;
                }
            }
        }
    }
    (head, chunks)
}

/// Reads `bytes` through a cursor that holds them all, through
/// trickles of 1 to `k` bytes per fill for every `k` up to `max_k`, and
/// through `BufReader`s of capacity 1, 7 and 8 KiB, with `read`; every
/// way must see what the cursor sees. Returns that.
fn read_alike<T: PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    max_k: usize,
    read: impl Fn(&mut dyn BufRead) -> T,
) -> T {
    let whole = read(&mut Cursor::new(bytes));
    for k in 1..=max_k {
        assert_eq!(read(&mut Trickle::new(bytes, k)), whole, "trickle of 1 to {k} bytes");
    }
    for capacity in [1, 7, 8 * 1024] {
        let mut reader = BufReader::with_capacity(capacity, Cursor::new(bytes));
        assert_eq!(read(&mut reader), whole, "BufReader of capacity {capacity}");
    }
    whole
}

fn requests_alike(bytes: &[u8], max_k: usize) -> Vec<Result<Option<Request>, Failure>> {
    read_alike(bytes, max_k, |reader| requests_from(&mut { reader }, bytes.len()))
}

fn response_alike(bytes: &[u8], max_k: usize) -> ResponseRead {
    read_alike(bytes, max_k, |reader| response_from(&mut { reader }, bytes.len()))
}

/// Status lines, header lines and line ends as a response head might
/// spell them, well or badly, followed by a chunked body.
fn arb_response_stream() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        6 => proptest::sample::select(vec![
            "HTTP/1.1 200 OK", "HTTP/1.0 404 Not Found", "HTTP/2 200", "HTTP/1.1 abc", "\r\n",
            "\n", "\r", "Transfer-Encoding: chunked", "Content-Length: 3", "Connection: close",
            ": ", "X", " ",
        ])
        .prop_map(|s| s.as_bytes().to_vec()),
        1 => arb_bytes(12),
        1 => proptest::sample::select(vec![0xffu8, 0xc3, 0x00]).prop_map(|b| vec![b; 2]),
    ];
    (
        proptest::sample::select(vec!["HTTP/1.1 200 OK\r\n", "HTTP/1.1 500 Oops\n", ""]),
        proptest::collection::vec(piece, 0..10),
        proptest::sample::select(vec!["\r\n\r\n", "\n\n", "\r\n", ""]),
        arb_chunk_stream(),
    )
        .prop_map(|(status, pieces, end, body)| {
            let mut out = status.as_bytes().to_vec();
            out.extend(pieces.concat());
            out.extend_from_slice(end.as_bytes());
            out.extend(body);
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requests read the same whichever way their bytes are buffered.
    #[test]
    fn requests_read_alike_however_the_bytes_arrive(
        streams in proptest::collection::vec(arb_request_stream(), 1..3),
    ) {
        let _ = requests_alike(&streams.concat(), 9);
    }

    /// Response heads and chunks read the same whichever way their
    /// bytes are buffered.
    #[test]
    fn responses_read_alike_however_the_bytes_arrive(bytes in arb_response_stream()) {
        let _ = response_alike(&bytes, 9);
    }
}

/// A request head of exactly `len` bytes, its blank line included.
fn request_head_of(len: usize, eol: &str) -> Vec<u8> {
    let start = format!("GET / HTTP/1.1{eol}X-Long: ");
    let mut head = start.into_bytes();
    head.resize(len - 2 * eol.len(), b'a');
    head.extend_from_slice(format!("{eol}{eol}").as_bytes());
    head
}

/// Pinned outcomes at the head cap, with bare `\n` line ends, at an
/// end of input inside a line and with a header that is not UTF-8, each
/// read alike through every kind of buffering.
#[test]
fn heads_at_the_edges_read_alike_and_as_pinned() {
    let too_large = (io::ErrorKind::InvalidData, "header too large".to_string());
    let closed = (io::ErrorKind::UnexpectedEof, "connection closed".to_string());
    let non_utf8 = (io::ErrorKind::InvalidData, "non-utf8 header".to_string());

    for eol in ["\r\n", "\n"] {
        let at_cap = request_head_of(MAX_HEAD_BYTES, eol);
        let seen = requests_alike(&at_cap, 3);
        let request = seen[0].as_ref().expect("a head at the cap").as_ref().expect("a request");
        assert_eq!(request.headers["x-long"].len(), MAX_HEAD_BYTES - 22 - 3 * eol.len());
        assert!(matches!(seen[1], Ok(None)));
        let past_cap = request_head_of(MAX_HEAD_BYTES + 1, eol);
        assert_eq!(requests_alike(&past_cap, 3), [Err(too_large.clone())]);
    }

    let bare = requests_alike(b"POST /a HTTP/1.1\nContent-Length: 2\n\nokGET /b HTTP/1.0\n\n", 5);
    let paths: Vec<_> =
        bare.iter().flatten().flatten().map(|r| (r.path.clone(), r.close)).collect();
    assert_eq!(paths, [("/a".to_string(), false), ("/b".to_string(), true)]);
    assert_eq!(bare.len(), 3);

    // A line cut by the end of input reads as a line; the next read
    // finds the connection closed.
    assert_eq!(requests_alike(b"GET / HTTP/1.1\r\nHost: x", 5), [Err(closed.clone())]);
    assert_eq!(requests_alike(b"GET / HTTP/1.1", 5), [Err(closed.clone())]);
    assert_eq!(requests_alike(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n", 5), [Err(non_utf8.clone())]);

    let mut head = b"HTTP/1.1 200 OK\r\nX-Long: ".to_vec();
    head.resize(MAX_HEAD_BYTES - 4, b'b');
    head.extend_from_slice(b"\r\n\r\n3\r\nabc\r\n0\r\n\r\n");
    let (status, chunks) = response_alike(&head, 3);
    assert_eq!(status.expect("a head at the cap").0, 200);
    assert_eq!(chunks, [Ok(b"keptabc".to_vec()), Ok(b"kept".to_vec())]);
    head.insert(20, b'b');
    assert_eq!(response_alike(&head, 3).0, Err(too_large.clone()));
    assert_eq!(response_alike(b"HTTP/1.1 200 OK\r\nX: \xc3\r\n\r\n", 5).0, Err(non_utf8));
    assert_eq!(response_alike(b"HTTP/1.1 200", 5).0, Err(closed.clone()));

    // A chunk-size line has a cap of its own.
    let mut size_line = b"HTTP/1.1 200 OK\n\n3;".to_vec();
    let head_len = "HTTP/1.1 200 OK\n\n".len();
    size_line.resize(head_len + MAX_HEAD_BYTES - 2, b'x');
    size_line.extend_from_slice(b"\r\nabc\r\n0\n\r\n");
    let (_, chunks) = response_alike(&size_line, 3);
    assert_eq!(chunks, [Ok(b"keptabc".to_vec()), Ok(b"kept".to_vec())]);
    size_line.insert(head_len + 3, b'x');
    assert_eq!(response_alike(&size_line, 3).1, [Err(too_large)]);
    assert_eq!(response_alike(b"HTTP/1.1 200 OK\n\n5\r\nab", 5).1.len(), 1);
}
