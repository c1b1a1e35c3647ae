//! Minimal HTTP/1.1 framing over [`std::net::TcpStream`].
//!
//! Only what the serving daemon needs: request parsing with
//! `Content-Length` bodies, fixed-length responses, and chunked
//! transfer encoding for streaming progress events. Connections are
//! persistent: [`read_request`] reads from a `BufRead` that lives as
//! long as the connection, so the bytes of a pipelined next request
//! stay buffered for the next call, and a request or response says
//! `Connection: close` only when its sender will close after it.
//! A body is framed by `Content-Length` alone: a request with
//! `Transfer-Encoding`, or with two `Content-Length` values that
//! differ, is an error, because a misjudged length would shift every
//! later request on the connection.
//!
//! Messages are built into byte buffers and the caller sends each
//! buffer in one write: a whole request, a whole fixed-length
//! response, or a run of chunks that are ready together. Both ends set
//! `TCP_NODELAY`, so a small write is sent at once instead of waiting
//! on the peer's delayed ACK.
//!
//! The client half (used by `hirata submit`) lives here too so the
//! wire format is written and read by the same code.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

/// Upper bound on an accepted request body; a Figure 6-scale program
/// assembles to a few kilobytes, so 8 MiB is generous headroom while
/// still bounding a misbehaving client.
pub const MAX_BODY_BYTES: u64 = 8 * 1024 * 1024;

/// Upper bound on the request (or status) line plus headers, and on a
/// chunk-size line.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// The terminating chunk of a chunked body.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/result/3fa9c1`; query strings are kept
    /// verbatim (the daemon's routes do not use them).
    pub path: String,
    /// Header map with lowercased names; duplicate headers keep the
    /// last value.
    pub headers: HashMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The client will send nothing after this request:
    /// `Connection: close`, or HTTP/1.0 without `Connection: keep-alive`.
    pub close: bool,
}

/// Reads one line terminated by `\r\n` (or bare `\n`), enforcing the
/// shared head-size budget.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
                }
                break;
            }
            _ => {
                if *budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "header too large"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 header"))
}

/// Parses headers into a lowercased-name map. A repeated
/// `Content-Length` must repeat the same value.
fn read_headers(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> io::Result<HashMap<String, String>> {
    let mut headers = HashMap::new();
    loop {
        let line = read_line(reader, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed header"))?;
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_string());
        if name == "content-length" && headers.get(&name).is_some_and(|first| *first != value) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "conflicting content-length"));
        }
        headers.insert(name, value);
    }
}

/// Whether a `Connection` header value lists `token`.
fn connection_has(headers: &HashMap<String, String>, token: &str) -> bool {
    headers
        .get("connection")
        .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
}

/// Reads and parses the next request on a connection.
///
/// Returns `Ok(None)` when the peer closed the connection before the
/// first byte of a request, and `Err` on malformed framing, oversized
/// heads or bodies, or a connection closed mid-request. After an
/// `Err` the reader's position inside the stream is unknown, so the
/// connection must close.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?
        .to_string();
    let http10 = parts.next() == Some("HTTP/1.0");
    let headers = read_headers(reader, &mut budget)?;
    if headers.contains_key("transfer-encoding") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "transfer-encoding is not supported; send content-length",
        ));
    }

    let mut body = Vec::new();
    if let Some(len) = headers.get("content-length") {
        let len: u64 = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
        }
        body.resize(len as usize, 0);
        reader.read_exact(&mut body)?;
    }
    let close =
        connection_has(&headers, "close") || (http10 && !connection_has(&headers, "keep-alive"));
    Ok(Some(Request { method, path, headers, body, close }))
}

/// A complete fixed-length response, to be sent in one write. `close`
/// tells the client the server closes after it.
pub fn response(status: u16, content_type: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{}\r\n",
        status_text(status),
        body.len(),
        connection_line(close),
    )
    .into_bytes();
    message.extend_from_slice(body);
    message
}

/// Appends the head of a chunked response to `out`; follow it with
/// [`push_chunk`] calls and [`LAST_CHUNK`].
pub fn chunked_head(out: &mut Vec<u8>, status: u16, content_type: &str, close: bool) {
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n{}\r\n",
            status_text(status),
            connection_line(close),
        )
        .as_bytes(),
    );
}

/// Appends one chunk (size line, data and CRLF) to `out`. Empty data
/// appends nothing: an empty chunk would end the body.
pub fn push_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

fn connection_line(close: bool) -> &'static str {
    if close {
        "Connection: close\r\n"
    } else {
        ""
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// The status line and headers of a response, as seen by the client.
#[derive(Debug)]
pub struct ResponseHead {
    /// Numeric status code.
    pub status: u16,
    /// Header map with lowercased names.
    pub headers: HashMap<String, String>,
}

impl ResponseHead {
    /// Whether the connection can carry another request once this
    /// response's body is read: the server did not say
    /// `Connection: close`, and the body is framed by a length or by
    /// chunks rather than by the server closing.
    pub fn keeps_connection(&self) -> bool {
        let framed = self.headers.contains_key("content-length")
            || self.headers.get("transfer-encoding").is_some_and(|v| v == "chunked");
        framed && !connection_has(&self.headers, "close")
    }
}

/// Writes one client request in one write (the only method bodies we
/// send are JSON, so the content type is fixed). `close` asks the
/// server to close the connection after answering.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: hirata\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n",
        body.len(),
        connection_line(close),
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Reads the response status line and headers, leaving the reader
/// positioned at the body.
pub fn read_response_head(reader: &mut impl BufRead) -> io::Result<ResponseHead> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?;
    let mut parts = status_line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an http response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status code"))?;
    let headers = read_headers(reader, &mut budget)?;
    Ok(ResponseHead { status, headers })
}

/// Reads one chunk of a chunked response body. Returns `None` at the
/// terminating zero-length chunk.
pub fn read_chunk(reader: &mut impl BufRead) -> io::Result<Option<Vec<u8>>> {
    let mut budget = MAX_HEAD_BYTES;
    let size_line = read_line(reader, &mut budget)?;
    let size_hex = size_line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_hex, 16)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
    if size as u64 > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "chunk too large"));
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "missing chunk terminator"));
    }
    if size == 0 {
        return Ok(None);
    }
    Ok(Some(data))
}

/// Reads a fixed-length body according to the response headers, or
/// everything up to EOF when the response gives no length.
pub fn read_body(reader: &mut impl BufRead, head: &ResponseHead) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    if let Some(len) = head.headers.get("content-length") {
        let len: u64 = len
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
        }
        body.resize(len as usize, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Round-trips two request/response pairs over one real socket so
    /// the server-side writer and client-side reader are tested
    /// against each other, and the connection outlives a request.
    #[test]
    fn requests_and_fixed_responses_round_trip_on_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(conn);
            let req = read_request(&mut reader).expect("parses").expect("a request");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/submit");
            assert_eq!(req.body, b"{\"x\":1}");
            assert!(!req.close);
            assert_eq!(
                req.headers.get("content-type").map(String::as_str),
                Some("application/json")
            );
            let reply = response(200, "application/json", b"{\"ok\":true}", false);
            reader.get_mut().write_all(&reply).expect("writes");
            let req = read_request(&mut reader).expect("parses").expect("a second request");
            assert_eq!((req.path.as_str(), req.close), ("/stats", true));
            reader.get_mut().write_all(&response(200, "text/plain", b"bye", true)).expect("writes");
            assert!(read_request(&mut reader).expect("a clean close").is_none());
        });

        let mut stream = TcpStream::connect(addr).expect("connects");
        write_request(&mut stream, "POST", "/submit", b"{\"x\":1}", false).expect("sends");
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).expect("head");
        assert_eq!(head.status, 200);
        assert!(head.keeps_connection());
        let body = read_body(&mut reader, &head).expect("body");
        assert_eq!(body, b"{\"ok\":true}");
        write_request(reader.get_mut(), "GET", "/stats", b"", true).expect("sends");
        let head = read_response_head(&mut reader).expect("head");
        assert!(!head.keeps_connection());
        assert_eq!(read_body(&mut reader, &head).expect("body"), b"bye");
        drop(reader);
        server.join().expect("server thread");
    }

    #[test]
    fn chunked_stream_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accepts");
            let _ = read_request(&mut BufReader::new(&mut conn)).expect("parses");
            let mut out = Vec::new();
            chunked_head(&mut out, 200, "application/x-ndjson", false);
            push_chunk(&mut out, b"first\n");
            push_chunk(&mut out, b"");
            push_chunk(&mut out, b"second\n");
            out.extend_from_slice(LAST_CHUNK);
            conn.write_all(&out).expect("writes");
        });

        let mut stream = TcpStream::connect(addr).expect("connects");
        write_request(&mut stream, "GET", "/stream", b"", false).expect("sends");
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).expect("head");
        assert_eq!(head.headers.get("transfer-encoding").map(String::as_str), Some("chunked"));
        assert!(head.keeps_connection());
        let mut seen = Vec::new();
        while let Some(chunk) = read_chunk(&mut reader).expect("chunk") {
            seen.extend_from_slice(&chunk);
        }
        assert_eq!(seen, b"first\nsecond\n");
        server.join().expect("server thread");
    }

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        read_request(&mut Cursor::new(raw.as_bytes()))
    }

    #[test]
    fn framing_a_persistent_connection_cannot_trust_is_an_error() {
        let err = |raw: &str| parse(raw).expect_err(raw).to_string();
        assert!(err("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").contains("transfer"));
        assert_eq!(
            err("POST / HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 2\r\n\r\nab"),
            "conflicting content-length"
        );
        let same = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab");
        assert_eq!(same.expect("agreeing lengths").expect("a request").body, b"ab");
        assert!(parse("").expect("a clean end").is_none());
        assert!(parse("GET / HTTP/1.1\r\n").is_err(), "a cut-short head");
    }

    #[test]
    fn close_follows_the_connection_header_and_the_version() {
        let close = |raw: &str| parse(raw).expect(raw).expect(raw).close;
        assert!(!close("GET / HTTP/1.1\r\n\r\n"));
        assert!(close("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(close("GET / HTTP/1.1\r\nConnection: te, close\r\n\r\n"));
        assert!(close("GET / HTTP/1.0\r\n\r\n"));
        assert!(!close("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw =
            format!("POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(&raw).unwrap_err().to_string(), "body too large");
    }

    #[test]
    fn malformed_chunk_size_is_an_error() {
        let mut reader = Cursor::new(b"zz\r\n".to_vec());
        assert!(read_chunk(&mut reader).is_err());
    }
}
