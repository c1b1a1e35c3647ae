//! Minimal HTTP/1.1 framing over [`std::net::TcpStream`].
//!
//! Only what the serving daemon needs: request parsing with
//! `Content-Length` bodies, fixed-length responses, and chunked
//! transfer encoding for streaming progress events. Every connection
//! carries exactly one request (`Connection: close`), which keeps the
//! state machine trivial and makes worker accounting exact.
//!
//! Every message — a request, a response, one chunk — goes out in a
//! single write, and both ends set `TCP_NODELAY`, so a small message
//! is sent at once instead of waiting on the peer's delayed ACK.
//!
//! The client half (used by `hirata submit`) lives here too so the
//! wire format is written and read by the same code.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request body; a Figure 6-scale program
/// assembles to a few kilobytes, so 8 MiB is generous headroom while
/// still bounding a misbehaving client.
pub const MAX_BODY_BYTES: u64 = 8 * 1024 * 1024;

/// Upper bound on the request (or status) line plus headers, and on a
/// chunk-size line.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
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

/// Parses headers into a lowercased-name map.
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
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// Reads and parses one request from `stream`.
///
/// Returns `Err` on malformed framing, oversized heads or bodies, or
/// a closed connection.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(&mut reader, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?
        .to_string();
    let headers = read_headers(&mut reader, &mut budget)?;

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
    Ok(Request { method, path, headers, body })
}

/// Writes a complete fixed-length response and flushes.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    write_message(stream, head, body)
}

/// Sends `head` followed by `body` in one write.
fn write_message(stream: &mut TcpStream, head: String, body: &[u8]) -> io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Begins a chunked response; follow with [`write_chunk`] calls and a
/// final [`finish_chunked`].
pub fn start_chunked(stream: &mut TcpStream, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status_text(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one non-empty chunk in one write, so the client observes the
/// event immediately (progress streaming is the whole point).
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut chunk = format!("{:x}\r\n", data.len()).into_bytes();
    chunk.reserve(data.len() + 2);
    chunk.extend_from_slice(data);
    chunk.extend_from_slice(b"\r\n");
    stream.write_all(&chunk)?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
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

/// Writes one client request (the only method bodies we send are
/// JSON, so the content type is fixed).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: hirata\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    write_message(stream, head, body)
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

/// Reads a fixed-length body according to the response headers.
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
    use std::io::Cursor;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Round-trips one request/response pair over a real socket so the
    /// server-side writer and client-side reader are tested against
    /// each other.
    #[test]
    fn request_and_fixed_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accepts");
            let req = read_request(&mut conn).expect("parses");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/submit");
            assert_eq!(req.body, b"{\"x\":1}");
            assert_eq!(
                req.headers.get("content-type").map(String::as_str),
                Some("application/json")
            );
            write_response(&mut conn, 200, "application/json", b"{\"ok\":true}").expect("writes");
        });

        let mut stream = TcpStream::connect(addr).expect("connects");
        write_request(&mut stream, "POST", "/submit", b"{\"x\":1}").expect("sends");
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).expect("head");
        assert_eq!(head.status, 200);
        let body = read_body(&mut reader, &head).expect("body");
        assert_eq!(body, b"{\"ok\":true}");
        server.join().expect("server thread");
    }

    #[test]
    fn chunked_stream_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accepts");
            let _ = read_request(&mut conn).expect("parses");
            start_chunked(&mut conn, 200, "application/x-ndjson").expect("head");
            write_chunk(&mut conn, b"first\n").expect("chunk");
            write_chunk(&mut conn, b"second\n").expect("chunk");
            finish_chunked(&mut conn).expect("finish");
        });

        let mut stream = TcpStream::connect(addr).expect("connects");
        write_request(&mut stream, "GET", "/stream", b"").expect("sends");
        let mut reader = BufReader::new(stream);
        let head = read_response_head(&mut reader).expect("head");
        assert_eq!(head.headers.get("transfer-encoding").map(String::as_str), Some("chunked"));
        let mut seen = Vec::new();
        while let Some(chunk) = read_chunk(&mut reader).expect("chunk") {
            seen.extend_from_slice(&chunk);
        }
        assert_eq!(seen, b"first\nsecond\n");
        server.join().expect("server thread");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw =
            format!("POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut reader = Cursor::new(raw.into_bytes());
        let mut budget = MAX_HEAD_BYTES;
        let _ = read_line(&mut reader, &mut budget).expect("request line");
        let headers = read_headers(&mut reader, &mut budget).expect("headers");
        let len: u64 = headers["content-length"].parse().expect("parses");
        assert!(len > MAX_BODY_BYTES);
    }

    #[test]
    fn malformed_chunk_size_is_an_error() {
        let mut reader = Cursor::new(b"zz\r\n".to_vec());
        assert!(read_chunk(&mut reader).is_err());
    }
}
