//! The `hirata submit` client: send a program and a sweep grid to a
//! running daemon and consume its chunked progress stream.
//!
//! Each thread keeps one idle connection for the daemon it last
//! talked to and sends its next request to the same address on it. A
//! connection goes back to the thread only after a complete response
//! that neither said `Connection: close` nor lacked framing. The
//! daemon closes a kept connection only between requests, so when a
//! reused connection fails before the first response byte, the
//! request was never read and goes out once more on a new connection.
//!
//! Only a caller that sends several requests from one thread gains
//! from this, such as an in-process harness that submits back to back.
//! The `hirata submit`, `stats` and `shutdown` commands send one
//! request per process, so each of them opens a new connection.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::http::{read_body, read_chunk, read_response_head, write_request, ResponseHead};
use crate::json::Json;

thread_local! {
    /// This thread's idle kept connection and the normalized address
    /// it goes to.
    static IDLE: RefCell<Option<(String, BufReader<TcpStream>)>> = const { RefCell::new(None) };
}

/// Execution mode of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fan the grid through the daemon's thread-pool engine.
    Pool,
    /// Round-robin every grid point on one daemon thread via the
    /// batched stepper.
    Interleaved,
}

impl Mode {
    fn wire(self) -> &'static str {
        match self {
            Mode::Pool => "pool",
            Mode::Interleaved => "interleaved",
        }
    }
}

/// A submission: program source plus the sweep grid.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Display name (typically the program path); engine-side only.
    pub name: String,
    /// Assembly source text.
    pub program: String,
    /// Thread-slot counts to sweep.
    pub slots: Vec<usize>,
    /// Load/store-unit counts to sweep (1 and/or 2).
    pub ls: Vec<usize>,
    /// Execution mode.
    pub mode: Mode,
    /// Per-job wall-clock timeout in seconds (`None` for the daemon
    /// default).
    pub timeout_secs: Option<u64>,
    /// Ask the daemon to record Chrome trace artifacts (pool mode
    /// only).
    pub trace: bool,
}

impl SubmitRequest {
    /// The request's JSON body, as [`submit`] sends it.
    pub fn render(&self) -> String {
        let nums = |ns: &[usize]| Json::Arr(ns.iter().map(|&n| Json::u64(n as u64)).collect());
        let mut pairs = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("program".to_string(), Json::Str(self.program.clone())),
            ("slots".to_string(), nums(&self.slots)),
            ("ls".to_string(), nums(&self.ls)),
            ("mode".to_string(), Json::Str(self.mode.wire().to_string())),
            ("trace".to_string(), Json::Bool(self.trace)),
        ];
        if let Some(secs) = self.timeout_secs {
            pairs.push(("timeout_secs".to_string(), Json::u64(secs)));
        }
        Json::Obj(pairs).render()
    }
}

/// One per-job event from the daemon's progress stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRow {
    /// Grid-point index in submission order.
    pub index: usize,
    /// Thread-slot count.
    pub slots: usize,
    /// Load/store-unit count.
    pub ls: usize,
    /// Content hash of the job (the artifact-store key).
    pub key: String,
    /// Whether the daemon answered this point from the cache.
    pub cached: bool,
    /// `Ok((cycles, instructions))` or the daemon's failure text.
    pub outcome: Result<(u64, u64), String>,
}

/// The complete outcome of one submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// The daemon engine's worker count (renders into the table
    /// header exactly like a local `--jobs N`).
    pub workers: usize,
    /// One row per grid point, sorted back into submission order.
    pub rows: Vec<SubmitRow>,
    /// Grid points answered from the artifact store.
    pub cache_hits: usize,
    /// Grid points actually simulated.
    pub executed: usize,
    /// Grid points that failed.
    pub failed: usize,
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Opens a connection to the daemon with `TCP_NODELAY` set: every
/// request goes out in one write and should not wait for an ACK.
fn connect(addr: &str) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// This thread's idle connection, if it goes to `addr`.
fn take_idle(addr: &str) -> Option<BufReader<TcpStream>> {
    IDLE.with(|idle| idle.borrow_mut().take()).filter(|(to, _)| to == addr).map(|(_, conn)| conn)
}

/// A response whose head has been read, on its connection.
struct Response {
    addr: String,
    reader: BufReader<TcpStream>,
    head: ResponseHead,
}

impl Response {
    /// Hands the connection back to this thread for the next request;
    /// call it only once the body is read to its end.
    fn finish(self) {
        if self.head.keeps_connection() {
            IDLE.with(|idle| *idle.borrow_mut() = Some((self.addr, self.reader)));
        }
    }
}

/// Writes the request and waits for the first byte of the response.
fn send(conn: &mut BufReader<TcpStream>, request: &[u8]) -> io::Result<()> {
    conn.get_mut().write_all(request)?;
    if conn.fill_buf()?.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    Ok(())
}

/// Sends one request to `addr`, on this thread's idle connection if it
/// goes there, and reads the response head. `close` asks the daemon to
/// close the connection after answering.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    close: bool,
) -> io::Result<Response> {
    let addr = normalize_addr(addr);
    let mut request = Vec::new();
    write_request(&mut request, method, path, body, close)?;
    let fresh = || -> io::Result<BufReader<TcpStream>> {
        let mut conn = connect(&addr)?;
        send(&mut conn, &request)?;
        Ok(conn)
    };
    let mut reader = match take_idle(&addr) {
        Some(mut conn) => match send(&mut conn, &request) {
            Ok(()) => conn,
            // The daemon closed the connection while it sat idle, so
            // it never read this request.
            Err(e) if is_closed(&e) => fresh()?,
            Err(e) => return Err(e),
        },
        None => fresh()?,
    };
    let head = read_response_head(&mut reader)?;
    Ok(Response { addr, reader, head })
}

/// Whether `e` says the peer had closed the connection.
fn is_closed(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Accepts `HOST:PORT`, `:PORT`, or a bare port number; bare and
/// host-less forms default to loopback.
pub fn normalize_addr(addr: &str) -> String {
    if addr.chars().all(|c| c.is_ascii_digit()) && !addr.is_empty() {
        return format!("127.0.0.1:{addr}");
    }
    if let Some(port) = addr.strip_prefix(':') {
        return format!("127.0.0.1:{port}");
    }
    addr.to_string()
}

/// Submits a sweep and consumes the event stream. `progress` fires
/// after every per-job event with `(finished, total)`.
pub fn submit(
    addr: &str,
    request: &SubmitRequest,
    progress: &mut dyn FnMut(usize, usize),
) -> io::Result<SubmitOutcome> {
    let mut response = exchange(addr, "POST", "/submit", request.render().as_bytes(), false)?;
    let status = response.head.status;
    if status != 200 {
        let body = read_body(&mut response.reader, &response.head)?;
        response.finish();
        return Err(bad_data(error_text(&body, status)));
    }

    let mut workers = 0usize;
    let mut rows: Vec<SubmitRow> = Vec::new();
    let mut cache_hits = 0usize;
    let mut executed = 0usize;
    let mut failed = 0usize;
    let mut saw_done = false;
    let mut buffer = String::new();
    while let Some(chunk) = read_chunk(&mut response.reader)? {
        buffer
            .push_str(std::str::from_utf8(&chunk).map_err(|_| bad_data("non-utf8 event stream"))?);
        // Events are newline-delimited; a chunk usually carries whole
        // lines but the framing does not promise it.
        while let Some(pos) = buffer.find('\n') {
            let line: String = buffer.drain(..=pos).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let event = Json::parse(line).map_err(|e| bad_data(format!("bad event: {e}")))?;
            match event.get("event").and_then(Json::as_str) {
                Some("accepted") => {
                    workers = event
                        .get("workers")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad_data("accepted event without workers"))?
                        as usize;
                }
                Some("job") => {
                    let row = parse_job_event(&event)?;
                    let total = event.get("total").and_then(Json::as_u64).unwrap_or(0) as usize;
                    if row.cached {
                        cache_hits += 1;
                    } else {
                        executed += 1;
                    }
                    if row.outcome.is_err() {
                        failed += 1;
                    }
                    rows.push(row);
                    progress(rows.len(), total);
                }
                Some("done") => saw_done = true,
                _ => return Err(bad_data("unknown event type")),
            }
        }
    }
    response.finish();
    if !saw_done {
        return Err(bad_data("event stream ended before `done`"));
    }
    rows.sort_by_key(|row| row.index);
    Ok(SubmitOutcome { workers, rows, cache_hits, executed, failed })
}

fn parse_job_event(event: &Json) -> io::Result<SubmitRow> {
    let num = |field: &str| {
        event
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad_data(format!("job event without `{field}`")))
    };
    let outcome = if event.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok((num("cycles")?, num("instructions")?))
    } else {
        Err(event.get("error").and_then(Json::as_str).unwrap_or("unknown failure").to_string())
    };
    Ok(SubmitRow {
        index: num("index")? as usize,
        slots: num("slots")? as usize,
        ls: num("ls")? as usize,
        key: event
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_data("job event without `key`"))?
            .to_string(),
        cached: event.get("cached").and_then(Json::as_bool).unwrap_or(false),
        outcome,
    })
}

/// Fetches `/stats` as a parsed JSON document.
pub fn fetch_stats(addr: &str) -> io::Result<Json> {
    let body = simple_get(addr, "/stats")?;
    Json::parse(std::str::from_utf8(&body).map_err(|_| bad_data("non-utf8 stats"))?)
        .map_err(|e| bad_data(format!("bad stats json: {e}")))
}

/// Fetches a cached result document by content hash.
pub fn fetch_result(addr: &str, key: &str) -> io::Result<Json> {
    let body = simple_get(addr, &format!("/result/{key}"))?;
    Json::parse(std::str::from_utf8(&body).map_err(|_| bad_data("non-utf8 result"))?)
        .map_err(|e| bad_data(format!("bad result json: {e}")))
}

/// Asks the daemon to shut down gracefully. This thread's idle
/// connection to it is dropped first, and the request goes out on a
/// new connection with `Connection: close`.
pub fn shutdown(addr: &str) -> io::Result<()> {
    drop(take_idle(&normalize_addr(addr)));
    let mut response = exchange(addr, "POST", "/shutdown", b"", true)?;
    if response.head.status != 200 {
        let body = read_body(&mut response.reader, &response.head)?;
        return Err(bad_data(error_text(&body, response.head.status)));
    }
    Ok(())
}

fn simple_get(addr: &str, path: &str) -> io::Result<Vec<u8>> {
    let mut response = exchange(addr, "GET", path, b"", false)?;
    let body = read_body(&mut response.reader, &response.head)?;
    let status = response.head.status;
    response.finish();
    if status != 200 {
        return Err(bad_data(error_text(&body, status)));
    }
    Ok(body)
}

/// Extracts the daemon's `{"error": ...}` text, falling back to the
/// bare status code.
fn error_text(body: &[u8], status: u16) -> String {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| doc.get("error").and_then(|e| e.as_str().map(String::from)))
        .unwrap_or_else(|| format!("server returned status {status}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_forms_normalize_to_loopback() {
        assert_eq!(normalize_addr("8080"), "127.0.0.1:8080");
        assert_eq!(normalize_addr(":8080"), "127.0.0.1:8080");
        assert_eq!(normalize_addr("10.1.2.3:80"), "10.1.2.3:80");
        assert_eq!(normalize_addr("host:80"), "host:80");
    }

    #[test]
    fn submit_request_renders_deterministic_json() {
        let req = SubmitRequest {
            name: "p.s".into(),
            program: "halt".into(),
            slots: vec![1, 2],
            ls: vec![1],
            mode: Mode::Pool,
            timeout_secs: Some(5),
            trace: false,
        };
        assert_eq!(
            req.render(),
            "{\"name\":\"p.s\",\"program\":\"halt\",\"slots\":[1,2],\"ls\":[1],\
             \"mode\":\"pool\",\"trace\":false,\"timeout_secs\":5}"
        );
    }
}
