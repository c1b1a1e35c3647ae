//! The `hirata submit` client: send a program and a sweep grid to a
//! running daemon and consume its chunked progress stream.

use std::io::{self, BufReader};
use std::net::TcpStream;

use crate::http::{read_body, read_chunk, read_response_head, write_request};
use crate::json::Json;

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
    fn render(&self) -> String {
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
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(normalize_addr(addr))?;
    stream.set_nodelay(true)?;
    Ok(stream)
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
    let mut stream = connect(addr)?;
    write_request(&mut stream, "POST", "/submit", request.render().as_bytes())?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader)?;
    if head.status != 200 {
        let body = read_body(&mut reader, &head)?;
        return Err(bad_data(error_text(&body, head.status)));
    }

    let mut workers = 0usize;
    let mut rows: Vec<SubmitRow> = Vec::new();
    let mut cache_hits = 0usize;
    let mut executed = 0usize;
    let mut failed = 0usize;
    let mut saw_done = false;
    let mut buffer = String::new();
    while let Some(chunk) = read_chunk(&mut reader)? {
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

/// Asks the daemon to shut down gracefully.
pub fn shutdown(addr: &str) -> io::Result<()> {
    let mut stream = connect(addr)?;
    write_request(&mut stream, "POST", "/shutdown", b"")?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader)?;
    if head.status != 200 {
        let body = read_body(&mut reader, &head)?;
        return Err(bad_data(error_text(&body, head.status)));
    }
    Ok(())
}

fn simple_get(addr: &str, path: &str) -> io::Result<Vec<u8>> {
    let mut stream = connect(addr)?;
    write_request(&mut stream, "GET", path, b"")?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader)?;
    let body = read_body(&mut reader, &head)?;
    if head.status != 200 {
        return Err(bad_data(error_text(&body, head.status)));
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
