//! The `hirata serve` daemon: accept loop, HTTP worker pool, routes.
//!
//! Architecture: a blocking [`TcpListener`] accept loop hands
//! connections to a fixed pool of HTTP worker threads over a channel.
//! Connections are persistent: a worker answers the requests on its
//! connection in order, each read through one buffered reader that
//! lives as long as the connection, until the client closes it or
//! asks to, a request cannot be framed, the connection sits idle for
//! [`IDLE_LIMIT`], another accepted connection waits for a worker, or
//! the daemon shuts down. A worker waits for a next request in short
//! slices and checks those conditions between them, so an idle kept
//! connection never pins a worker. After a response that says
//! `Connection: close` the worker half-closes and drains the
//! connection briefly, so a request the client already sent behind
//! it does not turn the close into a reset.
//!
//! A submission's grid points run as one batch of the shared [`Lab`]
//! engine, placed by the submission's mode: `pool` spreads the jobs
//! over the engine's long-lived simulation workers, and `interleaved`
//! steps them all round-robin as lanes of one `MachineBatch` on the
//! HTTP worker itself. Either way the HTTP worker streams per-job
//! progress back as chunked ndjson events, every set of events that
//! is ready at the same moment in one write, and results land in the
//! shared content-addressed [`DiskCache`], so a resubmission is
//! answered without simulating.
//!
//! Routes:
//!
//! | method | path            | reply                                     |
//! |--------|-----------------|-------------------------------------------|
//! | GET    | `/health`       | liveness probe                            |
//! | GET    | `/stats`        | daemon, transport and artifact-store counters |
//! | POST   | `/submit`       | chunked per-job progress events           |
//! | GET    | `/result/{key}` | cached result for a content hash          |
//! | GET    | `/trace/{key}`  | Chrome trace artifact for a content hash  |
//! | POST   | `/shutdown`     | graceful stop                             |

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hirata_lab::{
    default_cache_dir, valid_key, BatchEvent, DiskCache, Job, JobResult, Lab, Placement,
};

use crate::http::{chunked_head, push_chunk, read_request, response, Request, LAST_CHUNK};
use crate::json::Json;
use crate::{sweep_config, sweep_grid};

/// Socket read timeout once a request has started: a stalled client
/// must not pin an HTTP worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a connection may wait for its next request before the
/// daemon closes it.
pub const IDLE_LIMIT: Duration = Duration::from_secs(5);

/// The slices a worker waits for a next request in; between slices it
/// checks for shutdown, for a connection waiting for a worker, and for
/// the idle limit.
const IDLE_SLICE: Duration = Duration::from_millis(25);

/// Longest a worker drains a connection it closes after a response;
/// see [`linger`].
const LINGER: Duration = Duration::from_millis(250);

/// Most grid points one submission may ask for: 64 slot counts (the
/// slot-mask width) times both load/store-unit variants.
const MAX_GRID_POINTS: usize = 128;

/// Most JSON values a `/submit` document may hold. The largest one
/// `parse_submit` accepts has two lists of at most `MAX_GRID_POINTS`
/// entries, their two arrays, the root object and five scalar fields;
/// the slack covers a few fields it ignores. A longer document fails
/// inside the parse, before it can build a large tree.
const MAX_SUBMIT_VALUES: usize = 2 * MAX_GRID_POINTS + 16;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// HTTP worker threads (concurrent connections served).
    pub http_workers: usize,
    /// Simulation worker threads the daemon's engine keeps for
    /// pool-mode submissions; `None` uses one per available CPU.
    pub sim_workers: Option<usize>,
    /// Artifact-store directory; `None` uses the lab default
    /// (`$HIRATA_LAB_CACHE` or `target/lab-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Disables the artifact store entirely.
    pub no_cache: bool,
    /// LRU byte budget for the artifact store.
    pub cache_budget: Option<u64>,
    /// Directory for Chrome trace artifacts of traced submissions.
    pub trace_dir: PathBuf,
    /// Silences the startup line.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 4,
            sim_workers: None,
            cache_dir: None,
            no_cache: false,
            cache_budget: None,
            trace_dir: PathBuf::from("target/serve-traces"),
            quiet: false,
        }
    }
}

/// Shared daemon state: the execution engine, the artifact store,
/// and the metrics counters.
struct AppState {
    lab: Lab,
    cache: Option<DiskCache>,
    trace_dir: PathBuf,
    addr: SocketAddr,
    started: Instant,
    /// Connections handed to the HTTP workers.
    connections: AtomicU64,
    /// Socket writes of response bytes.
    writes: AtomicU64,
    requests: AtomicU64,
    submissions: AtomicU64,
    jobs_run: AtomicU64,
    jobs_cached: AtomicU64,
    jobs_failed: AtomicU64,
    /// Accepted connections no worker has taken yet.
    queued: AtomicUsize,
    shutdown: AtomicBool,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    http_workers: usize,
    quiet: bool,
}

impl Server {
    /// Binds the listener and builds the shared state; the daemon is
    /// not serving until [`Server::run`].
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let cache = if config.no_cache {
            None
        } else {
            let dir = config.cache_dir.clone().unwrap_or_else(default_cache_dir);
            let mut cache = DiskCache::open(dir)?;
            if let Some(budget) = config.cache_budget {
                cache = cache.with_byte_budget(budget);
            }
            Some(cache)
        };

        let mut lab = Lab::new().quiet();
        if let Some(workers) = config.sim_workers {
            lab = lab.with_workers(workers);
        }
        lab = match &cache {
            Some(cache) => lab.with_cache(cache.clone()),
            None => lab.without_cache(),
        };

        let state = Arc::new(AppState {
            lab,
            cache,
            trace_dir: config.trace_dir,
            addr,
            started: Instant::now(),
            connections: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
            jobs_cached: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server {
            listener,
            state,
            http_workers: config.http_workers.max(1),
            quiet: config.quiet,
        })
    }

    /// The bound address (resolves the port when binding to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Runs the accept loop until a `POST /shutdown` arrives. Blocks
    /// the calling thread; use [`Server::spawn`] for a background
    /// daemon.
    pub fn run(self) -> io::Result<()> {
        if !self.quiet {
            eprintln!("[serve] listening on {}", self.state.addr);
        }
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.http_workers);
        for _ in 0..self.http_workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            workers.push(thread::spawn(move || loop {
                // Holding the lock only while receiving keeps the
                // other workers free to pick up the next connection.
                let conn = { rx.lock().expect("receiver lock").recv() };
                match conn {
                    Ok(stream) => {
                        state.queued.fetch_sub(1, Ordering::SeqCst);
                        serve_connection(&state, stream);
                    }
                    Err(_) => break, // acceptor gone: drain complete
                }
            }));
        }

        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                // A send can only fail if every worker died; that is
                // a bug worth surfacing, not swallowing.
                Ok(stream) => {
                    self.state.connections.fetch_add(1, Ordering::Relaxed);
                    self.state.queued.fetch_add(1, Ordering::SeqCst);
                    tx.send(stream).expect("http workers alive");
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        if !self.quiet {
            eprintln!("[serve] shut down");
        }
        Ok(())
    }

    /// Binds and serves on a background thread; returns the bound
    /// address and the join handle.
    pub fn spawn(
        config: ServeConfig,
    ) -> io::Result<(SocketAddr, thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        Ok((addr, thread::spawn(move || server.run())))
    }
}

/// Builds a JSON object from label/value pairs.
fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One accepted connection, read through a buffer that lives as long
/// as it, so the bytes of a pipelined next request are kept.
struct Conn<'s> {
    state: &'s AppState,
    reader: BufReader<TcpStream>,
}

impl Conn<'_> {
    /// Sends `bytes` in one write, counted in `/stats`.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        self.reader.get_mut().write_all(bytes)
    }

    fn respond_json(&mut self, status: u16, body: &Json, close: bool) -> io::Result<()> {
        self.send(&response(status, "application/json", body.render().as_bytes(), close))
    }

    fn respond_error(&mut self, status: u16, msg: &str, close: bool) -> io::Result<()> {
        self.respond_json(status, &obj(vec![("error", Json::Str(msg.to_string()))]), close)
    }

    /// Waits for the first byte of the next request; false means the
    /// connection closes instead, because the peer closed it, it sat
    /// idle past [`IDLE_LIMIT`], the daemon is shutting down, or —
    /// once it has carried a request — another accepted connection is
    /// waiting for a worker. No byte of a request has been read when
    /// this says false, so a client may safely send it again.
    fn await_request(&mut self, kept: bool) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        let state = self.state;
        let _ = self.reader.get_ref().set_read_timeout(Some(IDLE_SLICE));
        let idle_since = Instant::now();
        let ready = loop {
            match self.reader.fill_buf() {
                // An empty read is the peer's close.
                Ok(bytes) => break !bytes.is_empty(),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break false,
            }
            if state.shutdown.load(Ordering::SeqCst)
                || (kept && state.queued.load(Ordering::SeqCst) > 0)
                || idle_since.elapsed() >= IDLE_LIMIT
            {
                break false;
            }
        };
        let _ = self.reader.get_ref().set_read_timeout(Some(READ_TIMEOUT));
        ready
    }
}

/// Answers the requests of one connection in order until it closes.
fn serve_connection(state: &AppState, stream: TcpStream) {
    // Each response message and each set of progress events is one
    // write; send it at once rather than after the client's delayed
    // ACK.
    let _ = stream.set_nodelay(true);
    let mut conn = Conn { state, reader: BufReader::new(stream) };
    let mut kept = false;
    while conn.await_request(kept) {
        let close = match read_request(&mut conn.reader) {
            Ok(Some(request)) => route(&mut conn, &request),
            Ok(None) => true,
            Err(e) => {
                // The stream's framing is lost; nothing after this
                // can be read as a request.
                let _ = conn.respond_error(400, &format!("bad request: {e}"), true);
                true
            }
        };
        if close {
            linger(conn.reader.into_inner());
            return;
        }
        kept = true;
    }
    // An idle close: no byte of a next request had arrived when the
    // worker looked. One that lands in between is reset before its
    // first response byte, which tells the client to send it again.
}

/// Closes a connection after a response that said `Connection: close`
/// without resetting it. Closing a socket with unread bytes — a
/// request the client pipelined behind the last one, or the rest of a
/// body that could not be framed — makes the kernel send a reset
/// instead of a close, and the reset can destroy the response just
/// written. So the worker half-closes, which the client reads as EOF
/// after the response, then reads and drops whatever the client sent
/// until it closes its end, for at most [`LINGER`].
fn linger(stream: TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match (&stream).read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Routes and answers one request; returns whether the connection
/// closes after it. The response says `Connection: close` exactly
/// when it does.
fn route(conn: &mut Conn, request: &Request) -> bool {
    let state = conn.state;
    state.requests.fetch_add(1, Ordering::Relaxed);
    let close = request.close
        || state.shutdown.load(Ordering::SeqCst)
        || state.queued.load(Ordering::SeqCst) > 0;
    let sent = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let body =
                obj(vec![("ok", Json::Bool(true)), ("service", Json::Str("hirata-serve".into()))]);
            conn.respond_json(200, &body, close)
        }
        ("GET", "/stats") => conn.respond_json(200, &stats_json(state), close),
        ("POST", "/submit") => handle_submit(conn, request, close),
        ("GET", path) if path.starts_with("/result/") => {
            handle_result(conn, &path["/result/".len()..], close)
        }
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace(conn, &path["/trace/".len()..], close)
        }
        ("POST", "/shutdown") => {
            let _ = conn.respond_json(200, &obj(vec![("ok", Json::Bool(true))]), true);
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking acceptor; it re-checks the flag on
            // the next connection and exits before dispatching it.
            let _ = TcpStream::connect(state.addr);
            return true;
        }
        ("GET" | "POST", _) => conn.respond_error(404, "no such route", close),
        _ => conn.respond_error(405, "method not allowed", close),
    };
    close || sent.is_err()
}

fn stats_json(state: &AppState) -> Json {
    let mut pairs = vec![
        ("uptime_secs", Json::u64(state.started.elapsed().as_secs())),
        ("sim_workers", Json::u64(state.lab.workers() as u64)),
        ("connections", Json::u64(state.connections.load(Ordering::Relaxed))),
        ("requests", Json::u64(state.requests.load(Ordering::Relaxed))),
        ("writes", Json::u64(state.writes.load(Ordering::Relaxed))),
        ("submissions", Json::u64(state.submissions.load(Ordering::Relaxed))),
        ("jobs_run", Json::u64(state.jobs_run.load(Ordering::Relaxed))),
        ("jobs_cached", Json::u64(state.jobs_cached.load(Ordering::Relaxed))),
        ("jobs_failed", Json::u64(state.jobs_failed.load(Ordering::Relaxed))),
    ];
    match &state.cache {
        Some(cache) => {
            let stats = cache.stats();
            let budget = match cache.byte_budget() {
                Some(bytes) => Json::u64(bytes),
                None => Json::Null,
            };
            pairs.push((
                "cache",
                obj(vec![
                    ("dir", Json::Str(cache.dir().display().to_string())),
                    ("hits", Json::u64(stats.hits)),
                    ("misses", Json::u64(stats.misses)),
                    ("stores", Json::u64(stats.stores)),
                    ("evictions", Json::u64(stats.evictions)),
                    ("bytes", Json::u64(stats.bytes)),
                    ("entries", Json::u64(stats.entries)),
                    ("budget", budget),
                ]),
            ));
        }
        None => pairs.push(("cache", Json::Null)),
    }
    obj(pairs)
}

/// A validated `/submit` request.
#[derive(Debug)]
struct SubmitSpec {
    name: String,
    program: Arc<hirata_isa::Program>,
    grid: Vec<(usize, usize)>,
    timeout: Duration,
    interleaved: bool,
    trace: bool,
}

fn parse_submit(body: &[u8]) -> Result<SubmitSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = Json::parse_bounded(text, MAX_SUBMIT_VALUES).map_err(|e| format!("bad json: {e}"))?;
    let source = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `program`".to_string())?;
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("submitted").to_string();

    let list = |field: &str, default: Vec<usize>| -> Result<Vec<usize>, String> {
        let Some(value) = doc.get(field) else { return Ok(default) };
        let items = value.as_arr().ok_or_else(|| format!("`{field}` must be an array"))?;
        // Neither list alone may pass the grid cap, as the other has
        // at least one entry; checking here bounds the work below.
        if items.len() > MAX_GRID_POINTS {
            return Err(too_many_points());
        }
        items
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("`{field}` entries must be numbers"))
            })
            .collect()
    };
    let slots = list("slots", vec![1, 2, 4, 8])?;
    let ls = list("ls", vec![1])?;
    if slots.is_empty() || slots.contains(&0) {
        return Err("`slots` needs positive counts".into());
    }
    if ls.is_empty() || ls.iter().any(|&n| n != 1 && n != 2) {
        return Err("`ls` entries must be 1 or 2".into());
    }
    if slots.len() * ls.len() > MAX_GRID_POINTS {
        return Err(too_many_points());
    }

    let interleaved = match doc.get("mode").and_then(Json::as_str) {
        None | Some("pool") => false,
        Some("interleaved") => true,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    let trace = doc.get("trace").and_then(Json::as_bool).unwrap_or(false);
    if trace && interleaved {
        return Err("trace capture requires pool mode".into());
    }
    let timeout = match doc.get("timeout_secs").map(Json::as_u64) {
        None => hirata_lab::DEFAULT_TIMEOUT,
        Some(Some(0)) => return Err("`timeout_secs` must be at least 1".into()),
        Some(Some(secs)) => Duration::from_secs(secs),
        Some(None) => return Err("`timeout_secs` must be a number".into()),
    };

    let program =
        hirata_asm::assemble(source).map_err(|e| format!("program does not assemble: {e}"))?;
    Ok(SubmitSpec {
        name,
        program: Arc::new(program),
        grid: sweep_grid(&slots, &ls),
        timeout,
        interleaved,
        trace,
    })
}

fn too_many_points() -> String {
    format!("a submission may have at most {MAX_GRID_POINTS} grid points (`slots` x `ls`)")
}

/// One per-job progress event on the wire.
#[allow(clippy::too_many_arguments)]
fn job_event(
    index: usize,
    slots: usize,
    ls: usize,
    key: &str,
    cached: bool,
    result: &JobResult,
    finished: usize,
    total: usize,
) -> Json {
    let mut pairs = vec![
        ("event", Json::Str("job".into())),
        ("index", Json::u64(index as u64)),
        ("slots", Json::u64(slots as u64)),
        ("ls", Json::u64(ls as u64)),
        ("key", Json::Str(key.to_string())),
        ("cached", Json::Bool(cached)),
        ("finished", Json::u64(finished as u64)),
        ("total", Json::u64(total as u64)),
    ];
    match result {
        Ok(output) => {
            pairs.push(("ok", Json::Bool(true)));
            pairs.push(("cycles", Json::u64(output.stats.cycles)));
            pairs.push(("instructions", Json::u64(output.stats.instructions)));
        }
        Err(err) => {
            pairs.push(("ok", Json::Bool(false)));
            pairs.push(("error", Json::Str(err.to_string())));
        }
    }
    obj(pairs)
}

/// A chunked ndjson response whose events wait in `pending` until
/// flushed, so events that are ready at the same moment leave in one
/// write.
struct Events<'c, 's> {
    conn: &'c mut Conn<'s>,
    pending: Vec<u8>,
    sent: io::Result<()>,
}

impl Events<'_, '_> {
    fn push(&mut self, event: &Json) {
        let mut line = event.render();
        line.push('\n');
        push_chunk(&mut self.pending, line.as_bytes());
    }

    /// Sends what is pending in one write. A client that hangs up
    /// mid-stream stops receiving events, but the batch runs to
    /// completion so its results still land in the artifact store.
    fn flush(&mut self) {
        if self.sent.is_ok() && !self.pending.is_empty() {
            self.sent = self.conn.send(&self.pending);
        }
        self.pending.clear();
    }
}

fn handle_submit(conn: &mut Conn, request: &Request, close: bool) -> io::Result<()> {
    let state = conn.state;
    let spec = match parse_submit(&request.body) {
        Ok(spec) => spec,
        Err(msg) => return conn.respond_error(400, &msg, close),
    };
    state.submissions.fetch_add(1, Ordering::Relaxed);

    let jobs: Vec<Job> = spec
        .grid
        .iter()
        .map(|&(slots, ls)| {
            let job = Job::new(
                format!("{} s{slots} {ls}LS", spec.name),
                sweep_config(slots, ls),
                Arc::clone(&spec.program),
            )
            .with_timeout(spec.timeout);
            if spec.trace {
                job.with_trace_dir(&state.trace_dir)
            } else {
                job
            }
        })
        .collect();
    let total = jobs.len();

    let (placement, workers, mode) = if spec.interleaved {
        (Placement::Interleaved, 1, "interleaved")
    } else {
        (Placement::Pool, state.lab.workers(), "pool")
    };
    let mut events = Events { conn, pending: Vec::new(), sent: Ok(()) };
    chunked_head(&mut events.pending, 200, "application/x-ndjson", close);
    events.push(&obj(vec![
        ("event", Json::Str("accepted".into())),
        ("total", Json::u64(total as u64)),
        ("workers", Json::u64(workers as u64)),
        ("mode", Json::Str(mode.into())),
    ]));

    let grid = &spec.grid;
    let batch = state.lab.run_batch_observed(jobs, placement, &mut |event| match event {
        // The head, `accepted` and every cache hit leave together,
        // before any simulation starts.
        BatchEvent::Simulating => events.flush(),
        BatchEvent::Job(summary) => {
            let (slots, ls) = grid[summary.index];
            events.push(&job_event(
                summary.index,
                slots,
                ls,
                summary.key,
                summary.cached,
                summary.result,
                summary.finished,
                summary.total,
            ));
            // An executed job's event leaves as soon as it finishes;
            // the last event waits for `done`.
            if !summary.cached && summary.finished < summary.total {
                events.flush();
            }
        }
    });
    let report = batch.report;

    state.jobs_run.fetch_add(report.executed as u64, Ordering::Relaxed);
    state.jobs_cached.fetch_add(report.cache_hits as u64, Ordering::Relaxed);
    state.jobs_failed.fetch_add(report.failed as u64, Ordering::Relaxed);

    events.push(&obj(vec![
        ("event", Json::Str("done".into())),
        ("total", Json::u64(total as u64)),
        ("executed", Json::u64(report.executed as u64)),
        ("cache_hits", Json::u64(report.cache_hits as u64)),
        ("failed", Json::u64(report.failed as u64)),
    ]));
    events.pending.extend_from_slice(LAST_CHUNK);
    events.flush();
    events.sent
}

fn handle_result(conn: &mut Conn, key: &str, close: bool) -> io::Result<()> {
    if !valid_key(key) {
        return conn.respond_error(400, "malformed result key", close);
    }
    let Some(cache) = &conn.state.cache else {
        return conn.respond_error(404, "artifact store disabled", close);
    };
    match cache.load(key) {
        Some(output) => {
            let body = obj(vec![
                ("key", Json::Str(key.to_string())),
                ("cycles", Json::u64(output.stats.cycles)),
                ("instructions", Json::u64(output.stats.instructions)),
                ("ipc", Json::Num(output.stats.ipc())),
                ("context_switches", Json::u64(output.stats.context_switches)),
                ("threads_killed", Json::u64(output.stats.threads_killed)),
                ("rotations", Json::u64(output.stats.rotations)),
            ]);
            conn.respond_json(200, &body, close)
        }
        None => conn.respond_error(404, "no such result", close),
    }
}

fn handle_trace(conn: &mut Conn, key: &str, close: bool) -> io::Result<()> {
    if !valid_key(key) {
        return conn.respond_error(400, "malformed trace key", close);
    }
    let path = conn.state.trace_dir.join(format!("{key}.json"));
    match std::fs::read(&path) {
        Ok(body) => conn.send(&response(200, "application/json", &body, close)),
        Err(_) => conn.respond_error(404, "no such trace", close),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Number spellings on or past every bound `parse_submit` reads
    /// numbers against: zero, the slot cap and one past it, negatives,
    /// fractions, exponents, and integers past `i64` and `f64` range.
    const NUMBERS: &str = "0 1 2 8 64 65 -1 -0 1.5 0.0 2e0 1E+2 1e400 -1e400 9223372036854775807 \
        9223372036854775808 -9223372036854775808 18446744073709551616 123456789012345678901234567890";

    const KEYS: &[&str] = &["program", "slots", "ls", "timeout_secs", "mode", "trace", "name", "x"];

    fn number() -> BoxedStrategy<String> {
        proptest::sample::select(NUMBERS.split_whitespace().collect())
            .prop_map(String::from)
            .boxed()
    }

    /// A value for any field: a number, another JSON kind, a short
    /// array of numbers, an array nested around the depth limit, or a
    /// long array, from under the grid cap to far past the value
    /// budget.
    fn value() -> BoxedStrategy<String> {
        let other = vec!["null", "true", "\"pool\"", "\"interleaved\"", "\"halt\"", "{}", "[]"];
        prop_oneof![
            4 => number(),
            2 => proptest::sample::select(other).prop_map(String::from),
            3 => proptest::collection::vec(number(), 0..6).prop_map(|ns| format!("[{}]", ns.join(","))),
            1 => (50usize..80).prop_map(|d| format!("{}1{}", "[".repeat(d), "]".repeat(d))),
            1 => (100usize..20_000).prop_map(|n| format!("[{}]", vec!["1"; n].join(","))),
            1 => (100usize..400).prop_map(|n| format!("[{}]", vec!["1"; n].join(","))),
        ]
        .boxed()
    }

    /// An object of random fields (keys may repeat), most often led by
    /// a program that assembles so that the other fields decide.
    fn object() -> BoxedStrategy<String> {
        let field = (proptest::sample::select(KEYS.to_vec()), value())
            .prop_map(|(key, value)| format!("\"{key}\":{value}"));
        (proptest::collection::vec(field, 0..8), 0u8..4)
            .prop_map(|(mut fields, lead)| {
                if lead > 0 {
                    fields.insert(0, "\"program\":\"halt\"".into());
                }
                format!("{{{}}}", fields.join(","))
            })
            .boxed()
    }

    /// Whole documents: objects, other roots, objects nested far past
    /// the depth limit, and objects cut short.
    fn document() -> BoxedStrategy<String> {
        prop_oneof![
            8 => object(),
            2 => value(),
            1 => (60usize..5_000).prop_map(|d| format!("{}1{}", "{\"a\":".repeat(d), "}".repeat(d))),
            1 => (object(), 0usize..64).prop_map(|(doc, keep)| doc[..keep.min(doc.len())].to_string()),
        ]
        .boxed()
    }

    /// The number of values in `doc`, as the parser's budget counts
    /// them.
    fn values(doc: &Json) -> usize {
        1 + match doc {
            Json::Arr(items) => items.iter().map(values).sum(),
            Json::Obj(fields) => fields.iter().map(|(_, v)| values(v)).sum(),
            _ => 0,
        }
    }

    #[test]
    fn the_largest_accepted_document_fits_the_budget() {
        let list = |n: usize| format!("[{}]", vec!["1"; n].join(","));
        let doc = |slots: usize, ls: usize| {
            format!(
                "{{\"program\":\"halt\",\"name\":\"n\",\"slots\":{},\"ls\":{},\
                 \"mode\":\"pool\",\"trace\":false,\"timeout_secs\":5}}",
                list(slots),
                list(ls)
            )
        };
        // Both lists at the cap pass the parse; the grid cap rejects them.
        let err = parse_submit(doc(MAX_GRID_POINTS, MAX_GRID_POINTS).as_bytes()).err().unwrap();
        assert!(err.contains("grid points"), "{err}");
        assert_eq!(parse_submit(doc(MAX_GRID_POINTS, 1).as_bytes()).map(|s| s.grid.len()), Ok(128));
        // Past the budget, the parse itself fails.
        let err = parse_submit(doc(MAX_SUBMIT_VALUES, 1).as_bytes()).err().unwrap();
        assert!(err.starts_with("bad json:") && err.contains("values"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every document ends in a spec within the bounds or in an
        /// error (the 400), never in a panic; one with more values
        /// than the budget fails inside the parse.
        #[test]
        fn hostile_documents_end_in_a_spec_or_an_error(doc in document()) {
            let over_budget = Json::parse(&doc).is_ok_and(|d| values(&d) > MAX_SUBMIT_VALUES);
            let result = parse_submit(doc.as_bytes());
            if over_budget {
                let msg = result.as_ref().err().map(String::as_str).unwrap_or_default();
                prop_assert!(msg.contains("values"), "{doc}: {msg}");
            }
            match result {
                Ok(spec) => {
                    prop_assert!((1..=MAX_GRID_POINTS).contains(&spec.grid.len()), "{doc}");
                    prop_assert!(spec.timeout >= Duration::from_secs(1), "{doc}");
                    prop_assert!(!(spec.trace && spec.interleaved), "{doc}");
                }
                Err(msg) => prop_assert!(!msg.is_empty()),
            }
        }
    }
}
