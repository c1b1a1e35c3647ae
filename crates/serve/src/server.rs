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
//! engine, named by their job keys. The daemon keeps the keys of each
//! program and grid it assembled lately in a bounded memo, keyed on the
//! program as the body spells it, so a resubmission goes from the
//! body's fields to the store with no unescaping, no assembly and no
//! hashing; its program is unescaped and assembled only if some key
//! misses the store. A panic in a handler costs only its connection. The batch is placed by the submission's mode: `pool` spreads
//! the jobs over the engine's long-lived simulation workers, and
//! `interleaved` steps them all round-robin as lanes of one
//! `MachineBatch` on the HTTP worker itself. Either way the HTTP worker
//! streams per-job progress back as chunked ndjson events, every set
//! of events that is ready at the same moment in one write, and results
//! land in the shared content-addressed [`DiskCache`], so a
//! resubmission is answered without simulating.
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

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use hirata_lab::{
    default_cache_dir, valid_key, BatchEvent, DiskCache, Job, JobSummary, Lab, Placement,
};

use crate::http::{chunked_head, push_chunk, read_request, response, Request, LAST_CHUNK};
use crate::json::{Escaped, Field, Json, JsonError, ObjectWriter};
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

/// Most (program, grid) pairs the submission memo holds; past it, the
/// pair that entered first leaves.
const MEMO_CAPACITY: usize = 256;

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
    memo: Memo,
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
            memo: Memo::new(),
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
    /// Writes made on this connection.
    sends: u64,
}

impl Conn<'_> {
    /// Sends `bytes` in one write, counted in `/stats`.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.state.writes.fetch_add(1, Ordering::Relaxed);
        self.sends += 1;
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
    let mut conn = Conn { state, reader: BufReader::new(stream), sends: 0 };
    let mut kept = false;
    while conn.await_request(kept) {
        let close = match read_request(&mut conn.reader) {
            Ok(Some(request)) => route_isolated(&mut conn, &request),
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

/// [`route`], with a panic in the handler caught: the connection then
/// closes, after a 500 if no byte of a response went out, and the
/// worker goes on to its next connection.
fn route_isolated(conn: &mut Conn, request: &Request) -> bool {
    let sends = conn.sends;
    match panic::catch_unwind(AssertUnwindSafe(|| route(conn, request))) {
        Ok(close) => close,
        Err(_) => {
            if conn.sends == sends {
                let _ = conn.respond_error(500, "internal error: the handler panicked", true);
            }
            true
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
        #[cfg(test)]
        ("POST", "/test/panic") => tests::panic_in_handler(conn, &request.body),
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
        (
            "memo",
            obj(vec![
                ("hits", Json::u64(state.memo.hits.load(Ordering::Relaxed))),
                ("misses", Json::u64(state.memo.misses.load(Ordering::Relaxed))),
                ("entries", Json::u64(state.memo.len() as u64)),
            ]),
        ),
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
                    ("reads", Json::u64(stats.reads)),
                    ("budget", budget),
                ]),
            ));
        }
        None => pairs.push(("cache", Json::Null)),
    }
    obj(pairs)
}

/// A validated `/submit` request, borrowed from its body; its program
/// is neither unescaped nor assembled yet.
#[derive(Debug)]
struct SubmitSpec<'a> {
    name: Cow<'a, str>,
    /// The program as the body spells it: the memo's key.
    program: Escaped<'a>,
    grid: Vec<(usize, usize)>,
    timeout: Duration,
    interleaved: bool,
    trace: bool,
}

impl SubmitSpec<'_> {
    /// Unescapes and assembles the program and builds the job of each
    /// grid point, in grid order. The name and timeout are this
    /// request's; the trace directory is the engine's to set.
    fn jobs(&self) -> Result<Vec<Job>, String> {
        let program = hirata_asm::assemble(&self.program.unescape())
            .map_err(|e| format!("program does not assemble: {e}"))?;
        let program = Arc::new(program);
        let job = |&(slots, ls): &(usize, usize)| {
            let name = format!("{} s{slots} {ls}LS", self.name);
            Job::new(name, sweep_config(slots, ls), Arc::clone(&program)).with_timeout(self.timeout)
        };
        Ok(self.grid.iter().map(job).collect())
    }
}

/// The fields of a `/submit` body the daemon reads, each the first of
/// its name in the body.
#[derive(Default)]
struct SubmitFields<'a> {
    program: Option<Field<'a>>,
    name: Option<Field<'a>>,
    slots: Option<Field<'a>>,
    ls: Option<Field<'a>>,
    mode: Option<Field<'a>>,
    trace: Option<Field<'a>>,
    timeout_secs: Option<Field<'a>>,
}

impl<'a> SubmitFields<'a> {
    /// Reads the body field by field under the value budget. A root
    /// that is not an object has no fields; it is parsed whole only for
    /// its error, if it has one.
    fn read(text: &'a str) -> Result<SubmitFields<'a>, String> {
        let bad_json = |e: JsonError| format!("bad json: {e}");
        let mut fields = SubmitFields::default();
        let root = text.bytes().find(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
        if root != Some(b'{') {
            Json::parse_bounded(text, MAX_SUBMIT_VALUES).map_err(bad_json)?;
            return Ok(fields);
        }
        Json::parse_fields_bounded(text, MAX_SUBMIT_VALUES, |key, value| {
            let slot = match &*key {
                "program" => &mut fields.program,
                "name" => &mut fields.name,
                "slots" => &mut fields.slots,
                "ls" => &mut fields.ls,
                "mode" => &mut fields.mode,
                "trace" => &mut fields.trace,
                "timeout_secs" => &mut fields.timeout_secs,
                _ => return,
            };
            slot.get_or_insert(value);
        })
        .map_err(bad_json)?;
        Ok(fields)
    }
}

fn parse_submit(body: &[u8]) -> Result<SubmitSpec<'_>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let fields = SubmitFields::read(text)?;
    let program = fields
        .program
        .as_ref()
        .and_then(Field::escaped)
        .ok_or_else(|| "missing string field `program`".to_string())?;
    let name = fields.name.as_ref().and_then(Field::string).unwrap_or(Cow::Borrowed("submitted"));

    let list = |field: &str, value: &Option<Field>, default| -> Result<Vec<usize>, String> {
        let Some(value) = value else { return Ok(default) };
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
    let slots = list("slots", &fields.slots, vec![1, 2, 4, 8])?;
    let ls = list("ls", &fields.ls, vec![1])?;
    if slots.is_empty() || slots.contains(&0) {
        return Err("`slots` needs positive counts".into());
    }
    if ls.is_empty() || ls.iter().any(|&n| n != 1 && n != 2) {
        return Err("`ls` entries must be 1 or 2".into());
    }
    if slots.len() * ls.len() > MAX_GRID_POINTS {
        return Err(too_many_points());
    }

    let interleaved = match fields.mode.as_ref().and_then(Field::string).as_deref() {
        None | Some("pool") => false,
        Some("interleaved") => true,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    let trace = fields.trace.as_ref().and_then(Field::as_bool).unwrap_or(false);
    if trace && interleaved {
        return Err("trace capture requires pool mode".into());
    }
    let timeout = match fields.timeout_secs.as_ref().map(Field::as_u64) {
        None => hirata_lab::DEFAULT_TIMEOUT,
        Some(Some(0)) => return Err("`timeout_secs` must be at least 1".into()),
        Some(Some(secs)) => Duration::from_secs(secs),
        Some(None) => return Err("`timeout_secs` must be a number".into()),
    };

    Ok(SubmitSpec { name, program, grid: sweep_grid(&slots, &ls), timeout, interleaved, trace })
}

/// A `/submit` body the daemon runs: its spec, the job key of each
/// grid point, and — when the memo did not hold the keys — the jobs
/// they were hashed from.
struct Admitted<'a> {
    spec: SubmitSpec<'a>,
    keys: Vec<String>,
    jobs: Option<Vec<Job>>,
}

/// Reads a `/submit` body and finds its grid's job keys: from the
/// memo, or by unescaping and assembling the program and hashing its
/// jobs, which enters the keys in the memo. A body that does not parse
/// or assemble is an error, the 400's text, and enters nothing.
fn admit<'a>(memo: &Memo, body: &'a [u8]) -> Result<Admitted<'a>, String> {
    let spec = parse_submit(body)?;
    let digest = memo.digest(&spec);
    if let Some(keys) = memo.get(digest, &spec) {
        // The oracle: the memo's keys are the ones assembling and
        // hashing give.
        if cfg!(debug_assertions) {
            let jobs = spec.jobs().expect("a memoized program assembles");
            let fresh: Vec<String> = jobs.iter().map(Job::content_hash).collect();
            assert_eq!(keys, fresh, "the memo's keys differ from the program's");
        }
        return Ok(Admitted { spec, keys, jobs: None });
    }
    let jobs = spec.jobs()?;
    let keys: Vec<String> = jobs.iter().map(Job::content_hash).collect();
    memo.insert(digest, &spec, &keys);
    Ok(Admitted { spec, keys, jobs: Some(jobs) })
}

/// The submission memo: the job keys of each (program, grid) pair the
/// daemon assembled lately, so that a resubmission skips unescaping,
/// assembly and hashing.
///
/// An entry is found by a 64-bit digest of the program's text as the
/// body spells it, escapes and all, and of the grid, keyed per process
/// because bodies are outside input, and matched on that text's length
/// and the whole ordered grid. So two spellings of one program are two
/// entries holding the same keys. The name, mode, timeout and trace
/// flag enter no job key, so they stay out of the memo's key too and
/// always come from the request at hand. The assembler and the store's
/// schema are fixed for the life of the process, so no version enters
/// it either. An entry holds the keys alone, never the program or its
/// text.
struct Memo {
    hasher: RandomState,
    table: Mutex<MemoTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct MemoTable {
    entries: HashMap<u64, MemoEntry>,
    /// Digests in the order they entered, oldest first.
    order: VecDeque<u64>,
}

struct MemoEntry {
    len: usize,
    grid: Box<[(usize, usize)]>,
    /// Each grid point's job key, as the number its 32 hex digits spell.
    keys: Arc<[u128]>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            hasher: RandomState::new(),
            table: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn digest(&self, spec: &SubmitSpec) -> u64 {
        self.hasher.hash_one((spec.program.text(), spec.grid.as_slice()))
    }

    /// The table, locked. A handler that panicked while it held the
    /// lock may have left the table half updated, so a poisoned table is
    /// emptied: the memo only saves work, and an empty one is whole.
    fn table(&self) -> MutexGuard<'_, MemoTable> {
        self.table.lock().unwrap_or_else(|poisoned| {
            let mut table = poisoned.into_inner();
            *table = MemoTable::default();
            self.table.clear_poison();
            table
        })
    }

    /// The job keys of `spec`'s program and grid, if the memo holds
    /// them; counted as a hit or a miss.
    fn get(&self, digest: u64, spec: &SubmitSpec) -> Option<Vec<String>> {
        let keys = self
            .table()
            .entries
            .get(&digest)
            .filter(|e| e.len == spec.program.text().len() && *e.grid == *spec.grid)
            .map(|e| Arc::clone(&e.keys));
        let counter = if keys.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(keys?.iter().map(|key| format!("{key:032x}")).collect())
    }

    /// Enters the job keys of `spec`'s program and grid, dropping the
    /// oldest entry once the memo holds [`MEMO_CAPACITY`].
    fn insert(&self, digest: u64, spec: &SubmitSpec, keys: &[String]) {
        let keys = keys.iter().map(|key| u128::from_str_radix(key, 16).expect("a hex job key"));
        let entry = MemoEntry {
            len: spec.program.text().len(),
            grid: spec.grid.as_slice().into(),
            keys: keys.collect(),
        };
        let mut table = self.table();
        if table.entries.insert(digest, entry).is_none() {
            table.order.push_back(digest);
            if table.order.len() > MEMO_CAPACITY {
                let oldest = table.order.pop_front().expect("a full memo has entries");
                table.entries.remove(&oldest);
            }
        }
    }

    fn len(&self) -> usize {
        self.table().entries.len()
    }
}

fn too_many_points() -> String {
    format!("a submission may have at most {MAX_GRID_POINTS} grid points (`slots` x `ls`)")
}

/// Writes the progress event of one finished grid point.
fn job_event(event: &mut ObjectWriter, grid: &[(usize, usize)], job: &JobSummary) {
    let (slots, ls) = grid[job.index];
    event
        .str("event", "job")
        .u64("index", job.index as u64)
        .u64("slots", slots as u64)
        .u64("ls", ls as u64)
        .str("key", job.key)
        .bool("cached", job.cached)
        .u64("finished", job.finished as u64)
        .u64("total", job.total as u64);
    match job.result {
        Ok(output) => {
            event
                .bool("ok", true)
                .u64("cycles", output.stats.cycles)
                .u64("instructions", output.stats.instructions);
        }
        Err(err) => {
            event.bool("ok", false).str("error", &err.to_string());
        }
    }
}

/// A chunked ndjson response whose events wait in `pending` until
/// flushed, so events that are ready at the same moment leave in one
/// write.
struct Events<'c, 's> {
    conn: &'c mut Conn<'s>,
    pending: String,
    sent: io::Result<()>,
}

impl Events<'_, '_> {
    /// Appends one event, written by `write` straight into its chunk.
    fn push(&mut self, write: impl FnOnce(&mut ObjectWriter)) {
        push_chunk(&mut self.pending, |line| {
            let mut event = ObjectWriter::new(line);
            write(&mut event);
            event.finish();
            line.push('\n');
        });
    }

    /// Sends what is pending in one write. A client that hangs up
    /// mid-stream stops receiving events, but the batch runs to
    /// completion so its results still land in the artifact store.
    fn flush(&mut self) {
        if self.sent.is_ok() && !self.pending.is_empty() {
            self.sent = self.conn.send(self.pending.as_bytes());
        }
        self.pending.clear();
    }
}

fn handle_submit(conn: &mut Conn, request: &Request, close: bool) -> io::Result<()> {
    let state = conn.state;
    let Admitted { spec, keys, jobs } = match admit(&state.memo, &request.body) {
        Ok(admitted) => admitted,
        Err(msg) => return conn.respond_error(400, &msg, close),
    };
    state.submissions.fetch_add(1, Ordering::Relaxed);
    let total = keys.len();
    // After a memo hit the program is unescaped and assembled only if
    // some key misses the store. It assembles again: it did when its
    // keys entered the memo, and its text has their digest, length and
    // grid.
    let jobs = || jobs.unwrap_or_else(|| spec.jobs().expect("a memoized program assembles"));

    let (placement, workers, mode) = if spec.interleaved {
        (Placement::Interleaved, 1, "interleaved")
    } else {
        (Placement::Pool, state.lab.workers(), "pool")
    };
    let mut events = Events { conn, pending: String::new(), sent: Ok(()) };
    chunked_head(&mut events.pending, 200, "application/x-ndjson", close);
    events.push(|event| {
        event
            .str("event", "accepted")
            .u64("total", total as u64)
            .u64("workers", workers as u64)
            .str("mode", mode);
    });

    let grid = &spec.grid;
    let trace_dir = spec.trace.then_some(state.trace_dir.as_path());
    let batch =
        state.lab.run_keyed_observed(keys, trace_dir, jobs, placement, &mut |event| match event {
            // The head, `accepted` and every cache hit leave together,
            // before any simulation starts.
            BatchEvent::Simulating => events.flush(),
            BatchEvent::Job(summary) => {
                events.push(|event| job_event(event, grid, summary));
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

    events.push(|event| {
        event
            .str("event", "done")
            .u64("total", total as u64)
            .u64("executed", report.executed as u64)
            .u64("cache_hits", report.cache_hits as u64)
            .u64("failed", report.failed as u64);
    });
    events.pending.push_str(LAST_CHUNK);
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

    /// One program that assembles, spelled four ways.
    const PROGRAMS: [&str; 4] = [r"halt", r"h\u0061lt", r"halt ; A/B", r"\u0068alt ; \u0041\/B\n"];

    /// An object of random fields (keys may repeat), most often led by
    /// a program that assembles, in one of its spellings, so that the
    /// other fields decide.
    fn object() -> BoxedStrategy<String> {
        let field = (proptest::sample::select(KEYS.to_vec()), value())
            .prop_map(|(key, value)| format!("\"{key}\":{value}"));
        (proptest::collection::vec(field, 0..8), 0usize..5)
            .prop_map(|(mut fields, lead)| {
                if let Some(program) = PROGRAMS.get(lead) {
                    fields.insert(0, format!("\"program\":\"{program}\""));
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

    /// The 400 body each of these `/submit` bodies gets, as recorded
    /// from the tree-parsing reader: roots that are not objects, within
    /// the value budget and past it; a program string with a bad
    /// escape, a lone surrogate or a raw control byte; a first
    /// `program` that is not a string; a body cut off in a list.
    #[test]
    fn rejected_bodies_get_pinned_400s() {
        let over_budget = format!("[{}]", vec!["1"; 300].join(","));
        let missing = r#"{"error":"missing string field `program`"}"#;
        let cases: [(&[u8], &str); 10] = [
            (b"[1,2]", missing),
            (b"\"x\"", missing),
            (b"7", missing),
            (
                over_budget.as_bytes(),
                r#"{"error":"bad json: invalid JSON at byte 543: more than 272 values"}"#,
            ),
            (
                br#"{"program":"halt\q"}"#,
                r#"{"error":"bad json: invalid JSON at byte 17: invalid escape"}"#,
            ),
            (
                br#"{"program":"li r1, #1\ud800\nhalt"}"#,
                r#"{"error":"bad json: invalid JSON at byte 28: unpaired surrogate"}"#,
            ),
            (
                br#"{"program":"\udc00halt"}"#,
                r#"{"error":"bad json: invalid JSON at byte 18: unpaired low surrogate"}"#,
            ),
            (
                b"{\"program\":\"ha\x01lt\"}",
                r#"{"error":"bad json: invalid JSON at byte 14: unescaped control character"}"#,
            ),
            (br#"{"program":7,"program":"halt"}"#, missing),
            (
                br#"{"program":"halt","slots":[1,2"#,
                r#"{"error":"bad json: invalid JSON at byte 30: expected `,` or `]`"}"#,
            ),
        ];
        for (body, reply) in cases {
            let msg = admit(&Memo::new(), body).err().expect("a 400");
            let text = String::from_utf8_lossy(body);
            assert_eq!(obj(vec![("error", Json::Str(msg))]).render(), reply, "{text}");
        }
        // A `mode` spelled with an escape is read unescaped.
        for (mode, interleaved) in [(r"po\u006fl", false), (r"inter\u006ceaved", true)] {
            let body = format!(r#"{{"program":"halt","mode":"{mode}","slots":[1]}}"#);
            let spec = admit(&Memo::new(), body.as_bytes()).expect("accepted").spec;
            assert_eq!((spec.interleaved, spec.grid.as_slice()), (interleaved, &[(1, 1)][..]));
        }
    }

    /// The handler of the test-only route `POST /test/panic`: it
    /// panics, holding the memo's lock if the body says `memo`, after
    /// sending part of a response if it says `partial`.
    pub(super) fn panic_in_handler(conn: &mut Conn, body: &[u8]) -> io::Result<()> {
        match body {
            b"memo" => {
                let _table = conn.state.memo.table();
                panic!("a handler panicked holding the memo");
            }
            b"partial" => {
                conn.send(b"HTTP/1.1 200 OK\r\n")?;
                panic!("a handler panicked mid-response");
            }
            _ => panic!("a handler panicked"),
        }
    }

    /// Sends one request on a connection of its own and reads all the
    /// daemon sends back before it closes.
    fn exchange_raw(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connects");
        // A daemon whose only worker died would never answer.
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("a timeout");
        crate::http::write_request(&mut stream, method, path, body, true).expect("sends");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("reads to the close");
        String::from_utf8(reply).expect("utf-8")
    }

    /// With one HTTP worker, a handler that panics — plainly, holding
    /// the memo's lock, or after part of its response went out — costs
    /// only its own connection: a 500 if nothing was sent, a close
    /// otherwise. The next connections get answers, and the memo works.
    #[test]
    fn a_panicking_handler_costs_only_its_connection() {
        let store = std::env::temp_dir().join(format!("hirata-serve-panic-{}", std::process::id()));
        let config = ServeConfig {
            http_workers: 1,
            sim_workers: Some(1),
            cache_dir: Some(store.clone()),
            trace_dir: store.join("traces"),
            quiet: true,
            ..ServeConfig::default()
        };
        let (addr, daemon) = Server::spawn(config).expect("daemon boots");
        let error = r#"{"error":"internal error: the handler panicked"}"#;
        for body in [&b""[..], b"memo"] {
            let reply = exchange_raw(addr, "POST", "/test/panic", body);
            assert!(reply.starts_with("HTTP/1.1 500 Internal Server Error\r\n"), "{reply}");
            assert!(reply.contains("Connection: close\r\n") && reply.ends_with(error), "{reply}");
            let health = exchange_raw(addr, "GET", "/health", b"");
            assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        }
        let reply = exchange_raw(addr, "POST", "/test/panic", b"partial");
        assert_eq!(reply, "HTTP/1.1 200 OK\r\n", "a started response is cut off, not followed");

        let addr = addr.to_string();
        let request = crate::client::SubmitRequest {
            name: "p.s".into(),
            program: "halt".into(),
            slots: vec![1],
            ls: vec![1],
            mode: crate::client::Mode::Pool,
            timeout_secs: None,
            trace: false,
        };
        for _ in 0..2 {
            crate::client::submit(&addr, &request, &mut |_, _| {}).expect("a submission");
        }
        let stats = crate::client::fetch_stats(&addr).expect("stats");
        let memo =
            |field: &str| stats.get("memo").and_then(|m| m.get(field)).and_then(Json::as_u64);
        assert_eq!((memo("hits"), memo("misses"), memo("entries")), (Some(1), Some(1), Some(1)));
        crate::client::shutdown(&addr).expect("shutdown accepted");
        daemon.join().expect("daemon thread").expect("daemon exits cleanly");
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn the_memo_holds_at_most_its_capacity() {
        let memo = Memo::new();
        let body = |i: usize| format!("{{\"program\":\"li r1, #{i}\\nhalt\",\"slots\":[1]}}");
        for i in 0..MEMO_CAPACITY + 20 {
            let body = body(i);
            let admitted = admit(&memo, body.as_bytes()).expect("assembles");
            assert!(admitted.jobs.is_some(), "program {i} is new");
            assert!(memo.len() <= MEMO_CAPACITY, "{} entries after {i}", memo.len());
        }
        assert_eq!(memo.len(), MEMO_CAPACITY);
        assert_eq!(memo.table().order.len(), MEMO_CAPACITY);
        // The newest programs are still held; the first ones left.
        let (newest, first) = (body(MEMO_CAPACITY + 19), body(0));
        assert!(admit(&memo, newest.as_bytes()).expect("assembles").jobs.is_none());
        assert!(admit(&memo, first.as_bytes()).expect("assembles").jobs.is_some());
        assert_eq!(memo.len(), MEMO_CAPACITY);
    }

    /// Each spelling of one program is a memo entry of its own, the
    /// escapes left as written, and all of them hold the same keys.
    #[test]
    fn spellings_of_one_program_are_entries_with_the_same_keys() {
        let memo = Memo::new();
        let bodies = PROGRAMS.map(|program| format!(r#"{{"program":"{program}","slots":[1,2]}}"#));
        let first = admit(&memo, bodies[0].as_bytes()).expect("assembles");
        for (i, body) in bodies.iter().enumerate().skip(1) {
            let admitted = admit(&memo, body.as_bytes()).expect("assembles");
            assert!(admitted.jobs.is_some(), "spelling {i} is a miss");
            assert_eq!(admitted.spec.program.text(), PROGRAMS[i]);
            let again = admit(&memo, body.as_bytes()).expect("assembles");
            assert!(again.jobs.is_none(), "spelling {i} is a hit the second time");
            assert_eq!((&admitted.keys, &again.keys), (&first.keys, &first.keys), "spelling {i}");
        }
        assert_eq!(memo.len(), PROGRAMS.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every document ends in a spec within the bounds or in an
        /// error (the 400), never in a panic; one with more values
        /// than the budget fails inside the parse. Sent again to the
        /// same memo, an accepted document is a hit with the same keys,
        /// and a rejected one is the same 400 and entered nothing.
        #[test]
        fn hostile_documents_end_in_a_spec_or_an_error(doc in document()) {
            let over_budget = Json::parse(&doc).is_ok_and(|d| values(&d) > MAX_SUBMIT_VALUES);
            let memo = Memo::new();
            let result = admit(&memo, doc.as_bytes());
            if over_budget {
                let msg = result.as_ref().err().map(String::as_str).unwrap_or_default();
                prop_assert!(msg.contains("values"), "{doc}: {msg}");
            }
            let again = admit(&memo, doc.as_bytes());
            match (result, again) {
                (Ok(first), Ok(again)) => {
                    let spec = &first.spec;
                    prop_assert!((1..=MAX_GRID_POINTS).contains(&spec.grid.len()), "{doc}");
                    prop_assert_eq!(first.keys.len(), spec.grid.len());
                    prop_assert!(spec.timeout >= Duration::from_secs(1), "{doc}");
                    prop_assert!(!(spec.trace && spec.interleaved), "{doc}");
                    prop_assert!(first.jobs.is_some() && again.jobs.is_none(), "{doc}");
                    prop_assert_eq!(first.keys, again.keys);
                }
                (Err(msg), Err(again)) => {
                    prop_assert!(!msg.is_empty());
                    prop_assert_eq!(msg, again);
                    prop_assert_eq!(memo.len(), 0);
                }
                (first, again) => prop_assert!(false, "{doc}: {:?} then {:?}", first.err(), again.err()),
            }
        }
    }
}
