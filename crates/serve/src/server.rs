//! The `hirata serve` daemon: accept loop, HTTP worker pool, routes.
//!
//! Architecture: a blocking [`TcpListener`] accept loop hands
//! connections to a fixed pool of HTTP worker threads over a channel.
//! Each worker parses one request, routes it, and closes the
//! connection. Simulation work happens on the worker thread itself —
//! either fanned out through the shared [`Lab`] engine (`pool` mode)
//! or round-robin interleaved through a [`MachineBatch`] (`interleaved`
//! mode) — with per-job progress streamed back as chunked ndjson
//! events. Results land in the shared content-addressed
//! [`DiskCache`], so a resubmission is answered without simulating.
//!
//! Routes:
//!
//! | method | path            | reply                                     |
//! |--------|-----------------|-------------------------------------------|
//! | GET    | `/health`       | liveness probe                            |
//! | GET    | `/stats`        | daemon + artifact-store counters          |
//! | POST   | `/submit`       | chunked per-job progress events           |
//! | GET    | `/result/{key}` | cached result for a content hash          |
//! | GET    | `/trace/{key}`  | Chrome trace artifact for a content hash  |
//! | POST   | `/shutdown`     | graceful stop                             |

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hirata_lab::{
    default_cache_dir, valid_key, DiskCache, Job, JobError, JobOutput, JobResult, Lab,
};
use hirata_sim::{
    LaneError, Machine, MachineBatch, MachineError, PredecodedProgram, DEFAULT_STRIDE,
};

use crate::http::{
    finish_chunked, read_request, start_chunked, write_chunk, write_response, Request,
};
use crate::json::Json;
use crate::{sweep_config, sweep_grid};

/// Per-connection socket read timeout: a stalled client must not pin
/// an HTTP worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// HTTP worker threads (concurrent connections served).
    pub http_workers: usize,
    /// Simulation worker threads per pool-mode submission; `None`
    /// uses one per available CPU.
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

/// Shared daemon state: the execution engines, the artifact store,
/// and the metrics counters.
struct AppState {
    /// Engine for plain submissions.
    lab: Lab,
    /// Engine for traced submissions (same cache, same workers, plus
    /// a trace directory — kept separate so untraced batches never
    /// pay for artifact generation).
    lab_traced: Lab,
    cache: Option<DiskCache>,
    trace_dir: PathBuf,
    addr: SocketAddr,
    started: Instant,
    requests: AtomicU64,
    submissions: AtomicU64,
    jobs_run: AtomicU64,
    jobs_cached: AtomicU64,
    jobs_failed: AtomicU64,
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
        let mut lab_traced = Lab::new().quiet().with_trace_dir(&config.trace_dir);
        if let Some(workers) = config.sim_workers {
            lab_traced = lab_traced.with_workers(workers);
        }
        lab_traced = match &cache {
            Some(cache) => lab_traced.with_cache(cache.clone()),
            None => lab_traced.without_cache(),
        };

        let state = Arc::new(AppState {
            lab,
            lab_traced,
            cache,
            trace_dir: config.trace_dir,
            addr,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
            jobs_cached: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
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
                    Ok(mut stream) => handle_connection(&state, &mut stream),
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
                Ok(stream) => tx.send(stream).expect("http workers alive"),
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

fn respond_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    write_response(stream, status, "application/json", body.render().as_bytes())
}

fn respond_error(stream: &mut TcpStream, status: u16, msg: &str) {
    let body = obj(vec![("error", Json::Str(msg.to_string()))]);
    let _ = respond_json(stream, status, &body);
}

/// Parses, routes, and answers one connection.
fn handle_connection(state: &AppState, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Each response message and progress event is one write; send it
    // at once rather than after the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(e) => {
            respond_error(stream, 400, &format!("bad request: {e}"));
            return;
        }
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let body =
                obj(vec![("ok", Json::Bool(true)), ("service", Json::Str("hirata-serve".into()))]);
            let _ = respond_json(stream, 200, &body);
        }
        ("GET", "/stats") => {
            let _ = respond_json(stream, 200, &stats_json(state));
        }
        ("POST", "/submit") => handle_submit(state, stream, &request),
        ("GET", path) if path.starts_with("/result/") => {
            handle_result(state, stream, &path["/result/".len()..]);
        }
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace(state, stream, &path["/trace/".len()..]);
        }
        ("POST", "/shutdown") => {
            let _ = respond_json(stream, 200, &obj(vec![("ok", Json::Bool(true))]));
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking acceptor; it re-checks the flag on
            // the next connection and exits before dispatching it.
            let _ = TcpStream::connect(state.addr);
        }
        ("GET" | "POST", _) => respond_error(stream, 404, "no such route"),
        _ => respond_error(stream, 405, "method not allowed"),
    }
}

fn stats_json(state: &AppState) -> Json {
    let mut pairs = vec![
        ("uptime_secs", Json::u64(state.started.elapsed().as_secs())),
        ("sim_workers", Json::u64(state.lab.workers() as u64)),
        ("requests", Json::u64(state.requests.load(Ordering::Relaxed))),
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
    let doc = Json::parse(text).map_err(|e| format!("bad json: {e}"))?;
    let source = doc
        .get("program")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `program`".to_string())?;
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("submitted").to_string();

    let list = |field: &str, default: Vec<usize>| -> Result<Vec<usize>, String> {
        match doc.get(field) {
            None => Ok(default),
            Some(value) => value
                .as_arr()
                .ok_or_else(|| format!("`{field}` must be an array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("`{field}` entries must be numbers"))
                })
                .collect(),
        }
    };
    let slots = list("slots", vec![1, 2, 4, 8])?;
    let ls = list("ls", vec![1])?;
    if slots.is_empty() || slots.contains(&0) {
        return Err("`slots` needs positive counts".into());
    }
    if ls.is_empty() || ls.iter().any(|&n| n != 1 && n != 2) {
        return Err("`ls` entries must be 1 or 2".into());
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
    let timeout = match doc.get("timeout_secs") {
        None => hirata_lab::DEFAULT_TIMEOUT,
        Some(v) => Duration::from_secs(
            v.as_u64().ok_or_else(|| "`timeout_secs` must be a number".to_string())?,
        ),
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

fn send_event(stream: &mut TcpStream, ok: &mut bool, event: &Json) {
    if !*ok {
        return;
    }
    let mut line = event.render();
    line.push('\n');
    // A client that hangs up mid-stream stops receiving events, but
    // the batch runs to completion so its results still land in the
    // artifact store.
    if write_chunk(stream, line.as_bytes()).is_err() {
        *ok = false;
    }
}

fn handle_submit(state: &AppState, stream: &mut TcpStream, request: &Request) {
    let spec = match parse_submit(&request.body) {
        Ok(spec) => spec,
        Err(msg) => {
            respond_error(stream, 400, &msg);
            return;
        }
    };
    state.submissions.fetch_add(1, Ordering::Relaxed);

    let jobs: Vec<Job> = spec
        .grid
        .iter()
        .map(|&(slots, ls)| {
            Job::new(
                format!("{} s{slots} {ls}LS", spec.name),
                sweep_config(slots, ls),
                Arc::clone(&spec.program),
            )
            .with_timeout(spec.timeout)
        })
        .collect();
    let total = jobs.len();

    if start_chunked(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    let mut stream_ok = true;
    let accepted = obj(vec![
        ("event", Json::Str("accepted".into())),
        ("total", Json::u64(total as u64)),
        ("workers", Json::u64(if spec.interleaved { 1 } else { state.lab.workers() as u64 })),
        ("mode", Json::Str(if spec.interleaved { "interleaved".into() } else { "pool".into() })),
    ]);
    send_event(stream, &mut stream_ok, &accepted);

    let (executed, cache_hits, failed) = if spec.interleaved {
        run_interleaved(state, stream, &mut stream_ok, &spec, jobs)
    } else {
        let lab = if spec.trace { &state.lab_traced } else { &state.lab };
        let grid = &spec.grid;
        let batch = lab.run_batch_observed(jobs, &mut |summary| {
            let (slots, ls) = grid[summary.index];
            let event = job_event(
                summary.index,
                slots,
                ls,
                summary.key,
                summary.cached,
                summary.result,
                summary.finished,
                summary.total,
            );
            send_event(stream, &mut stream_ok, &event);
        });
        (batch.report.executed, batch.report.cache_hits, batch.report.failed)
    };

    state.jobs_run.fetch_add(executed as u64, Ordering::Relaxed);
    state.jobs_cached.fetch_add(cache_hits as u64, Ordering::Relaxed);
    state.jobs_failed.fetch_add(failed as u64, Ordering::Relaxed);

    let done = obj(vec![
        ("event", Json::Str("done".into())),
        ("total", Json::u64(total as u64)),
        ("executed", Json::u64(executed as u64)),
        ("cache_hits", Json::u64(cache_hits as u64)),
        ("failed", Json::u64(failed as u64)),
    ]);
    send_event(stream, &mut stream_ok, &done);
    if stream_ok {
        let _ = finish_chunked(stream);
    }
}

/// Interleaved execution: every grid point steps round-robin on this
/// one thread in a [`MachineBatch`], so N configurations make
/// progress together without N threads. Every point runs the
/// submission's one program, lowered once (at the first cache miss)
/// and shared by all lanes. Returns `(executed, cache_hits, failed)`.
fn run_interleaved(
    state: &AppState,
    stream: &mut TcpStream,
    stream_ok: &mut bool,
    spec: &SubmitSpec,
    jobs: Vec<Job>,
) -> (usize, usize, usize) {
    let total = jobs.len();
    let mut finished = 0usize;
    let mut executed = 0usize;
    let mut cache_hits = 0usize;
    let mut failed = 0usize;

    let keys: Vec<String> = jobs.iter().map(Job::content_hash).collect();
    let mut predecoded: Option<Result<Arc<PredecodedProgram>, MachineError>> = None;
    let mut batch = MachineBatch::new();
    // Lane id -> grid index, for jobs that reached the batch.
    let mut lane_index: Vec<(usize, usize)> = Vec::new();

    let report = |stream: &mut TcpStream,
                  index: usize,
                  cached: bool,
                  result: &JobResult,
                  finished: &mut usize,
                  stream_ok: &mut bool| {
        *finished += 1;
        let (slots, ls) = spec.grid[index];
        let event = job_event(index, slots, ls, &keys[index], cached, result, *finished, total);
        send_event(stream, stream_ok, &event);
    };

    for (index, job) in jobs.into_iter().enumerate() {
        if let Some(output) = state.cache.as_ref().and_then(|c| c.load(&keys[index])) {
            cache_hits += 1;
            report(stream, index, true, &Ok(output), &mut finished, stream_ok);
            continue;
        }
        let program = predecoded.get_or_insert_with(|| PredecodedProgram::shared(&spec.program));
        let built = match program {
            Ok(program) => Machine::with_mem_model_predecoded(
                job.config.clone(),
                Arc::clone(program),
                job.mem.build(),
            ),
            // The point reports what building it from source would:
            // its configuration is checked before the program.
            Err(e) => Err(job.config.validate().map_or_else(MachineError::from, |()| e.clone())),
        };
        match built {
            Ok(machine) => {
                let lane = batch.insert(machine);
                lane_index.push((lane, index));
            }
            Err(e) => {
                executed += 1;
                failed += 1;
                report(stream, index, false, &Err(JobError::Sim(e)), &mut finished, stream_ok);
            }
        }
    }

    // A timeout too large to add to the clock means no deadline, as
    // in pool mode.
    let deadline = Instant::now().checked_add(spec.timeout);
    loop {
        let live = batch.step_round(DEFAULT_STRIDE);
        for (lane, outcome) in batch.drain_finished() {
            let index = lane_index
                .iter()
                .find(|&&(l, _)| l == lane)
                .map(|&(_, i)| i)
                .expect("finished lane was inserted");
            executed += 1;
            let result: JobResult = match outcome {
                Ok(machine) => {
                    let output =
                        JobOutput { stats: machine.stats().clone(), mem: machine.mem_stats() };
                    if let Some(cache) = &state.cache {
                        let _ = cache.store(&keys[index], &output);
                    }
                    Ok(output)
                }
                Err(LaneError::Machine(e)) => Err(JobError::Sim(e)),
                Err(LaneError::Panicked(msg)) => Err(JobError::Panicked(msg)),
            };
            if result.is_err() {
                failed += 1;
            }
            report(stream, index, false, &result, &mut finished, stream_ok);
        }
        if live == 0 {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() > d) {
            // Abandon the still-running lanes; each reports a timeout.
            for &(lane, index) in &lane_index {
                if batch.remove(lane).is_some() {
                    executed += 1;
                    failed += 1;
                    let result: JobResult = Err(JobError::Timeout(spec.timeout));
                    report(stream, index, false, &result, &mut finished, stream_ok);
                }
            }
            break;
        }
    }
    (executed, cache_hits, failed)
}

fn handle_result(state: &AppState, stream: &mut TcpStream, key: &str) {
    if !valid_key(key) {
        respond_error(stream, 400, "malformed result key");
        return;
    }
    let Some(cache) = &state.cache else {
        respond_error(stream, 404, "artifact store disabled");
        return;
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
            let _ = respond_json(stream, 200, &body);
        }
        None => respond_error(stream, 404, "no such result"),
    }
}

fn handle_trace(state: &AppState, stream: &mut TcpStream, key: &str) {
    if !valid_key(key) {
        respond_error(stream, 400, "malformed trace key");
        return;
    }
    let path = state.trace_dir.join(format!("{key}.json"));
    match std::fs::read(&path) {
        Ok(body) => {
            let _ = write_response(stream, 200, "application/json", &body);
        }
        Err(_) => respond_error(stream, 404, "no such trace"),
    }
}
