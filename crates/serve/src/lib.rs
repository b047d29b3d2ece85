//! Alignment-as-a-service: a resident server over the `graphalign` pipeline.
//!
//! `graphalign serve` keeps the process warm between queries so repeated
//! alignments of the same graph pair skip the expensive embedding /
//! similarity phase: computed [`graphalign_linalg::Similarity`] values
//! (dense, low-rank, or sparse — the PR-5 pipeline currency) are cached
//! keyed by `(graph content digest, algorithm, params, variant)` and only
//! the cheap assignment phase runs on a warm hit. Results are bit-identical
//! between cold and warm runs and across worker-thread counts.
//!
//! # Protocol
//!
//! Plain HTTP/1.1 with JSON bodies, one request per connection:
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `POST /graphs` (edge-list text body) | Registers a graph; returns `{"id": <digest hex>, "nodes", "edges"}`. Uploading the same structure twice (any edge order) yields the same id. |
//! | `POST /jobs` (`{"source", "target", "algorithm", "assignment"?, "timeout"?}`) | Queues an alignment; returns `{"job": <id>, "status": "queued"}`, or `429` with a `Retry-After` header when the server is saturated. |
//! | `GET /jobs/<id>` | Polls: `{"status": queued\|running\|done\|error\|timeout\|cancelled, "mapping"?, "error"?, "error_class"?, "attempts"?, "telemetry"?}`. |
//! | `POST /jobs/<id>/cancel` | Trips the job's cooperative budget. |
//! | `GET /healthz` | Readiness: `200` ready / `503` degraded, with queue depth, cache integrity, and worker liveness. |
//! | `GET /stats` | Cache, job-table, and resilience counters. |
//! | `POST /shutdown` | Clean shutdown: drains queued jobs as cancelled, joins workers. |
//!
//! The per-job `telemetry` block is the same [`CellTelemetry`] JSON the
//! experiment harness records, extended with `cache_hits` / `cache_misses`
//! / `cache_bytes` ops counters — a warm response shows `cache_hits: 1` and
//! no `"similarity"` phase span, which is how the tests verify the
//! embedding phase was genuinely skipped.
//!
//! # Hostile weather
//!
//! The server is built to degrade loudly and recover, never to wedge:
//!
//! * **Admission control** — a bounded job queue (`max_queued`) and an
//!   in-flight working-set cap (`max_inflight_bytes`). A saturated server
//!   answers `429` with a `Retry-After` computed from the queue depth and
//!   the recent median job latency, instead of queueing unboundedly.
//! * **Connection deadlines** — accepted sockets carry read/write deadlines
//!   (`io_timeout`) and a request-body byte cap, so slow-loris clients get
//!   `408` and oversized uploads `413` while the handler thread survives.
//! * **Panic-isolated workers** — job execution runs under `catch_unwind`;
//!   a panicking algorithm yields a classified job error (`error_class:
//!   "panic"`), not a dead worker. Numeric failures retry with exponential
//!   backoff (fresh attempts bypass the cache). Counters: `retries`,
//!   `panics_contained`, `rejected_429`.
//! * **Crash-safe cache** — persisted entries are checksummed and written
//!   atomically; corrupt or truncated entries quarantine and recompute (see
//!   [`cache`]). `GET /healthz` reports degraded until integrity recovers.

#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod jobs;

use cache::{CacheStats, SimilarityCache};
use graphalign_graph::{io as graph_io, Graph};
use graphalign_json::Json;
use jobs::{JobStatus, JobTable};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// Re-exported so callers use one crate for the doc links above.
pub use graphalign_bench::telemetry::CellTelemetry as ResponseTelemetry;

/// How many completed-job latencies feed the `Retry-After` estimate.
const LATENCY_WINDOW: usize = 64;

/// Registered graphs, keyed by content-digest hex. Two uploads of the same
/// structure (any edge order) collapse to one entry — and therefore to the
/// same similarity-cache keys.
#[derive(Default)]
pub struct GraphStore {
    map: Mutex<HashMap<String, Arc<Graph>>>,
}

impl GraphStore {
    /// The graph registered under `id`.
    pub fn get(&self, id: &str) -> Option<Arc<Graph>> {
        self.map.lock().expect("graph store lock").get(id).cloned()
    }

    /// Registers `g`, returning its digest id and whether it was new.
    pub fn insert(&self, g: Graph) -> (String, bool) {
        let id = g.content_digest().to_hex();
        let mut map = self.map.lock().expect("graph store lock");
        let new = !map.contains_key(&id);
        if new {
            map.insert(id.clone(), Arc::new(g));
        }
        (id, new)
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.map.lock().expect("graph store lock").len()
    }

    /// Whether no graphs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Server configuration; `Default` binds an ephemeral localhost port with
/// two workers, a 256 MiB cache, no disk persistence or default deadline,
/// a 64-job queue, a 1 GiB in-flight cap, two numeric retries, and a 10 s
/// connection deadline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7464"`; port 0 picks an ephemeral one.
    pub addr: String,
    /// Worker threads executing jobs (the pool bound).
    pub workers: usize,
    /// In-memory cache capacity in bytes.
    pub cache_bytes: u64,
    /// Directory persisting cache entries across restarts, when set.
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to jobs that don't carry their own `timeout`.
    pub default_timeout: Option<Duration>,
    /// Admission bound: jobs waiting for a worker before `POST /jobs`
    /// answers `429`.
    pub max_queued: usize,
    /// Admission bound: estimated working-set bytes of queued + running
    /// jobs before `POST /jobs` answers `429`.
    pub max_inflight_bytes: u64,
    /// Extra attempts granted to jobs failing with a *numeric* error
    /// (fresh attempts bypass the cache). Panics, timeouts, and bad
    /// instances never retry.
    pub job_retries: u32,
    /// Read/write deadline on accepted connections; `None` disables it
    /// (tests only — a deadline-less server can be slow-lorised).
    pub io_timeout: Option<Duration>,
    /// Request-body byte cap; larger uploads answer `413`.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_bytes: 256 << 20,
            cache_dir: None,
            default_timeout: None,
            max_queued: 64,
            max_inflight_bytes: 1 << 30,
            job_retries: 2,
            io_timeout: Some(Duration::from_secs(10)),
            max_body_bytes: http::MAX_BODY_BYTES,
        }
    }
}

/// Resilience counters reported by `/stats` and `/healthz`.
#[derive(Default)]
pub struct Counters {
    /// Numeric-failure retry attempts performed by workers.
    pub retries: AtomicU64,
    /// Job panics caught by worker isolation (`catch_unwind`).
    pub panics_contained: AtomicU64,
    /// `POST /jobs` submissions refused by admission control.
    pub rejected_429: AtomicU64,
}

/// Shared state behind every connection handler and worker.
pub struct ServerState {
    /// Registered graphs.
    pub graphs: GraphStore,
    /// All accepted jobs.
    pub jobs: JobTable,
    /// The keyed similarity cache.
    pub cache: SimilarityCache,
    /// Resilience counters.
    pub counters: Counters,
    default_timeout: Option<Duration>,
    workers: usize,
    max_queued: usize,
    max_inflight_bytes: u64,
    job_retries: u32,
    io_timeout: Option<Duration>,
    max_body_bytes: usize,
    addr: SocketAddr,
    sender: Mutex<Option<Sender<usize>>>,
    shutdown: AtomicBool,
    /// Estimated working-set bytes of queued + running jobs.
    inflight_bytes: AtomicU64,
    /// Worker threads currently alive (liveness component of `/healthz`).
    workers_alive: AtomicUsize,
    /// Recent queue-to-terminal job latencies (the `Retry-After` basis).
    latencies: Mutex<VecDeque<Duration>>,
}

impl ServerState {
    /// Extra numeric-failure attempts workers may spend per job.
    pub fn job_retries(&self) -> u32 {
        self.job_retries
    }

    /// Records a finished job: returns its working-set estimate to the
    /// admission budget and feeds the latency window.
    pub(crate) fn finish_job(&self, est_bytes: u64, latency: Duration) {
        self.inflight_bytes.fetch_sub(est_bytes, Ordering::Relaxed);
        let mut window = self.latencies.lock().expect("latency lock");
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(latency);
    }

    /// Median of the recent latency window (1 s when nothing completed yet,
    /// so a cold server still emits a sane `Retry-After`).
    fn median_latency(&self) -> Duration {
        let window = self.latencies.lock().expect("latency lock");
        if window.is_empty() {
            return Duration::from_secs(1);
        }
        let mut sorted: Vec<Duration> = window.iter().copied().collect();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Seconds a refused client should wait: queue depth × recent median
    /// job latency, at least 1 s (whole seconds, as `Retry-After` requires).
    pub fn retry_after_secs(&self) -> u64 {
        let depth = self.jobs.count(JobStatus::Queued).max(1) as f64;
        (depth * self.median_latency().as_secs_f64()).ceil().max(1.0) as u64
    }

    /// Initiates shutdown once: flags the accept loop, cancels unfinished
    /// jobs, closes the job channel (workers drain and exit), and wakes the
    /// acceptor with a dummy connection.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.jobs.cancel_all();
        self.sender.lock().expect("sender lock").take();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`] (or `POST /shutdown`) then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Initiates a clean shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the accept loop and all workers have exited.
    pub fn wait(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Starts the server: binds, spawns the worker pool and the accept loop,
/// and returns immediately.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache = SimilarityCache::new(config.cache_bytes, config.cache_dir.clone())?;
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let workers = config.workers.max(1);
    let state = Arc::new(ServerState {
        graphs: GraphStore::default(),
        jobs: JobTable::default(),
        cache,
        counters: Counters::default(),
        default_timeout: config.default_timeout,
        workers,
        max_queued: config.max_queued.max(1),
        max_inflight_bytes: config.max_inflight_bytes.max(1),
        job_retries: config.job_retries,
        io_timeout: config.io_timeout,
        max_body_bytes: config.max_body_bytes,
        addr,
        sender: Mutex::new(Some(tx)),
        shutdown: AtomicBool::new(false),
        inflight_bytes: AtomicU64::new(0),
        // Counted from spawn, so a /healthz right after `start` does not
        // race the workers' first instructions; each worker's exit guard
        // takes itself off again.
        workers_alive: AtomicUsize::new(workers),
        latencies: Mutex::new(VecDeque::new()),
    });
    let rx = Arc::new(Mutex::new(rx));
    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("graphalign-serve-worker-{i}"))
                .spawn(move || worker_loop(&state, &rx))
                .expect("spawn worker thread")
        })
        .collect();
    let accept = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("graphalign-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &state))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle { state, accept, workers: worker_handles })
}

fn worker_loop(state: &Arc<ServerState>, rx: &Mutex<Receiver<usize>>) {
    // Liveness accounting survives unwinds: should a panic ever escape the
    // job-level isolation, /healthz flips to degraded instead of the dead
    // worker going unnoticed.
    struct Alive<'a>(&'a AtomicUsize);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _alive = Alive(&state.workers_alive);
    loop {
        // Take the lock only to receive; execution runs unlocked so the
        // pool genuinely works `workers` jobs at a time.
        let job = rx.lock().expect("worker receiver lock").recv();
        match job {
            Ok(id) => jobs::execute(state, id),
            Err(_) => break, // channel closed: shutdown
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(state);
        // Thread-per-connection: requests are tiny and one-shot
        // (Connection: close), the heavy lifting happens on the worker pool.
        let _ = std::thread::Builder::new()
            .name("graphalign-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &state));
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    // Arm the socket deadlines before touching the stream: a client that
    // trickles bytes or never drains its receive buffer costs one thread
    // for at most `io_timeout`, not forever.
    if let Some(deadline) = state.io_timeout {
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    let request = match http::read_request(&mut stream, state.max_body_bytes) {
        Ok(r) => r,
        Err(e) => {
            respond_error(&mut stream, e.status(), &e.message());
            return;
        }
    };
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let (status, body) = match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["graphs"]) => post_graph(state, &request),
        ("POST", ["jobs"]) => post_job(state, &request),
        ("GET", ["jobs", id]) => get_job(state, id),
        ("POST", ["jobs", id, "cancel"]) => cancel_job(state, id),
        ("GET", ["healthz"]) => healthz_json(state),
        ("GET", ["stats"]) => (200, stats_json(state)),
        ("POST", ["shutdown"]) => {
            state.begin_shutdown();
            (200, Json::Obj(vec![("status".into(), Json::Str("shutting down".into()))]))
        }
        (_, ["graphs" | "jobs" | "stats" | "healthz" | "shutdown", ..]) => {
            (405, error_json("method not allowed for this endpoint"))
        }
        _ => (404, error_json(&format!("no such endpoint {:?}", request.path))),
    };
    let retry_after;
    let headers: &[(&str, String)] = if status == 429 {
        retry_after = [("Retry-After", state.retry_after_secs().to_string())];
        &retry_after
    } else {
        &[]
    };
    http::write_response(
        &mut stream,
        status,
        "application/json",
        headers,
        body.to_string_compact().as_bytes(),
    );
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    http::write_response(
        stream,
        status,
        "application/json",
        &[],
        error_json(message).to_string_compact().as_bytes(),
    );
}

fn error_json(message: &str) -> Json {
    Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))])
}

fn post_graph(state: &Arc<ServerState>, request: &http::Request) -> (u16, Json) {
    let text = match request.body_utf8() {
        Ok(t) => t,
        Err(e) => return (400, error_json(&e)),
    };
    let parsed = match graph_io::parse_edge_list(text) {
        Ok(p) => p,
        Err(e) => return (400, error_json(&format!("bad edge list: {e}"))),
    };
    let (nodes, edges) = (parsed.graph.node_count(), parsed.graph.edge_count());
    let (id, new) = state.graphs.insert(parsed.graph);
    (
        200,
        Json::Obj(vec![
            ("id".to_string(), Json::Str(id)),
            ("nodes".to_string(), Json::Num(nodes as f64)),
            ("edges".to_string(), Json::Num(edges as f64)),
            ("new".to_string(), Json::Bool(new)),
        ]),
    )
}

fn post_job(state: &Arc<ServerState>, request: &http::Request) -> (u16, Json) {
    let body = match request
        .body_utf8()
        .and_then(|t| graphalign_json::from_str(t).map_err(|e| format!("bad JSON body: {e:?}")))
    {
        Ok(b) => b,
        Err(e) => return (400, error_json(&e)),
    };
    let mut job_request = match jobs::parse_request(&body, state.default_timeout) {
        Ok(r) => r,
        Err(e) => return (400, error_json(&e)),
    };
    if let Err(e) = jobs::validate(state, &mut job_request) {
        return (400, error_json(&e));
    }

    // Admission control. Both checks and the inflight reservation happen
    // before the job becomes visible, so a refused submission leaves no
    // trace beyond the counter.
    let queued = state.jobs.count(JobStatus::Queued);
    if queued >= state.max_queued {
        state.counters.rejected_429.fetch_add(1, Ordering::Relaxed);
        return (
            429,
            error_json(&format!(
                "job queue is full ({queued}/{} queued); retry later",
                state.max_queued
            )),
        );
    }
    let est_bytes = jobs::estimate_bytes(state, &job_request);
    let inflight = state.inflight_bytes.load(Ordering::Relaxed);
    if inflight.saturating_add(est_bytes) > state.max_inflight_bytes {
        state.counters.rejected_429.fetch_add(1, Ordering::Relaxed);
        return (
            429,
            error_json(&format!(
                "in-flight working set is full ({inflight} + {est_bytes} > {} bytes); retry later",
                state.max_inflight_bytes
            )),
        );
    }
    state.inflight_bytes.fetch_add(est_bytes, Ordering::Relaxed);

    let id = state.jobs.create(job_request, est_bytes);
    let sender = state.sender.lock().expect("sender lock");
    match sender.as_ref() {
        Some(tx) if tx.send(id).is_ok() => (
            200,
            Json::Obj(vec![
                ("job".to_string(), Json::Num(id as f64)),
                ("status".to_string(), Json::Str("queued".to_string())),
            ]),
        ),
        _ => {
            state.inflight_bytes.fetch_sub(est_bytes, Ordering::Relaxed);
            (503, error_json("server is shutting down"))
        }
    }
}

fn get_job(state: &Arc<ServerState>, id: &str) -> (u16, Json) {
    let Ok(id) = id.parse::<usize>() else {
        return (400, error_json("job ids are integers"));
    };
    match state.jobs.poll_json(id) {
        Some(body) => (200, body),
        None => (404, error_json(&format!("no job {id}"))),
    }
}

fn cancel_job(state: &Arc<ServerState>, id: &str) -> (u16, Json) {
    let Ok(id) = id.parse::<usize>() else {
        return (400, error_json("job ids are integers"));
    };
    match state.jobs.request_cancel(id) {
        Some(_) => (
            200,
            Json::Obj(vec![
                ("job".to_string(), Json::Num(id as f64)),
                ("status".to_string(), Json::Str("cancel requested".to_string())),
            ]),
        ),
        None => (404, error_json(&format!("no job {id}"))),
    }
}

/// The `GET /healthz` readiness report: `200` when every worker is alive
/// and the persisted cache has no outstanding integrity debt, `503`
/// otherwise (same body either way, so probes can log the reasons).
fn healthz_json(state: &Arc<ServerState>) -> (u16, Json) {
    let workers_alive = state.workers_alive.load(Ordering::SeqCst);
    let cache_ok = state.cache.integrity_ok();
    let shutting_down = state.shutdown.load(Ordering::SeqCst);
    let mut reasons = Vec::new();
    if workers_alive < state.workers {
        reasons.push(format!("{workers_alive}/{} workers alive", state.workers));
    }
    if !cache_ok {
        reasons.push("persisted cache has quarantined entries awaiting recompute".to_string());
    }
    if shutting_down {
        reasons.push("shutting down".to_string());
    }
    let ready = reasons.is_empty();
    let body = Json::Obj(vec![
        ("status".to_string(), Json::Str(if ready { "ready" } else { "degraded" }.to_string())),
        ("reasons".to_string(), Json::Arr(reasons.into_iter().map(Json::Str).collect())),
        ("queue_depth".to_string(), Json::Num(state.jobs.count(JobStatus::Queued) as f64)),
        (
            "inflight_bytes".to_string(),
            Json::Num(state.inflight_bytes.load(Ordering::Relaxed) as f64),
        ),
        ("workers_alive".to_string(), Json::Num(workers_alive as f64)),
        ("workers".to_string(), Json::Num(state.workers as f64)),
        ("cache_integrity_ok".to_string(), Json::Bool(cache_ok)),
        (
            "cache_pending_integrity".to_string(),
            Json::Num(state.cache.stats().pending_integrity as f64),
        ),
    ]);
    (if ready { 200 } else { 503 }, body)
}

fn stats_json(state: &Arc<ServerState>) -> Json {
    let CacheStats {
        entries,
        bytes,
        hits,
        misses,
        evictions,
        disk_loads,
        quarantined,
        pending_integrity,
        io_errors,
    } = state.cache.stats();
    Json::Obj(vec![
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("entries".to_string(), Json::Num(entries as f64)),
                ("bytes".to_string(), Json::Num(bytes as f64)),
                ("hits".to_string(), Json::Num(hits as f64)),
                ("misses".to_string(), Json::Num(misses as f64)),
                ("evictions".to_string(), Json::Num(evictions as f64)),
                ("disk_loads".to_string(), Json::Num(disk_loads as f64)),
                ("quarantined".to_string(), Json::Num(quarantined as f64)),
                ("pending_integrity".to_string(), Json::Num(pending_integrity as f64)),
                ("io_errors".to_string(), Json::Num(io_errors as f64)),
            ]),
        ),
        (
            "jobs".to_string(),
            Json::Obj(vec![
                ("queued".to_string(), Json::Num(state.jobs.count(JobStatus::Queued) as f64)),
                ("running".to_string(), Json::Num(state.jobs.count(JobStatus::Running) as f64)),
                ("done".to_string(), Json::Num(state.jobs.count(JobStatus::Done) as f64)),
                ("error".to_string(), Json::Num(state.jobs.count(JobStatus::Error) as f64)),
                ("timeout".to_string(), Json::Num(state.jobs.count(JobStatus::TimedOut) as f64)),
                ("cancelled".to_string(), Json::Num(state.jobs.count(JobStatus::Cancelled) as f64)),
            ]),
        ),
        (
            "resilience".to_string(),
            Json::Obj(vec![
                (
                    "retries".to_string(),
                    Json::Num(state.counters.retries.load(Ordering::Relaxed) as f64),
                ),
                (
                    "panics_contained".to_string(),
                    Json::Num(state.counters.panics_contained.load(Ordering::Relaxed) as f64),
                ),
                (
                    "rejected_429".to_string(),
                    Json::Num(state.counters.rejected_429.load(Ordering::Relaxed) as f64),
                ),
                (
                    "inflight_bytes".to_string(),
                    Json::Num(state.inflight_bytes.load(Ordering::Relaxed) as f64),
                ),
                (
                    "workers_alive".to_string(),
                    Json::Num(state.workers_alive.load(Ordering::SeqCst) as f64),
                ),
            ]),
        ),
        ("graphs".to_string(), Json::Num(state.graphs.len() as f64)),
        ("workers".to_string(), Json::Num(state.workers as f64)),
    ])
}
