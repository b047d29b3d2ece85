//! The job table and per-job execution path of the serving layer.
//!
//! A job is one alignment query: a registered graph pair, an algorithm, an
//! assignment method, and an optional timeout. Jobs are executed on the
//! server's bounded worker pool; each execution installs its own telemetry
//! sink and cooperative budget (the PR-2 deadline machinery), consults the
//! keyed similarity cache, and records the full [`CellTelemetry`] block —
//! including the `cache_hits`/`cache_misses`/`cache_bytes` counters — in
//! the job's result. Results are bit-identical between cold and warm runs
//! and across worker-thread counts, per the workspace determinism contract.
//!
//! # Failure isolation
//!
//! Every attempt runs under `catch_unwind` — the same isolation the
//! experiment harness applies per repetition — so a panicking algorithm
//! produces a classified job failure, never a dead worker thread. Failures
//! carry the harness's [`CellError`] taxonomy in the `error_class` field:
//! `panic`, `timeout`, `numeric`, `infeasible`. Numeric failures retry with
//! exponential backoff up to the server's `job_retries` bound; retry
//! attempts bypass the similarity cache so a fresh computation (not a
//! possibly-poisoned cached value) gets the final word. Panics, timeouts,
//! cancellations, and bad instances never retry.

use crate::cache::CacheKey;
use crate::ServerState;
use graphalign::AlignError;
use graphalign_assignment::AssignmentMethod;
use graphalign_bench::harness::CellError;
use graphalign_bench::telemetry::CellTelemetry;
use graphalign_json::{Json, ToJson};
use graphalign_par::budget::BudgetState;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A submitted alignment query.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Registered source graph id (content-digest hex).
    pub source: String,
    /// Registered target graph id.
    pub target: String,
    /// Canonical algorithm name (registry spelling).
    pub algorithm: String,
    /// Assignment method.
    pub method: AssignmentMethod,
    /// Per-request deadline; `None` means the server default (which may
    /// itself be "no deadline").
    pub timeout: Option<Duration>,
}

/// Lifecycle of a job, reported verbatim in the `status` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a mapping.
    Done,
    /// Failed (panic, numerical failure, bad instance).
    Error,
    /// The per-request deadline expired mid-run.
    TimedOut,
    /// Cancelled via `POST /jobs/<id>/cancel` (or server shutdown).
    Cancelled,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Error => "error",
            JobStatus::TimedOut => "timeout",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// One job's full state.
struct Job {
    request: JobRequest,
    status: JobStatus,
    mapping: Option<Vec<usize>>,
    error: Option<String>,
    /// [`CellError`] taxonomy string when `error` is set.
    error_class: Option<&'static str>,
    /// Attempts performed (1 for a clean run; >1 after numeric retries).
    attempts: u32,
    telemetry: Option<Json>,
    /// Set while running so the cancel endpoint can reach the worker's
    /// budget from a connection-handler thread.
    budget: Option<Arc<BudgetState>>,
    cancel_requested: bool,
    /// Working-set estimate reserved against the admission budget.
    est_bytes: u64,
    /// Submission time; terminal-state latency feeds `Retry-After`.
    enqueued: Instant,
}

/// Thread-safe table of all jobs this server instance has accepted.
/// Job ids are dense indices in submission order.
#[derive(Default)]
pub struct JobTable {
    jobs: Mutex<Vec<Job>>,
}

impl JobTable {
    /// Registers a new queued job, returning its id. `est_bytes` is the
    /// working-set estimate already reserved by admission control; it is
    /// returned to the budget when the job reaches a terminal state.
    pub fn create(&self, request: JobRequest, est_bytes: u64) -> usize {
        let mut jobs = self.jobs.lock().expect("job table lock");
        jobs.push(Job {
            request,
            status: JobStatus::Queued,
            mapping: None,
            error: None,
            error_class: None,
            attempts: 0,
            telemetry: None,
            budget: None,
            cancel_requested: false,
            est_bytes,
            enqueued: Instant::now(),
        });
        jobs.len() - 1
    }

    /// Number of jobs whose status is `status`.
    pub fn count(&self, status: JobStatus) -> usize {
        self.jobs.lock().expect("job table lock").iter().filter(|j| j.status == status).count()
    }

    /// The poll response for `GET /jobs/<id>`, or `None` for unknown ids.
    pub fn poll_json(&self, id: usize) -> Option<Json> {
        let jobs = self.jobs.lock().expect("job table lock");
        let job = jobs.get(id)?;
        let mut members = vec![
            ("job".to_string(), Json::Num(id as f64)),
            ("status".to_string(), Json::Str(job.status.as_str().to_string())),
            ("source".to_string(), Json::Str(job.request.source.clone())),
            ("target".to_string(), Json::Str(job.request.target.clone())),
            ("algorithm".to_string(), Json::Str(job.request.algorithm.clone())),
            ("assignment".to_string(), Json::Str(job.request.method.label().to_string())),
        ];
        if job.attempts > 0 {
            members.push(("attempts".to_string(), Json::Num(job.attempts as f64)));
        }
        if let Some(mapping) = &job.mapping {
            members.push((
                "mapping".to_string(),
                Json::Arr(mapping.iter().map(|&v| Json::Num(v as f64)).collect()),
            ));
        }
        if let Some(err) = &job.error {
            members.push(("error".to_string(), Json::Str(err.clone())));
        }
        if let Some(class) = job.error_class {
            members.push(("error_class".to_string(), Json::Str(class.to_string())));
        }
        if let Some(t) = &job.telemetry {
            members.push(("telemetry".to_string(), t.clone()));
        }
        Some(Json::Obj(members))
    }

    /// Requests cancellation: flags the job and trips its budget if a
    /// worker is already running it. Returns the job's current status, or
    /// `None` for unknown ids.
    pub fn request_cancel(&self, id: usize) -> Option<JobStatus> {
        let mut jobs = self.jobs.lock().expect("job table lock");
        let job = jobs.get_mut(id)?;
        job.cancel_requested = true;
        if let Some(b) = &job.budget {
            b.cancel();
        }
        Some(job.status)
    }

    /// Flags every unfinished job for cancellation (server shutdown).
    pub fn cancel_all(&self) {
        let mut jobs = self.jobs.lock().expect("job table lock");
        for job in jobs.iter_mut() {
            if matches!(job.status, JobStatus::Queued | JobStatus::Running) {
                job.cancel_requested = true;
                if let Some(b) = &job.budget {
                    b.cancel();
                }
            }
        }
    }

    fn with_job<R>(&self, id: usize, f: impl FnOnce(&mut Job) -> R) -> R {
        let mut jobs = self.jobs.lock().expect("job table lock");
        f(jobs.get_mut(id).expect("job id from the channel is valid"))
    }
}

/// Estimated working-set bytes of a validated job: the dense similarity
/// matrix (`|V_s| × |V_t| × 8`) dominates every algorithm's footprint, so
/// it is the admission-control unit. Unknown graphs (validated away before
/// this is called) count as zero.
pub fn estimate_bytes(state: &ServerState, request: &JobRequest) -> u64 {
    match (state.graphs.get(&request.source), state.graphs.get(&request.target)) {
        (Some(s), Some(t)) => (s.node_count() as u64) * (t.node_count() as u64) * 8,
        _ => 0,
    }
}

/// How one attempt ended, before retry policy is applied.
enum AttemptOutcome {
    Mapping(Vec<usize>),
    /// A classified failure: taxonomy class + human-readable message.
    Failed(CellError, String),
}

/// Executes job `id` on the calling worker thread: cache lookup, similarity
/// computation on miss, assignment, telemetry capture, retry policy, result
/// recording. Always returns the job's admission reservation and records
/// its queue-to-terminal latency, whatever the outcome.
pub fn execute(state: &ServerState, id: usize) {
    run(state, id);
    let (est_bytes, latency) =
        state.jobs.with_job(id, |job| (job.est_bytes, job.enqueued.elapsed()));
    state.finish_job(est_bytes, latency);
}

fn run(state: &ServerState, id: usize) {
    let (request, cancelled) = state.jobs.with_job(id, |job| {
        if job.cancel_requested {
            job.status = JobStatus::Cancelled;
            (job.request.clone(), true)
        } else {
            job.status = JobStatus::Running;
            (job.request.clone(), false)
        }
    });
    if cancelled {
        return;
    }
    let Some((source, target)) = state
        .graphs
        .get(&request.source)
        .and_then(|s| state.graphs.get(&request.target).map(|t| (s, t)))
    else {
        // Graphs were validated at submission; reaching this means the id
        // scheme broke, which we surface rather than panic the worker.
        state.jobs.with_job(id, |job| {
            job.status = JobStatus::Error;
            job.error = Some("registered graph disappeared".to_string());
            job.error_class = Some(CellError::Infeasible.as_str());
        });
        return;
    };
    if !graphalign::registry()
        .into_iter()
        .any(|a| a.name().eq_ignore_ascii_case(&request.algorithm))
    {
        state.jobs.with_job(id, |job| {
            job.status = JobStatus::Error;
            job.error = Some(format!("unknown algorithm {:?}", request.algorithm));
            job.error_class = Some(CellError::Infeasible.as_str());
        });
        return;
    }

    let max_attempts = 1 + state.job_retries();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let (outcome, telemetry) = attempt_once(state, id, &request, &source, &target, attempt);
        state.jobs.with_job(id, |job| {
            job.attempts = attempt;
            job.telemetry = Some(telemetry.clone());
        });
        match outcome {
            AttemptOutcome::Mapping(mapping) => {
                state.jobs.with_job(id, |job| {
                    job.status = JobStatus::Done;
                    job.mapping = Some(mapping);
                    job.error = None;
                    job.error_class = None;
                });
                return;
            }
            AttemptOutcome::Failed(class, message) => {
                let cancel_requested = state.jobs.with_job(id, |job| job.cancel_requested);
                let retryable =
                    class == CellError::Numeric && attempt < max_attempts && !cancel_requested;
                if retryable {
                    // Exponential backoff before the fresh (cache-bypassing)
                    // attempt: 10 ms, 20 ms, 40 ms, ... capped at 200 ms so
                    // a doomed job still fails promptly.
                    state.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff_ms = (10u64 << (attempt - 1)).min(200);
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    continue;
                }
                state.jobs.with_job(id, |job| {
                    job.status = match class {
                        CellError::Timeout if job.cancel_requested => JobStatus::Cancelled,
                        CellError::Timeout => JobStatus::TimedOut,
                        _ => JobStatus::Error,
                    };
                    job.error = Some(message);
                    job.error_class = Some(class.as_str());
                });
                return;
            }
        }
    }
}

/// One isolated attempt: telemetry sink + cooperative budget + fault site +
/// cache consultation + similarity + assignment, all under `catch_unwind`.
/// Attempts after the first bypass the cache read (fresh computation wins).
fn attempt_once(
    state: &ServerState,
    id: usize,
    request: &JobRequest,
    source: &Arc<graphalign_graph::Graph>,
    target: &Arc<graphalign_graph::Graph>,
    attempt: u32,
) -> (AttemptOutcome, Json) {
    // Resolve the aligner inside the attempt so the `dyn Aligner` borrow
    // never crosses the unwind boundary.
    let aligner = graphalign::registry()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&request.algorithm))
        .expect("algorithm validated at submission");

    // Per-attempt telemetry sink and cooperative budget. The budget is
    // armed with the request deadline (or cancel-only when none), and
    // published in the table so `POST /jobs/<id>/cancel` can trip it
    // cross-thread. The guards live *outside* catch_unwind: a panic inside
    // still restores the previous sink/budget and the telemetry drains.
    let _telemetry = graphalign_par::telemetry::install(false);
    let _budget = graphalign_par::budget::install(request.timeout);
    state.jobs.with_job(id, |job| job.budget = graphalign_par::budget::current());

    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The serve-layer chaos site: a panic here exercises worker
        // isolation, a stall the cooperative deadline, and a simulated
        // numerical failure the retry-with-backoff policy.
        let site = format!("serve:worker:{}", aligner.name());
        graphalign_par::fault::maybe_inject(&site);
        if graphalign_par::fault::active(&site) == Some(graphalign_par::fault::FaultKind::Numeric) {
            return Err(AlignError::Numerical(graphalign_linalg::LinalgError::NoConvergence {
                routine: "injected-fault",
                iterations: 0,
            }));
        }

        let variant =
            if request.method == AssignmentMethod::Auction { "auction" } else { "generic" };
        let key = CacheKey {
            source: source.content_digest(),
            target: target.content_digest(),
            algorithm: aligner.name().to_string(),
            params: "default".to_string(),
            variant,
        };
        let shape = (source.node_count(), target.node_count());
        let cached = if attempt == 1 { state.cache.get(&key, shape) } else { None };
        let sim = match cached {
            Some((sim, bytes)) => {
                // The warm path: the embedding/similarity phase is skipped
                // entirely; the response telemetry proves it (cache_hits =
                // 1, no "similarity" phase span).
                graphalign_par::telemetry::count_cache_hit(bytes);
                Ok(sim)
            }
            None => {
                state.cache.note_miss();
                graphalign_par::telemetry::count_cache_miss();
                graphalign::precompute_similarity(&*aligner, source, target, request.method).map(
                    |sim| {
                        let sim = Arc::new(sim);
                        state.cache.insert(&key, Arc::clone(&sim));
                        sim
                    },
                )
            }
        };
        sim.and_then(|sim| graphalign::assign_within_budget(&sim, request.method))
    }));
    state.jobs.with_job(id, |job| job.budget = None);
    let rep = graphalign_par::telemetry::drain();
    let telemetry = CellTelemetry::aggregate(&[rep]).to_json();

    let outcome = match caught {
        Ok(Ok(mapping)) => AttemptOutcome::Mapping(mapping),
        Ok(Err(e)) => AttemptOutcome::Failed((&e).into(), e.to_string()),
        Err(payload) => {
            state.counters.panics_contained.fetch_add(1, Ordering::Relaxed);
            AttemptOutcome::Failed(
                CellError::Panic,
                format!(
                    "{} panicked: {}",
                    aligner.name(),
                    graphalign_par::panic_message(payload.as_ref())
                ),
            )
        }
    };
    (outcome, telemetry)
}

/// Parses the `POST /jobs` body. Validation errors become 400 responses.
pub fn parse_request(body: &Json, default_timeout: Option<Duration>) -> Result<JobRequest, String> {
    let field = |key: &str| {
        body.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("job request needs a string {key:?} field"))
    };
    let timeout = match body.get("timeout") {
        None | Some(Json::Null) => default_timeout,
        Some(v) => {
            let secs = v.as_f64().ok_or("timeout must be a number of seconds")?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err("timeout must be a positive number of seconds".to_string());
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    Ok(JobRequest {
        source: field("source")?,
        target: field("target")?,
        algorithm: field("algorithm")?,
        method: AssignmentMethod::parse_label(
            body.get("assignment").and_then(Json::as_str).unwrap_or("jv"),
        )?,
        timeout,
    })
}

/// Validates a parsed request against the server's registries, resolving
/// the algorithm to its canonical registry spelling.
pub fn validate(state: &ServerState, request: &mut JobRequest) -> Result<(), String> {
    if state.graphs.get(&request.source).is_none() {
        return Err(format!("unknown source graph {:?}; POST /graphs first", request.source));
    }
    if state.graphs.get(&request.target).is_none() {
        return Err(format!("unknown target graph {:?}; POST /graphs first", request.target));
    }
    match graphalign::registry()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&request.algorithm))
    {
        Some(a) => {
            request.algorithm = a.name().to_string();
            Ok(())
        }
        None => {
            let names: Vec<&str> = graphalign::registry().iter().map(|a| a.name()).collect();
            Err(format!(
                "unknown algorithm {:?}; available: {}",
                request.algorithm,
                names.join(", ")
            ))
        }
    }
}
