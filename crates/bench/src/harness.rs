//! The measurement loop: one experiment *cell* = one algorithm on one noisy
//! instance with one assignment method, timed and scored on all five
//! quality measures.
//!
//! The loop is fault-tolerant: a panicking repetition is caught (via
//! [`graphalign_par::try_map_collect`]) and recorded as a structured
//! [`CellError::Panic`] failure, a repetition that outlives the cell's
//! cooperative deadline ([`RunPolicy::cell_timeout`]) is recorded as
//! [`CellError::Timeout`], and numerical failures can be retried with a
//! reseeded instance ([`RunPolicy::retries`]). Repetitions that completed
//! before the first failure still contribute to the cell's averages
//! ([`CellResult::reps_ok`]).

use crate::suite::Algo;
use crate::telemetry::CellTelemetry;
use graphalign::AlignError;
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_graph::Graph;
use graphalign_metrics::{evaluate, QualityReport};
use graphalign_noise::{make_instance, NoiseConfig};
use graphalign_par::telemetry::{self as solver_telemetry, RepTelemetry, ResidualSeries};
use std::time::{Duration, Instant};

/// Failure classes of an experiment cell, recorded in the result JSON so
/// downstream analysis can distinguish "crashed" from "ran out of budget"
/// from "numerically failed" from "never attempted".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// A repetition panicked (caught; the process and sweep continue).
    Panic,
    /// The cell exceeded its cooperative deadline or was cancelled.
    Timeout,
    /// A numerical subroutine failed (non-convergence, singularity, NaN).
    Numeric,
    /// The cell was not attempted: feasibility caps or an unusable instance.
    Infeasible,
}

impl CellError {
    /// Stable string form used in JSON output (`error_class` field).
    pub fn as_str(self) -> &'static str {
        match self {
            CellError::Panic => "panic",
            CellError::Timeout => "timeout",
            CellError::Numeric => "numeric",
            CellError::Infeasible => "infeasible",
        }
    }

    /// Inverse of [`CellError::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(CellError::Panic),
            "timeout" => Some(CellError::Timeout),
            "numeric" => Some(CellError::Numeric),
            "infeasible" => Some(CellError::Infeasible),
            _ => None,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The one mapping of alignment errors onto the failure taxonomy, shared by
/// the experiment harness and the serving layer so sweep result JSON and
/// serve responses agree on classes.
impl From<&AlignError> for CellError {
    fn from(e: &AlignError) -> Self {
        match e {
            AlignError::Interrupted { .. } => CellError::Timeout,
            AlignError::BadInstance(_) => CellError::Infeasible,
            AlignError::Numerical(_) => CellError::Numeric,
        }
    }
}

/// One classified repetition failure.
#[derive(Debug, Clone)]
pub struct RepFailure {
    /// Failure class (drives retry policy and JSON classification).
    pub class: CellError,
    /// Human-readable message for the result JSON.
    pub message: String,
}

impl RepFailure {
    pub(crate) fn from_align_error(algo: &str, context: &str, e: &AlignError) -> Self {
        Self { class: e.into(), message: format!("{algo}{context}: {e}") }
    }
}

impl std::fmt::Display for RepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class, self.message)
    }
}

/// How a cell is executed: repetition count, seeding, and the
/// fault-tolerance knobs shared by every figure binary.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Noisy repetitions per cell.
    pub reps: usize,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Quick-mode feasibility caps.
    pub quick: bool,
    /// Cooperative deadline for the whole cell (`--cell-timeout`); `None`
    /// runs unbounded.
    pub cell_timeout: Option<Duration>,
    /// Extra reseeded attempts per repetition after a numerical failure
    /// (`--retries`). Panics and timeouts are never retried.
    pub retries: usize,
    /// Collect per-iteration residual series (`--trace`). Convergence events
    /// and op counters are always collected; this only controls the series.
    pub trace: bool,
}

impl RunPolicy {
    /// An unbounded, no-retry policy (the pre-fault-tolerance behaviour).
    pub fn new(reps: usize, seed: u64, quick: bool) -> Self {
        Self { reps, seed, quick, cell_timeout: None, retries: 0, trace: false }
    }

    /// Seed for repetition `rep`, attempt `attempt`. Attempt 0 preserves the
    /// historical `seed + rep` seeding exactly (so retries cannot perturb
    /// fault-free runs); each retry shifts by a large odd constant to draw an
    /// unrelated instance.
    pub fn rep_seed(&self, rep: usize, attempt: usize) -> u64 {
        const RESEED: u64 = 0x9E37_79B9_7F4A_7C15;
        self.seed.wrapping_add(rep as u64).wrapping_add((attempt as u64).wrapping_mul(RESEED))
    }
}

/// One measured experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Assignment method label.
    pub assignment: String,
    /// Wall-clock seconds of the alignment (per the paper, *excluding* the
    /// LAP step when `split_assignment` timing is used — see
    /// [`run_instance_split`]). `None` (JSON `null`) when no repetition
    /// succeeded — downstream analysis skips such cells instead of mistaking
    /// them for instant zero-quality runs.
    pub seconds: Option<f64>,
    /// Quality measures averaged over the successful repetitions; `None`
    /// when there were none.
    pub accuracy: Option<f64>,
    /// Matched neighborhood consistency.
    pub mnc: Option<f64>,
    /// Symmetric substructure score.
    pub s3: Option<f64>,
    /// Edge correctness.
    pub ec: Option<f64>,
    /// Induced conserved structure.
    pub ics: Option<f64>,
    /// Repetitions attempted (0 only for feasibility-skipped cells).
    pub reps: usize,
    /// Repetitions that completed successfully; the quality and `seconds`
    /// averages run over these. All measures are zero when none succeeded.
    pub reps_ok: usize,
    /// `true` when the cell was never attempted (feasibility caps).
    pub skipped: bool,
    /// First repetition failure message, when any repetition failed.
    pub error: Option<String>,
    /// Failure class of `error` ([`CellError::as_str`]); also `"infeasible"`
    /// for feasibility-skipped cells.
    pub error_class: Option<String>,
    /// End-to-end wall-clock seconds for the whole cell (all repetitions,
    /// including instance generation) — the number that shrinks when the
    /// repetition fan-out runs on more threads, unlike `seconds`, which is
    /// the summed per-repetition alignment time averaged over `reps_ok`.
    pub wall_clock: f64,
    /// Worker-thread cap the cell ran under (`--threads` /
    /// `GRAPHALIGN_THREADS` / core count).
    pub threads: usize,
    /// Aggregated solver telemetry of the successful repetitions; `None`
    /// for skipped cells and cells where no repetition succeeded.
    pub telemetry: Option<CellTelemetry>,
}

graphalign_json::impl_to_json!(CellResult {
    algorithm,
    assignment,
    seconds,
    accuracy,
    mnc,
    s3,
    ec,
    ics,
    reps,
    reps_ok,
    skipped,
    error,
    error_class,
    wall_clock,
    threads,
    telemetry,
});

impl CellResult {
    /// A feasibility-skipped cell marker (never attempted).
    pub fn skipped(algorithm: &str, assignment: &str) -> Self {
        Self {
            algorithm: algorithm.into(),
            assignment: assignment.into(),
            seconds: None,
            accuracy: None,
            mnc: None,
            s3: None,
            ec: None,
            ics: None,
            reps: 0,
            reps_ok: 0,
            skipped: true,
            error: None,
            error_class: Some(CellError::Infeasible.as_str().into()),
            wall_clock: 0.0,
            threads: graphalign_par::max_threads(),
            telemetry: None,
        }
    }

    /// A failed-cell marker that records what actually happened: the
    /// repetitions attempted and the true elapsed time, not zeros.
    pub fn failed(
        algorithm: &str,
        assignment: &str,
        class: CellError,
        error: String,
        reps_attempted: usize,
        wall_clock: f64,
    ) -> Self {
        Self {
            reps: reps_attempted,
            skipped: false,
            error: Some(error),
            error_class: Some(class.as_str().into()),
            wall_clock,
            ..Self::skipped(algorithm, assignment)
        }
    }

    /// Whether any repetition failed (the cell may still carry averages from
    /// the repetitions that succeeded).
    pub fn has_failure(&self) -> bool {
        self.error.is_some()
    }

    /// Parses a cell back from the flat JSON object form produced by its
    /// `ToJson` impl (also embedded in sweep rows and journal lines).
    /// Returns `None` when a required field is missing or mistyped.
    pub fn from_json(v: &graphalign_json::Json) -> Option<Self> {
        use graphalign_json::Json;
        let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        // Measures are `null` when no repetition succeeded; `Json::Null`
        // yields `as_f64() == None`, which is exactly the in-memory form.
        let opt_f64 = |key: &str| v.get(key).and_then(Json::as_f64);
        let telemetry = match v.get("telemetry") {
            None | Some(Json::Null) => None,
            Some(t) => Some(CellTelemetry::from_json(t)?),
        };
        Some(Self {
            algorithm: v.get("algorithm")?.as_str()?.to_string(),
            assignment: v.get("assignment")?.as_str()?.to_string(),
            seconds: opt_f64("seconds"),
            accuracy: opt_f64("accuracy"),
            mnc: opt_f64("mnc"),
            s3: opt_f64("s3"),
            ec: opt_f64("ec"),
            ics: opt_f64("ics"),
            reps: v.get("reps")?.as_f64()? as usize,
            reps_ok: v.get("reps_ok")?.as_f64()? as usize,
            skipped: v.get("skipped")?.as_bool()?,
            error: opt_str("error"),
            error_class: opt_str("error_class"),
            wall_clock: v.get("wall_clock")?.as_f64()?,
            threads: v.get("threads")?.as_f64()? as usize,
            telemetry,
        })
    }
}

/// Runs one algorithm on one prepared instance, timing similarity +
/// assignment together.
///
/// # Errors
/// Returns a classified [`RepFailure`] when the aligner fails (or is
/// interrupted by the cell budget).
pub fn run_instance(
    algo: Algo,
    dense_dataset: bool,
    instance: &AlignmentInstance,
    method: AssignmentMethod,
) -> Result<(QualityReport, f64), RepFailure> {
    let aligner = algo.make(dense_dataset);
    let start = Instant::now();
    let alignment = aligner
        .align_with(&instance.source, &instance.target, method)
        .map_err(|e| RepFailure::from_align_error(algo.name(), "", &e))?;
    let seconds = start.elapsed().as_secs_f64();
    let report = evaluate(&instance.source, &instance.target, &alignment, &instance.ground_truth);
    Ok((report, seconds))
}

/// Representation facts about the similarity a split run produced, for the
/// scalability figures' memory reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimilarityStats {
    /// Representation kind (`"dense"`, `"lowrank"`, `"sparse"`).
    pub repr: &'static str,
    /// Bytes the similarity payload occupies in that representation.
    pub bytes: usize,
}

/// Runs one algorithm on one prepared instance, timing only the similarity
/// phase — the paper's scalability protocol ("we exclude the runtime for
/// linear assignment", §6.6). The similarity is requested for `method`
/// ([`graphalign::Aligner::similarity_for`]), so e.g. LREA's auction cell
/// measures the sparse candidate route it actually runs.
///
/// # Errors
/// Returns a classified [`RepFailure`] when the similarity phase fails.
pub fn run_instance_split(
    algo: Algo,
    dense_dataset: bool,
    instance: &AlignmentInstance,
    method: AssignmentMethod,
) -> Result<(QualityReport, f64, SimilarityStats), RepFailure> {
    let aligner = algo.make(dense_dataset);
    let start = Instant::now();
    let sim = aligner
        .similarity_for(&instance.source, &instance.target, method)
        .map_err(|e| RepFailure::from_align_error(algo.name(), " similarity", &e))?;
    let seconds = start.elapsed().as_secs_f64();
    let stats = SimilarityStats { repr: sim.repr_kind(), bytes: sim.approx_bytes() };
    let alignment = graphalign_assignment::assign(&sim, method);
    let report = evaluate(&instance.source, &instance.target, &alignment, &instance.ground_truth);
    Ok((report, seconds, stats))
}

/// Runs a full cell: `policy.reps` noisy instances of `base` under `noise`,
/// aligned by `algo` with `method`, measures averaged over the successful
/// repetitions. Returns a skipped marker when the cell exceeds the
/// algorithm's feasibility caps.
///
/// Fault tolerance:
/// * the cell budget ([`RunPolicy::cell_timeout`]) is installed for the
///   duration of the cell and propagated to the repetition workers, so every
///   iterative solver winds down cooperatively once it expires — such
///   repetitions are classified [`CellError::Timeout`];
/// * a panicking repetition is caught and classified [`CellError::Panic`]
///   without disturbing the other repetitions;
/// * [`CellError::Numeric`] failures are retried up to [`RunPolicy::retries`]
///   times with a reseeded instance;
/// * repetitions that succeeded are aggregated even when others failed
///   ([`CellResult::reps_ok`]); the first failure in repetition order is
///   recorded in `error`/`error_class`.
///
/// The repetitions are independent (instance `r` is seeded with
/// `seed + r`), so they fan out across the worker pool; the reports are
/// then averaged sequentially in repetition order, which keeps the cell
/// measures bit-identical for every thread count.
pub fn run_cell(
    algo: Algo,
    base: &Graph,
    dense_dataset: bool,
    noise: &NoiseConfig,
    method: AssignmentMethod,
    policy: &RunPolicy,
) -> CellResult {
    run_cell_traced(algo, base, dense_dataset, noise, method, policy).0
}

/// [`run_cell`], additionally returning the per-iteration residual series of
/// every solver invocation in the successful repetitions, tagged with their
/// repetition index (in repetition order). The series are empty unless
/// [`RunPolicy::trace`] is set; the cell's aggregated `telemetry` block is
/// collected either way.
pub fn run_cell_traced(
    algo: Algo,
    base: &Graph,
    dense_dataset: bool,
    noise: &NoiseConfig,
    method: AssignmentMethod,
    policy: &RunPolicy,
) -> (CellResult, Vec<(usize, ResidualSeries)>) {
    if !algo.feasible(base.node_count(), base.avg_degree(), policy.quick) {
        return (CellResult::skipped(algo.name(), method.label()), Vec::new());
    }
    let start = Instant::now();
    let _budget = graphalign_par::budget::install(policy.cell_timeout);
    // One chunk per repetition: an alignment run dwarfs any per-item
    // forking threshold, so bill each item at `usize::MAX >> 16`.
    let results = graphalign_par::try_map_collect(policy.reps, usize::MAX >> 16, |r| {
        graphalign_par::fault::maybe_inject(&format!(
            "{}:{}:{}:r{r}",
            algo.name(),
            noise.model.label(),
            noise.level
        ));
        let mut attempt = 0usize;
        loop {
            // Fresh telemetry sink per attempt, so a retried repetition's
            // aborted first attempt cannot leak events into its averages.
            let sink = solver_telemetry::install(policy.trace);
            let instance = make_instance(base, noise, policy.rep_seed(r, attempt));
            let outcome = run_instance(algo, dense_dataset, &instance, method);
            // A repetition that "succeeded" after the budget expired may
            // carry a budget-degraded matching (the auction winds down
            // early); classify it as a timeout so degraded measures never
            // enter the averages.
            let outcome = match outcome {
                Ok(_) if graphalign_par::budget::exceeded() => Err(RepFailure {
                    class: CellError::Timeout,
                    message: format!("{}: cell budget expired during repetition {r}", algo.name()),
                }),
                other => other,
            };
            match outcome {
                Err(f) if f.class == CellError::Numeric && attempt < policy.retries => {
                    attempt += 1;
                    drop(sink);
                }
                other => {
                    let telemetry = solver_telemetry::drain();
                    drop(sink);
                    return other.map(|(report, s)| (report, s, telemetry));
                }
            }
        }
    });

    let mut acc = 0.0;
    let mut mnc = 0.0;
    let mut s3 = 0.0;
    let mut ec = 0.0;
    let mut ics = 0.0;
    let mut secs = 0.0;
    let mut ok = 0usize;
    let mut rep_telemetry: Vec<RepTelemetry> = Vec::new();
    let mut series: Vec<(usize, ResidualSeries)> = Vec::new();
    let mut first_failure: Option<(CellError, String)> = None;
    // `try_map_collect` returns outcomes in repetition order regardless of
    // worker count, so this sequential aggregation (measures and telemetry
    // alike) is bit-identical for every thread count.
    for (r, outcome) in results.into_iter().enumerate() {
        match outcome {
            Ok(Ok((report, s, telemetry))) => {
                acc += report.accuracy;
                mnc += report.mnc;
                s3 += report.s3;
                ec += report.ec;
                ics += report.ics;
                secs += s;
                ok += 1;
                series.extend(telemetry.series.iter().cloned().map(|sr| (r, sr)));
                rep_telemetry.push(telemetry);
            }
            Ok(Err(failure)) => {
                if first_failure.is_none() {
                    first_failure = Some((failure.class, failure.message));
                }
            }
            Err(panic_msg) => {
                if first_failure.is_none() {
                    first_failure =
                        Some((CellError::Panic, format!("{}: panic: {panic_msg}", algo.name())));
                }
            }
        }
    }
    // Zero successes means there is nothing to average: the measures are
    // `None` (JSON `null`), never a fabricated 0.0 from a guarded division.
    let avg = |total: f64| (ok > 0).then(|| total / ok as f64);
    let (error_class, error) = match first_failure {
        Some((class, msg)) => (Some(class.as_str().to_string()), Some(msg)),
        None => (None, None),
    };
    let cell = CellResult {
        algorithm: algo.name().into(),
        assignment: method.label().into(),
        seconds: avg(secs),
        accuracy: avg(acc),
        mnc: avg(mnc),
        s3: avg(s3),
        ec: avg(ec),
        ics: avg(ics),
        reps: policy.reps,
        reps_ok: ok,
        skipped: false,
        error,
        error_class,
        wall_clock: start.elapsed().as_secs_f64(),
        threads: graphalign_par::max_threads(),
        telemetry: (ok > 0).then(|| CellTelemetry::aggregate(&rep_telemetry)),
    };
    (cell, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_noise::NoiseModel;

    fn tiny_graph() -> Graph {
        // Ring of triangles with a pendant (distinctive, 21 nodes).
        let rings = 6;
        let mut edges = Vec::new();
        for i in 0..rings {
            let a = 3 * i;
            edges.push((a, a + 1));
            edges.push((a + 1, a + 2));
            edges.push((a, a + 2));
            edges.push((a + 2, (a + 3) % (3 * rings)));
        }
        edges.push((0, 3 * rings));
        Graph::from_edges(3 * rings + 1, &edges)
    }

    #[test]
    fn run_cell_produces_bounded_measures() {
        let g = tiny_graph();
        let noise = NoiseConfig::new(NoiseModel::OneWay, 0.0);
        let cell = run_cell(
            Algo::IsoRank,
            &g,
            true,
            &noise,
            AssignmentMethod::JonkerVolgenant,
            &RunPolicy::new(2, 1, true),
        );
        assert!(!cell.skipped);
        assert_eq!(cell.reps, 2);
        assert_eq!(cell.reps_ok, 2);
        assert!(!cell.has_failure());
        for v in [cell.accuracy, cell.mnc, cell.s3, cell.ec, cell.ics] {
            let v = v.expect("successful cell must carry measures");
            assert!((0.0..=1.0).contains(&v), "measure {v} out of range");
        }
        assert!(cell.seconds.expect("successful cell must carry seconds") > 0.0);
        let t = cell.telemetry.expect("successful cell must carry telemetry");
        assert!(t.solver_runs > 0, "IsoRank must record its power/driver loops");
        assert!(t.iterations > 0);
        assert!(t.matmuls > 0, "IsoRank multiplies matrices");
        assert!(t.phases.iter().any(|(n, _)| n == "similarity"));
        assert!(t.phases.iter().any(|(n, _)| n == "assignment"));
    }

    #[test]
    fn infeasible_cells_are_skipped() {
        // GWL's quick cap is 400 nodes; a fake 10k-node graph must skip.
        let g = Graph::from_edges(10_000, &[(0, 1)]);
        let noise = NoiseConfig::new(NoiseModel::OneWay, 0.0);
        let cell = run_cell(
            Algo::Gwl,
            &g,
            true,
            &noise,
            AssignmentMethod::NearestNeighbor,
            &RunPolicy::new(1, 1, true),
        );
        assert!(cell.skipped);
        assert_eq!(cell.reps, 0);
        assert_eq!(cell.error_class.as_deref(), Some("infeasible"));
    }

    #[test]
    fn split_timing_excludes_assignment() {
        let g = tiny_graph();
        let inst = graphalign_graph::permutation::AlignmentInstance::permuted(g, 3);
        let (report, secs, stats) =
            run_instance_split(Algo::Grasp, true, &inst, AssignmentMethod::JonkerVolgenant)
                .expect("GRASP runs on a tiny graph");
        assert!(secs >= 0.0);
        assert!(report.accuracy >= 0.0);
        assert_eq!(stats.repr, "lowrank", "GRASP hands the pipeline a factored similarity");
        assert!(stats.bytes > 0);
    }

    #[test]
    fn cell_error_strings_round_trip() {
        for class in
            [CellError::Panic, CellError::Timeout, CellError::Numeric, CellError::Infeasible]
        {
            assert_eq!(CellError::parse(class.as_str()), Some(class));
        }
        assert_eq!(CellError::parse("weird"), None);
    }

    #[test]
    fn cell_result_json_round_trips() {
        // Failed cell with hostile characters in the error message, a
        // partially-succeeded cell, and a feasibility skip: the JSON form
        // must reproduce each exactly (the property resume relies on).
        let mut partial = CellResult::failed(
            "GWL",
            "JV",
            CellError::Panic,
            "boom: \"quoted\"\n\ttab and \\ backslash".into(),
            3,
            1.25,
        );
        partial.reps_ok = 1;
        partial.accuracy = Some(0.3333333333333333);
        partial.seconds = Some(0.0078125);
        partial.telemetry = Some(crate::telemetry::CellTelemetry::aggregate(&[
            graphalign_par::telemetry::RepTelemetry {
                events: vec![graphalign_par::telemetry::SolverEvent {
                    routine: "isorank",
                    convergence: graphalign_par::telemetry::Convergence::max_iter(30, 0.125),
                }],
                matmuls: 3,
                phases: vec![("similarity", 0.5)],
                ..Default::default()
            },
        ]));
        let timeout = CellResult::failed(
            "CONE",
            "NN",
            CellError::Timeout,
            "cell budget expired".into(),
            2,
            5.0,
        );
        let skipped = CellResult::skipped("S-GWL", "NN");
        for cell in [partial, timeout, skipped] {
            let line = graphalign_json::to_string_compact(&cell);
            let parsed = graphalign_json::from_str(&line).expect("valid JSON");
            let back = CellResult::from_json(&parsed).expect("parseable cell");
            assert_eq!(
                graphalign_json::to_string_compact(&back),
                line,
                "round trip changed the cell"
            );
            assert_eq!(back.error, cell.error);
            assert_eq!(back.error_class, cell.error_class);
            assert_eq!(back.reps, cell.reps);
            assert_eq!(back.reps_ok, cell.reps_ok);
        }
    }

    #[test]
    fn traced_cell_returns_residual_series_untraced_does_not() {
        let g = tiny_graph();
        let noise = NoiseConfig::new(NoiseModel::OneWay, 0.0);
        let traced = RunPolicy { trace: true, ..RunPolicy::new(1, 1, true) };
        let (cell, series) = run_cell_traced(
            Algo::IsoRank,
            &g,
            true,
            &noise,
            AssignmentMethod::JonkerVolgenant,
            &traced,
        );
        assert_eq!(cell.reps_ok, 1);
        assert!(!series.is_empty(), "trace mode must surface residual series");
        for (rep, s) in &series {
            assert_eq!(*rep, 0);
            assert!(s.residuals.iter().all(|r| r.is_finite()), "residuals must be finite");
        }
        let (_, none) = run_cell_traced(
            Algo::IsoRank,
            &g,
            true,
            &noise,
            AssignmentMethod::JonkerVolgenant,
            &RunPolicy::new(1, 1, true),
        );
        assert!(none.is_empty(), "series are opt-in");
    }

    #[test]
    fn rep_seed_attempt_zero_matches_historical_seeding() {
        let p = RunPolicy::new(3, 100, true);
        assert_eq!(p.rep_seed(0, 0), 100);
        assert_eq!(p.rep_seed(2, 0), 102);
        assert_ne!(p.rep_seed(0, 1), p.rep_seed(0, 0));
        assert_ne!(p.rep_seed(0, 1), p.rep_seed(1, 0));
    }

    #[test]
    fn expired_cell_timeout_is_classified_timeout() {
        let g = tiny_graph();
        let noise = NoiseConfig::new(NoiseModel::OneWay, 0.0);
        let policy = RunPolicy {
            cell_timeout: Some(std::time::Duration::ZERO),
            ..RunPolicy::new(2, 1, true)
        };
        let cell =
            run_cell(Algo::IsoRank, &g, true, &noise, AssignmentMethod::JonkerVolgenant, &policy);
        assert!(!cell.skipped);
        assert_eq!(cell.reps, 2);
        assert_eq!(cell.reps_ok, 0);
        assert_eq!(cell.error_class.as_deref(), Some("timeout"));
        // Zero successes → null measures (not a fabricated 0.0), but the
        // attempt is still recorded.
        assert_eq!(cell.accuracy, None);
        assert_eq!(cell.seconds, None);
        assert_eq!(cell.telemetry, None);
        assert!(cell.wall_clock > 0.0);
    }
}
