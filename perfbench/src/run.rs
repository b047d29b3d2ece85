//! What every workload shares: the run options, failure accounting, the
//! round-robin timed phase, telemetry counts and the outcome a workload
//! hands back for reporting.

use crate::stats::Fastest;
use crate::trace::{SpanId, Trace};
use graphalign_bench::telemetry::CellTelemetry;
use graphalign_json::Json;
use graphalign_par::telemetry::RepTelemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Command-line options a workload runs under.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Attempted and failed operations, shared by every thread of a run.
#[derive(Default)]
pub struct Ledger {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Ledger {
    /// Counts one operation, failed when `result` is an error.
    pub fn check<T>(&self, result: Result<T, String>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    fn fail(&self, why: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("ledger lock");
        if notes.len() < 20 {
            notes.push(why);
        }
    }

    /// `(attempted, failed)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.attempted.load(Ordering::Relaxed), self.failed.load(Ordering::Relaxed))
    }

    /// The first few failure messages.
    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("ledger lock").clone()
    }
}

/// Hands out trace request ids; every class repeat and set-up repeat gets
/// its own.
#[derive(Default)]
pub struct Requests(AtomicU64);

impl Requests {
    /// A fresh request id.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Set-up, timed by the same fastest-of-k rule as the classes. Set-up
/// steps are pure functions of the seed, so they can repeat: once before the
/// warm-up, whose output the run uses, and again between timed rounds, so
/// that the repeats are spread over the run like the classes' are.
pub struct Setup<F> {
    step: F,
    best: Fastest,
}

impl<F> Setup<F> {
    /// `step` gets the repeat's request id and its `setup` span.
    pub fn new(step: F) -> Self {
        Self { step, best: Fastest::new(1) }
    }

    /// Runs the set-up once and records its time.
    pub fn run<T>(&mut self, trace: &Trace, requests: &Requests) -> T
    where
        F: FnMut(u64, Option<SpanId>) -> T,
    {
        let request = requests.next();
        let t0 = Instant::now();
        let out = trace.span("setup", None, request, |id| (self.step)(request, id));
        self.best.record(0, t0.elapsed().as_secs_f64(), request);
        out
    }

    /// The fastest repeat: seconds, and its request id.
    pub fn fastest(&self) -> (f64, u64) {
        (self.best.times()[0], self.best.best_requests()[0])
    }

    /// Repeats run so far.
    pub fn repeats(&self) -> u32 {
        self.best.k_range().0
    }
}

/// Per-class fastest repeats of a timed phase, untraced and traced rounds
/// apart.
pub struct Timed {
    /// Fastest repeats of the untraced rounds.
    pub plain: Fastest,
    /// Fastest repeats of the traced rounds (traced run only).
    pub traced: Option<Fastest>,
}

impl Timed {
    /// Empty tables for `classes` classes; a traced table only when
    /// `trace` is on.
    pub fn new(classes: usize, trace: bool) -> Self {
        Self { plain: Fastest::new(classes), traced: trace.then(|| Fastest::new(classes)) }
    }

    /// Records one repeat of `class` from a traced or untraced round.
    pub fn record(&mut self, traced: bool, class: usize, secs: f64, request: u64) {
        let table = if traced { self.traced.as_mut() } else { Some(&mut self.plain) };
        table.expect("traced table exists in the traced run").record(class, secs, request);
    }
}

/// Rounds run and their wall time, set-up repeats excluded.
pub struct Phase {
    pub rounds: usize,
    pub elapsed: f64,
}

/// The timing rule every workload shares. Runs `round(number, traced)` for
/// rounds 1, 2, … while one more round of the mean length so far still ends
/// within `opts.seconds`, and at least `min_rounds` times, but never more
/// than `max_rounds` times. A round visits every class once, so the repeats
/// of each class are spread over the run. In the traced run every second
/// round is traced, so that the tracing overhead is measured under the same
/// conditions. `between` runs before every round after the first (set-up
/// repeats); its time counts neither towards `seconds` nor towards
/// `elapsed`.
pub fn round_robin(
    opts: &Opts,
    min_rounds: usize,
    max_rounds: usize,
    mut round: impl FnMut(usize, bool),
    mut between: impl FnMut(),
) -> Phase {
    let t0 = Instant::now();
    let mut paused = 0.0;
    let mut rounds = 0;
    while rounds < max_rounds {
        let elapsed = t0.elapsed().as_secs_f64() - paused;
        if rounds >= min_rounds.max(1)
            && elapsed / rounds as f64 * (rounds + 1) as f64 > opts.seconds
        {
            break;
        }
        if rounds > 0 {
            let pause = Instant::now();
            between();
            paused += pause.elapsed().as_secs_f64();
        }
        rounds += 1;
        round(rounds, opts.trace && rounds % 2 == 0);
    }
    Phase { rounds, elapsed: t0.elapsed().as_secs_f64() - paused }
}

/// The shortest visit of a library class within a round.
pub const MIN_VISIT_S: f64 = 0.02;

/// One visit of a class within a round: repeats `once` until `min_s`
/// seconds have passed or a repeat fails (`once` returns `false`). A class
/// of 5 ms then gets four timed repeats per visit where one of 50 ms gets
/// one, so the short classes, whose fastest repeat is the most exposed to
/// short stalls, collect the most samples.
pub fn visit(min_s: f64, mut once: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while once() && t0.elapsed().as_secs_f64() < min_s {}
}

/// Writes telemetry counts, summed over `cells`, as layer metrics.
pub fn report_counts<'a>(
    cells: impl IntoIterator<Item = &'a CellTelemetry>,
    layers: &mut BTreeMap<String, f64>,
) {
    for c in cells {
        for (name, v) in [
            ("linalg.matmuls", c.matmuls),
            ("linalg.sinkhorn_sweeps", c.sinkhorn_sweeps),
            ("linalg.alloc_bytes_saved", c.alloc_bytes_saved),
            ("linalg.densifications", c.densifications),
            ("linalg.densified_bytes", c.densified_bytes),
            ("assignment.auction_bids", c.auction_bids),
            ("core.solver_iterations", c.iterations),
            ("core.nonconverged", c.nonconverged_runs as u64),
        ] {
            *layers.entry(name.to_string()).or_insert(0.0) += v as f64;
        }
    }
}

/// The traced run's layer metrics: span self time over each class's fastest
/// traced repeat and the fastest set-up repeat, the telemetry counts, and
/// the tracing overhead against the untraced rounds of the same run.
pub fn traced_layers<'a>(
    trace: &Trace,
    plain: &Fastest,
    traced: &Fastest,
    setup_request: u64,
    telemetry: impl IntoIterator<Item = &'a CellTelemetry>,
) -> BTreeMap<String, f64> {
    let mut chosen = traced.best_requests().to_vec();
    chosen.push(setup_request);
    let mut layers = crate::trace::layer_seconds(&trace.spans(), &chosen);
    report_counts(telemetry, &mut layers);
    layers.insert("trace.overhead".into(), traced.pass() / plain.pass() - 1.0);
    layers
}

/// Runs `f` under a fresh telemetry sink and returns what it collected.
pub fn with_sink<T>(f: impl FnOnce() -> T) -> (T, RepTelemetry) {
    let _sink = graphalign_par::telemetry::install(false);
    let out = f();
    (out, graphalign_par::telemetry::drain())
}

/// Whether a one-to-one mapping of `n_source` rows into `n_target`
/// columns is complete, in range and injective.
pub fn injective(mapping: &[usize], n_source: usize, n_target: usize) -> Result<(), String> {
    if mapping.len() != n_source {
        return Err(format!("mapping has {} rows, expected {n_source}", mapping.len()));
    }
    let mut seen = vec![false; n_target];
    for &j in mapping {
        if j >= n_target || std::mem::replace(&mut seen[j], true) {
            return Err(format!("mapping is not injective into {n_target} targets (column {j})"));
        }
    }
    Ok(())
}

/// Everything a workload measured, ready for reporting.
pub struct Outcome {
    /// Fastest set-up repeat, seconds.
    pub setup_s: f64,
    /// Per-class fastest times of the untraced rounds.
    pub classes: Fastest,
    /// Class executions (or requests) per second of the timed phase.
    pub jobs_per_s: f64,
    /// Mean ground-truth accuracy over the scored classes.
    pub accuracy: f64,
    /// Layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// Run context: sizes, threads, k, intervals.
    pub context: Vec<(String, Json)>,
}

impl Outcome {
    /// What a workload reports when its set-up failed: nothing measured.
    pub fn failed(setup_s: f64) -> Self {
        Self {
            setup_s,
            classes: Fastest::new(0),
            jobs_per_s: f64::NAN,
            accuracy: f64::NAN,
            layers: BTreeMap::new(),
            context: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injectivity_gate() {
        assert!(injective(&[2, 0, 1], 3, 3).is_ok());
        assert!(injective(&[2, 0], 2, 3).is_ok());
        assert!(injective(&[1, 1], 2, 3).is_err());
        assert!(injective(&[0, 3], 2, 3).is_err());
        assert!(injective(&[0], 2, 3).is_err());
    }

    #[test]
    fn round_robin_alternates_tracing_and_pauses_between_rounds() {
        let opts = Opts { seed: 1, seconds: 0.0, trace: true };
        let mut order = Vec::new();
        let mut betweens = 0;
        let phase =
            round_robin(&opts, 4, 100, |r, traced| order.push((r, traced)), || betweens += 1);
        // Deadline already passed: exactly the minimum rounds.
        assert_eq!(phase.rounds, 4);
        assert_eq!(order, [(1, false), (2, true), (3, false), (4, true)]);
        assert_eq!(betweens, 3, "before every round after the first");
        // Untraced runs trace no round.
        let untraced = Opts { trace: false, ..opts };
        let mut any = false;
        round_robin(&untraced, 3, 100, |_, traced| any |= traced, || ());
        assert!(!any);
    }

    #[test]
    fn round_robin_stops_at_max_rounds_and_at_the_deadline() {
        let long = Opts { seed: 1, seconds: 3600.0, trace: false };
        assert_eq!(round_robin(&long, 2, 5, |_, _| (), || ()).rounds, 5);
        // Rounds of 100 ms against a 250 ms deadline: a third round would
        // end past it, so two run (the minimum is one).
        let short = Opts { seconds: 0.25, ..long };
        let sleep = |_, _| std::thread::sleep(std::time::Duration::from_millis(100));
        let phase = round_robin(&short, 1, 100, sleep, || ());
        assert_eq!(phase.rounds, 2);
        assert!(phase.elapsed >= 0.2);
        // Time spent between rounds is paused, not counted.
        let pausing = round_robin(&short, 1, 100, sleep, || {
            std::thread::sleep(std::time::Duration::from_millis(150))
        });
        assert_eq!(pausing.rounds, 2);
        assert!(pausing.elapsed < 0.33, "{}", pausing.elapsed);
    }

    #[test]
    fn visit_repeats_short_classes_until_the_minimum_time() {
        let mut n = 0;
        visit(0.0, || {
            n += 1;
            true
        });
        assert_eq!(n, 1, "a long class runs once per visit");
        let mut n = 0;
        visit(3600.0, || {
            n += 1;
            n < 3
        });
        assert_eq!(n, 3, "a failed repeat ends the visit");
        let mut n = 0;
        visit(0.05, || {
            n += 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
            true
        });
        assert_eq!(n, 3, "20 ms repeats: 20, 40, 60 ms");
    }

    #[test]
    fn counts_map_cell_telemetry_to_layer_metrics() {
        let mut cell = CellTelemetry::aggregate(&[]);
        cell.matmuls = 3;
        cell.iterations = 40;
        cell.nonconverged_runs = 1;
        let mut layers = BTreeMap::new();
        report_counts([&cell, &cell], &mut layers);
        assert_eq!(layers["linalg.matmuls"], 6.0);
        assert_eq!(layers["core.solver_iterations"], 80.0);
        assert_eq!(layers["core.nonconverged"], 2.0);
        assert_eq!(layers["linalg.densifications"], 0.0);
    }

    #[test]
    fn setup_keeps_the_fastest_repeat() {
        let (trace, requests) = (Trace::new(false), Requests::default());
        let mut setup = Setup::new(|req, span| {
            assert_eq!(span, None, "no spans without tracing");
            req
        });
        let first = setup.run(&trace, &requests);
        for _ in 0..2 {
            setup.run(&trace, &requests);
        }
        assert_eq!((first, setup.repeats()), (1, 3));
        let (secs, request) = setup.fastest();
        assert!(secs >= 0.0 && (1..=3).contains(&request));
    }
}
