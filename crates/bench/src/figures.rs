//! Shared sweep drivers for the figure binaries, one per figure family.
//!
//! Figures 2–6 are the same experiment over five graph models; Figures 7–8
//! are the same experiment over dataset lists
//! ([`SweepSession::quality_sweep`]: algorithms × noise types × noise
//! levels × repetitions, JV assignment, the §6.2 level playing field).
//! Figures 11–12 are one runtime study and Figures 13–14 one memory study
//! over two axes, node count and average degree ([`runtime_sweep`],
//! [`model_bytes_table`]); Figures 15–16 are one accuracy study over
//! Newman–Watts graphs ([`nw_accuracy_sweep`]). Each binary only declares
//! its grid.

use crate::harness::{run_cell, run_cell_traced, run_instance_split, CellResult};
use crate::journal::{CellKey, Journal};
use crate::memprobe::{fmt_bytes, model_bytes, CellRssProbe};
use crate::suite::Algo;
use crate::table::{pct, secs, Table};
use crate::telemetry::TraceRecord;
use crate::Config;
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_graph::Graph;
use graphalign_json::{Json, ToJson};
use graphalign_noise::{NoiseConfig, NoiseModel};

/// One row of a quality-vs-noise sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload label (graph model or dataset name).
    pub workload: String,
    /// Noise model label.
    pub noise: String,
    /// Noise level.
    pub level: f64,
    /// Measured cell.
    pub cell: CellResult,
}

impl ToJson for SweepRow {
    /// Serializes with the cell's fields inlined into the row object (the
    /// flat schema `compare_results` keys on).
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".to_string(), self.workload.to_json()),
            ("noise".to_string(), self.noise.to_json()),
            ("level".to_string(), self.level.to_json()),
        ];
        match self.cell.to_json() {
            Json::Obj(cell_fields) => fields.extend(cell_fields),
            other => fields.push(("cell".to_string(), other)),
        }
        Json::Obj(fields)
    }
}

impl SweepRow {
    /// Parses a row back from its flat JSON object form (journal lines and
    /// `--out` files share this schema). `None` on missing/mistyped fields.
    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Self {
            workload: v.get("workload")?.as_str()?.to_string(),
            noise: v.get("noise")?.as_str()?.to_string(),
            level: v.get("level")?.as_f64()?,
            cell: CellResult::from_json(v)?,
        })
    }
}

/// The noise levels of the low-noise figures (`{0, 0.01, …, 0.05}`;
/// quick mode thins the grid).
pub fn low_noise_levels(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.02, 0.05]
    } else {
        vec![0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    }
}

/// The noise levels of the high-noise figure (`{0, 0.05, …, 0.25}`).
pub fn high_noise_levels(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.1, 0.25]
    } else {
        vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
    }
}

/// A sweep driver bound to one run's configuration, journaling each
/// completed cell when `--out` is given and replaying completed cells when
/// `--resume` is.
///
/// Figure binaries that sweep several workloads against one output file
/// (Figures 7–8) share a single session across datasets, so the journal
/// covers the whole run.
pub struct SweepSession {
    cfg: Config,
    journal: Option<Journal>,
    /// `--trace` sidecar writer: one JSONL [`TraceRecord`] per solver
    /// invocation of every *executed* cell (replayed cells re-run nothing,
    /// so they emit no trace lines).
    trace: Option<std::io::BufWriter<std::fs::File>>,
    replayed: usize,
}

impl SweepSession {
    /// Opens the session: fresh journal for a normal run with `--out`,
    /// loaded journal for `--resume`, no journal without `--out`. Journal
    /// I/O failures are fatal (exit 1) — a checkpoint that silently doesn't
    /// checkpoint is worse than none.
    pub fn new(cfg: &Config) -> Self {
        let journal = cfg.out.as_ref().map(|out| {
            let opened =
                if cfg.resume { Journal::resume(out, cfg.seed) } else { Journal::fresh(out) };
            opened.unwrap_or_else(|e| {
                eprintln!(
                    "error: could not open journal {}: {e}",
                    Journal::path_for(out).display()
                );
                std::process::exit(1);
            })
        });
        if let Some(j) = &journal {
            if cfg.resume && !j.is_empty() {
                println!(
                    "resuming: {} completed cells journaled in {}",
                    j.len(),
                    j.path().display()
                );
            }
        }
        let trace = cfg.trace.as_ref().map(|path| {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("error: could not create trace file {}: {e}", path.display());
                std::process::exit(1);
            });
            std::io::BufWriter::new(file)
        });
        Self { cfg: cfg.clone(), journal, trace, replayed: 0 }
    }

    /// A session that never journals, regardless of `--out` (used by tests
    /// and callers that manage output themselves).
    pub fn without_journal(cfg: &Config) -> Self {
        Self { cfg: cfg.clone(), journal: None, trace: None, replayed: 0 }
    }

    /// Cells replayed from the journal instead of executed.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The row of cell `key`: replayed from the journal when a run recorded
    /// it there, without calling `run`; otherwise `run`'s row, recorded.
    pub fn journaled_cell(
        &mut self,
        key: CellKey,
        run: impl FnOnce(&mut Self) -> SweepRow,
    ) -> SweepRow {
        if let Some(done) = self.journal.as_ref().and_then(|j| j.lookup(&key)) {
            self.replayed += 1;
            return done.clone();
        }
        let row = run(self);
        if let Some(j) = self.journal.as_mut() {
            if let Err(e) = j.record(key, &row) {
                eprintln!("error: could not append to {}: {e}", j.path().display());
                std::process::exit(1);
            }
        }
        row
    }

    /// Runs the Figures 2–7 protocol: every algorithm × every noise model ×
    /// every level on one base graph, JV assignment, averaged over
    /// `reps` — journaling/replaying each cell through this session.
    pub fn quality_sweep(
        &mut self,
        workload: &str,
        base: &Graph,
        dense_dataset: bool,
        noise_models: &[NoiseModel],
        levels: &[f64],
        paper_reps: usize,
    ) -> Vec<SweepRow> {
        let policy = self.cfg.policy(paper_reps);
        let method = AssignmentMethod::JonkerVolgenant;
        let mut rows = Vec::new();
        for algo in Algo::ALL {
            for &model in noise_models {
                for &level in levels {
                    let key = CellKey::new(
                        workload,
                        algo.name(),
                        method.label(),
                        model.label(),
                        level,
                        self.cfg.seed,
                        policy.reps,
                    );
                    rows.push(self.journaled_cell(key, |session| {
                        let noise = NoiseConfig::new(model, level);
                        let (cell, series) =
                            run_cell_traced(algo, base, dense_dataset, &noise, method, &policy);
                        if let Some(w) = session.trace.as_mut() {
                            use std::io::Write;
                            for (rep, s) in &series {
                                let record = TraceRecord {
                                    workload: workload.into(),
                                    algorithm: algo.name().into(),
                                    assignment: method.label().into(),
                                    noise: model.label().into(),
                                    level,
                                    rep: *rep,
                                    routine: s.routine.into(),
                                    iterations: s.convergence.iterations,
                                    residual: s.convergence.residual,
                                    converged: s.convergence.converged,
                                    stop: s.convergence.stop.as_str().into(),
                                    residuals: s.residuals.clone(),
                                };
                                let line = graphalign_json::to_string_compact(&record);
                                if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                                    eprintln!("error: could not append to trace file: {e}");
                                    std::process::exit(1);
                                }
                            }
                        }
                        SweepRow {
                            workload: workload.into(),
                            noise: model.label().into(),
                            level,
                            cell,
                        }
                    }));
                }
            }
        }
        rows
    }
}

/// Renders sweep rows as the standard figure table (accuracy, S³, MNC —
/// the three panels of Figures 2–6), followed by one accuracy-vs-noise
/// ASCII chart per noise model (the figure's visual shape).
pub fn print_sweep(title: &str, rows: &[SweepRow]) {
    println!("{title}");
    let mut t = Table::new(&[
        "workload",
        "algorithm",
        "noise",
        "level",
        "accuracy",
        "S3",
        "MNC",
        "time",
        "status",
    ]);
    for r in rows {
        let no_measures = r.cell.skipped || r.cell.reps_ok == 0;
        let status = if r.cell.skipped {
            "skip".to_string()
        } else if let Some(class) = &r.cell.error_class {
            if r.cell.reps_ok > 0 {
                // Partial cell: averages over the reps that succeeded.
                format!("{class} ({}/{} ok)", r.cell.reps_ok, r.cell.reps)
            } else {
                class.clone()
            }
        } else {
            "ok".to_string()
        };
        if no_measures {
            t.row(&[
                r.workload.clone(),
                r.cell.algorithm.clone(),
                r.noise.clone(),
                format!("{:.2}", r.level),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                status,
            ]);
        } else {
            t.row(&[
                r.workload.clone(),
                r.cell.algorithm.clone(),
                r.noise.clone(),
                format!("{:.2}", r.level),
                pct(r.cell.accuracy.unwrap_or(0.0)),
                pct(r.cell.s3.unwrap_or(0.0)),
                pct(r.cell.mnc.unwrap_or(0.0)),
                secs(r.cell.seconds.unwrap_or(0.0)),
                status,
            ]);
        }
    }
    t.print();
    // One chart per (workload, noise model): accuracy vs noise level.
    let mut seen: Vec<(String, String)> = Vec::new();
    for r in rows {
        let key = (r.workload.clone(), r.noise.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key.clone());
        let chart_rows: Vec<(String, f64, f64)> = rows
            .iter()
            .filter(|x| {
                x.workload == key.0 && x.noise == key.1 && !x.cell.skipped && x.cell.reps_ok > 0
            })
            .map(|x| (x.cell.algorithm.clone(), x.level, x.cell.accuracy.unwrap_or(0.0)))
            .collect();
        if chart_rows.is_empty() {
            continue;
        }
        let series = crate::plot::series_from_rows(&chart_rows);
        println!();
        print!(
            "{}",
            crate::plot::line_chart(
                &format!("accuracy vs noise — {} / {}", key.0, key.1),
                &series,
                60,
                12,
            )
        );
    }
}

/// The x-axis of a scalability figure (§6.6): node count at a fixed average
/// degree (Figures 11 and 13) or average degree at a fixed node count
/// (Figures 12 and 14).
#[derive(Debug, Clone, Copy)]
pub enum ScaleAxis {
    /// The node count varies on graphs of this average degree.
    Nodes(usize),
    /// The average degree varies on graphs of this many nodes.
    Degree(usize),
}

impl ScaleAxis {
    /// `(node count, average degree)` at axis value `x`.
    fn point(self, x: usize) -> (usize, usize) {
        match self {
            ScaleAxis::Nodes(avg_degree) => (x, avg_degree),
            ScaleAxis::Degree(n) => (n, x),
        }
    }

    /// The axis' table column, and its name in warnings.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            ScaleAxis::Nodes(_) => ("n", "n"),
            ScaleAxis::Degree(_) => ("avg_degree", "deg"),
        }
    }
}

/// One cell of a similarity-runtime sweep (Figures 11–12).
#[derive(Debug, Clone, Default)]
pub struct RuntimeRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Node count.
    pub n: usize,
    /// Average degree on the degree axis; the node axis leaves it out of
    /// its rows.
    pub avg_degree: Option<usize>,
    /// Mean similarity seconds over the repetitions (0 when none finished).
    pub seconds: f64,
    /// Peak-RSS growth attributable to this cell (see [`CellRssProbe`]);
    /// `None` when `/proc` is unavailable.
    pub rss_delta_bytes: Option<usize>,
    /// Representation the algorithm's similarity used (`"dense"`,
    /// `"lowrank"`, `"sparse"`); `None` when the cell never produced one.
    pub similarity_repr: Option<String>,
    /// Bytes the similarity payload occupies in that representation.
    pub similarity_bytes: Option<usize>,
    /// Whether the cell exceeded the algorithm's feasibility caps.
    pub skipped: bool,
    /// Failure class (`"infeasible"` for a skipped cell).
    pub error_class: Option<String>,
}

impl ToJson for RuntimeRow {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("algorithm".to_string(), self.algorithm.to_json()),
            ("n".into(), self.n.to_json()),
        ];
        if let Some(d) = self.avg_degree {
            fields.push(("avg_degree".into(), d.to_json()));
        }
        fields.extend([
            ("seconds".into(), self.seconds.to_json()),
            ("rss_delta_bytes".into(), self.rss_delta_bytes.to_json()),
            ("similarity_repr".into(), self.similarity_repr.to_json()),
            ("similarity_bytes".into(), self.similarity_bytes.to_json()),
            ("skipped".into(), self.skipped.to_json()),
            ("error_class".into(), self.error_class.to_json()),
        ]);
        Json::Obj(fields)
    }
}

/// Runs the Figures 11–12 protocol and prints its table: at each axis value
/// `x`, every algorithm but GRAAL (the paper excludes it for its quintic
/// preprocessing) computes the similarity of `base_graph(x)` against
/// permuted copies seeded `seed + r`, and the similarity phase alone is
/// timed (§6.6 excludes assignment) and averaged over the repetitions.
/// Writes the rows to `--out`.
pub fn runtime_sweep(
    cfg: &Config,
    axis: ScaleAxis,
    values: &[usize],
    base_graph: impl Fn(usize) -> Graph,
) {
    let reps = cfg.reps(5);
    let (column, name) = axis.names();
    let mut t = Table::new(&["algorithm", column, "time(similarity)", "rss"]);
    let mut rows = Vec::new();
    for &x in values {
        let base = base_graph(x);
        let n = axis.point(x).0;
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Graal) {
            let mut row = RuntimeRow {
                algorithm: algo.name().into(),
                n,
                avg_degree: matches!(axis, ScaleAxis::Degree(_)).then_some(x),
                ..RuntimeRow::default()
            };
            if !algo.feasible(n, base.avg_degree(), cfg.quick) {
                t.row(&[algo.name().into(), x.to_string(), "skip (>budget)".into(), "-".into()]);
                row.skipped = true;
                row.error_class = Some("infeasible".into());
                rows.push(row);
                continue;
            }
            // One budget per cell for `--cell-timeout`.
            let _budget = graphalign_par::budget::install(
                cfg.cell_timeout.map(std::time::Duration::from_secs_f64),
            );
            let probe = CellRssProbe::begin();
            let mut total = 0.0;
            for r in 0..reps {
                let inst = AlignmentInstance::permuted(base.clone(), cfg.seed + r as u64);
                match run_instance_split(algo, true, &inst, AssignmentMethod::NearestNeighbor) {
                    Ok((_, s, stats)) => {
                        total += s;
                        row.similarity_repr = Some(stats.repr.to_string());
                        row.similarity_bytes = Some(stats.bytes);
                    }
                    Err(e) => {
                        eprintln!("warning: {} at {name}={x}: {e}", algo.name());
                        row.error_class = Some(e.class.as_str().into());
                        break;
                    }
                }
            }
            row.rss_delta_bytes = probe.delta_bytes();
            let time = match &row.error_class {
                Some(class) => class.clone(),
                None => {
                    row.seconds = total / reps as f64;
                    secs(row.seconds)
                }
            };
            let rss = row.rss_delta_bytes.map_or_else(|| "-".into(), fmt_bytes);
            t.row(&[algo.name().into(), x.to_string(), time, rss]);
            rows.push(row);
        }
    }
    t.print();
    cfg.write_json(&rows);
}

/// One row of a model-bytes table (Figures 13–14).
#[derive(Debug, Clone)]
pub struct ModelBytesRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Node count.
    pub n: usize,
    /// The graph's size as each figure records it: `("m", edges)` on the
    /// node axis, `("avg_degree", degree)` on the degree axis.
    pub size: (&'static str, usize),
    /// Analytic model bytes ([`model_bytes`]).
    pub model_bytes: usize,
    /// Whether the model fits the paper testbed's 256 GB.
    pub fits_256gb: bool,
}

impl ToJson for ModelBytesRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("algorithm".into(), self.algorithm.to_json()),
            ("n".into(), self.n.to_json()),
            (self.size.0.into(), self.size.1.to_json()),
            ("model_bytes".into(), self.model_bytes.to_json()),
            ("fits_256gb".into(), self.fits_256gb.to_json()),
        ])
    }
}

/// Prints the Figures 13–14 table: the analytic model bytes of every
/// algorithm but GRAAL at each axis value, on graphs of `m = n·d/2` edges,
/// against the paper testbed's 256 GB, then the process's peak-RSS growth
/// while tabulating. Writes the rows to `--out`.
pub fn model_bytes_table(cfg: &Config, axis: ScaleAxis, values: &[usize]) {
    let probe = CellRssProbe::begin();
    let budget: usize = 256 * 1024 * 1024 * 1024;
    let mut t = Table::new(&["algorithm", axis.names().0, "model bytes", "fits 256GB"]);
    let mut rows = Vec::new();
    for &x in values {
        let (n, d) = axis.point(x);
        let m = n * d / 2;
        let size = match axis {
            ScaleAxis::Nodes(_) => ("m", m),
            ScaleAxis::Degree(_) => ("avg_degree", d),
        };
        for algo in Algo::ALL.into_iter().filter(|&a| a != Algo::Graal) {
            let bytes = model_bytes(algo, n, m);
            let fits = bytes <= budget;
            t.row(&[
                algo.name().into(),
                x.to_string(),
                fmt_bytes(bytes),
                if fits { "yes".into() } else { "NO".into() },
            ]);
            rows.push(ModelBytesRow {
                algorithm: algo.name().into(),
                n,
                size,
                model_bytes: bytes,
                fits_256gb: fits,
            });
        }
    }
    t.print();
    if let Some(delta) = probe.delta_bytes() {
        println!("peak RSS growth while tabulating: {}", fmt_bytes(delta));
    }
    cfg.write_json(&rows);
}

/// One Newman–Watts graph of the density study (Figures 15–16).
#[derive(Debug, Clone, Copy)]
pub struct NwGraph {
    /// Node count.
    pub n: usize,
    /// Ring neighbors per node.
    pub k: usize,
    /// Shortcut probability.
    pub p: f64,
    /// Generator seed.
    pub seed: u64,
}

/// A field of [`NwGraph`] (`n`, `k` or `p`), as a table column or chart
/// axis.
#[derive(Debug, Clone, Copy)]
pub enum NwParam {
    N,
    K,
    P,
}

impl NwParam {
    fn name(self) -> &'static str {
        match self {
            NwParam::N => "n",
            NwParam::K => "k",
            NwParam::P => "p",
        }
    }

    fn value(self, g: &NwGraph) -> f64 {
        match self {
            NwParam::N => g.n as f64,
            NwParam::K => g.k as f64,
            NwParam::P => g.p,
        }
    }

    fn label(self, g: &NwGraph) -> String {
        match self {
            NwParam::N => g.n.to_string(),
            NwParam::K => g.k.to_string(),
            NwParam::P => format!("{:.2}", g.p),
        }
    }
}

/// One sweep of a density figure.
#[derive(Debug, Clone)]
pub struct NwSweep {
    /// The sweep's name in the table.
    pub label: &'static str,
    /// The sweep's name in the JSON rows and its chart title.
    pub key: &'static str,
    /// The x-axis of the sweep's accuracy chart.
    pub chart_x: NwParam,
    /// The graphs, in sweep order.
    pub graphs: Vec<NwGraph>,
}

/// One cell of a density sweep.
#[derive(Debug, Clone)]
pub struct NwRow {
    /// The sweep's JSON name.
    pub sweep: String,
    /// The figure's parameter column, recorded after the sweep name.
    pub column: NwParam,
    /// The graph the cell aligned.
    pub graph: NwGraph,
    /// Measured cell.
    pub cell: CellResult,
}

impl ToJson for NwRow {
    fn to_json(&self) -> Json {
        let c = &self.cell;
        Json::Obj(vec![
            ("sweep".into(), self.sweep.to_json()),
            (self.column.name().into(), self.column.value(&self.graph).to_json()),
            ("k".into(), self.graph.k.to_json()),
            ("algorithm".into(), c.algorithm.to_json()),
            ("accuracy".into(), c.accuracy.to_json()),
            ("wall_clock".into(), c.wall_clock.to_json()),
            ("threads".into(), c.threads.to_json()),
            ("skipped".into(), c.skipped.to_json()),
            ("reps_ok".into(), c.reps_ok.to_json()),
            ("error_class".into(), c.error_class.to_json()),
        ])
    }
}

/// Runs the Figures 15–16 protocol (§6.7): every algorithm aligns each
/// sweep's graphs under 1 % one-way noise with JV assignment over 5 paper
/// repetitions. Prints the table, whose second column is `column`, and one
/// accuracy chart per sweep titled `chart_title(key)`; writes the rows to
/// `--out`.
pub fn nw_accuracy_sweep(
    cfg: &Config,
    column: NwParam,
    sweeps: &[NwSweep],
    chart_title: impl Fn(&str) -> String,
) {
    let noise = NoiseConfig::new(NoiseModel::OneWay, 0.01);
    let policy = cfg.policy(5);
    let mut t = Table::new(&["sweep", column.name(), "k", "algorithm", "accuracy"]);
    let mut rows = Vec::new();
    for sweep in sweeps {
        for graph in &sweep.graphs {
            let base = graphalign_gen::newman_watts(graph.n, graph.k, graph.p, graph.seed);
            for algo in Algo::ALL {
                let method = AssignmentMethod::JonkerVolgenant;
                let cell = run_cell(algo, &base, true, &noise, method, &policy);
                t.row(&[
                    sweep.label.into(),
                    column.label(graph),
                    graph.k.to_string(),
                    cell.algorithm.clone(),
                    match cell.accuracy {
                        Some(a) if !cell.skipped => pct(a),
                        _ => "-".into(),
                    },
                ]);
                rows.push(NwRow { sweep: sweep.key.into(), column, graph: *graph, cell });
            }
        }
    }
    t.print();
    for sweep in sweeps {
        let chart_rows: Vec<(String, f64, f64)> = rows
            .iter()
            .filter(|r| r.sweep == sweep.key && !r.cell.skipped && r.cell.reps_ok > 0)
            .map(|r| {
                let x = sweep.chart_x.value(&r.graph);
                (r.cell.algorithm.clone(), x, r.cell.accuracy.unwrap_or(0.0))
            })
            .collect();
        if chart_rows.is_empty() {
            continue;
        }
        let series = crate::plot::series_from_rows(&chart_rows);
        println!();
        print!("{}", crate::plot::line_chart(&chart_title(sweep.key), &series, 60, 12));
    }
    cfg.write_json(&rows);
}

/// Prints the per-figure header line (mode, seed, workload sizes).
pub fn banner(figure: &str, cfg: &Config, note: &str) {
    println!(
        "== {figure} [{} mode, seed {}] {note}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed
    );
    if cfg.quick {
        println!("   (quick mode runs a scaled-down grid; pass --full for the paper-scale grid)");
    }
}

/// The synthetic-model workloads of Figures 2–6, at quick or paper scale.
/// Returns `(label, graph, dense_dataset)`.
pub fn model_graph(model: &str, cfg: &Config) -> (String, Graph, bool) {
    use graphalign_gen as gen;
    // Paper: n = 1133 for all five models (§6.3); quick mode: n = 300.
    let n = if cfg.quick { 300 } else { 1133 };
    let seed = cfg.seed ^ 0x9e3779b97f4a7c15;
    // The paper's ER probability (p = 0.009) is calibrated to n = 1133
    // (average degree ≈ 10); quick mode rescales p to preserve that average
    // degree, otherwise the scaled-down ER graph is disconnected and every
    // algorithm's behaviour changes qualitatively.
    let er_p = 0.009 * 1132.0 / (n as f64 - 1.0);
    let g = match model {
        "ER" => gen::erdos_renyi(n, er_p, seed),
        "BA" => gen::barabasi_albert(n, 5, seed),
        "WS" => gen::watts_strogatz(n, 10, 0.5, seed),
        "NW" => gen::newman_watts(n, 7, 0.5, seed),
        "PL" => gen::powerlaw_cluster(n, 5, 0.5, seed),
        other => panic!("unknown model {other}"),
    };
    (format!("{model}(n={n})"), g, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_grids_match_the_paper_in_full_mode() {
        assert_eq!(low_noise_levels(false), vec![0.0, 0.01, 0.02, 0.03, 0.04, 0.05]);
        assert_eq!(high_noise_levels(false).last(), Some(&0.25));
        assert!(low_noise_levels(true).len() < low_noise_levels(false).len());
    }

    #[test]
    fn model_graphs_have_requested_sizes() {
        let cfg = Config::default();
        for m in ["ER", "BA", "WS", "NW", "PL"] {
            let (label, g, _) = model_graph(m, &cfg);
            assert_eq!(g.node_count(), 300, "{label}");
            assert!(g.edge_count() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        model_graph("XX", &Config::default());
    }

    #[test]
    fn figure_rows_keep_the_fields_each_figure_writes() {
        // One row per figure, 11–16: the compact form of a row from each
        // binary's quick-mode `--out` file, timing values replaced.
        let fig11 = RuntimeRow {
            algorithm: "GWL".into(),
            n: 512,
            skipped: true,
            error_class: Some("infeasible".into()),
            ..RuntimeRow::default()
        };
        let fig12 = RuntimeRow {
            algorithm: "IsoRank".into(),
            n: 512,
            avg_degree: Some(10),
            seconds: 0.25,
            rss_delta_bytes: Some(4096),
            similarity_repr: Some("dense".into()),
            similarity_bytes: Some(2097152),
            ..RuntimeRow::default()
        };
        let fig13 = ModelBytesRow {
            algorithm: "IsoRank".into(),
            n: 256,
            size: ("m", 1280),
            model_bytes: 1617936,
            fits_256gb: true,
        };
        let fig14 = ModelBytesRow {
            n: 1024,
            size: ("avg_degree", 10),
            model_bytes: 25346064,
            ..fig13.clone()
        };
        let cell = |accuracy| CellResult {
            accuracy: Some(accuracy),
            wall_clock: 1.5,
            threads: 2,
            reps: 3,
            reps_ok: 3,
            skipped: false,
            error_class: None,
            ..CellResult::skipped("IsoRank", "JV")
        };
        let fig15 = NwRow {
            sweep: "vary_k".into(),
            column: NwParam::P,
            graph: NwGraph { n: 300, k: 10, p: 0.5, seed: 2023 ^ 10 },
            cell: cell(0.9277777777777777),
        };
        let fig16 = NwRow {
            sweep: "fixed degree (k=10)".into(),
            column: NwParam::N,
            graph: NwGraph { n: 100, k: 10, p: 0.5, seed: 2023 ^ 3110 },
            cell: cell(0.9866666666666667),
        };
        let compact = |row: &dyn ToJson| row.to_json().to_string_compact();
        assert_eq!(
            compact(&fig11),
            r#"{"algorithm":"GWL","n":512,"seconds":0,"rss_delta_bytes":null,"similarity_repr":null,"similarity_bytes":null,"skipped":true,"error_class":"infeasible"}"#
        );
        assert_eq!(
            compact(&fig12),
            r#"{"algorithm":"IsoRank","n":512,"avg_degree":10,"seconds":0.25,"rss_delta_bytes":4096,"similarity_repr":"dense","similarity_bytes":2097152,"skipped":false,"error_class":null}"#
        );
        assert_eq!(
            compact(&fig13),
            r#"{"algorithm":"IsoRank","n":256,"m":1280,"model_bytes":1617936,"fits_256gb":true}"#
        );
        assert_eq!(
            compact(&fig14),
            r#"{"algorithm":"IsoRank","n":1024,"avg_degree":10,"model_bytes":25346064,"fits_256gb":true}"#
        );
        assert_eq!(
            compact(&fig15),
            r#"{"sweep":"vary_k","p":0.5,"k":10,"algorithm":"IsoRank","accuracy":0.9277777777777777,"wall_clock":1.5,"threads":2,"skipped":false,"reps_ok":3,"error_class":null}"#
        );
        assert_eq!(
            compact(&fig16),
            r#"{"sweep":"fixed degree (k=10)","n":100,"k":10,"algorithm":"IsoRank","accuracy":0.9866666666666667,"wall_clock":1.5,"threads":2,"skipped":false,"reps_ok":3,"error_class":null}"#
        );
    }

    #[test]
    fn journaled_cells_replay_without_running_and_record_once() {
        let dir = std::env::temp_dir().join(format!("ga-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.json");
        let cfg = Config { out: Some(out.clone()), ..Config::default() };
        let key = || CellKey::new("t", "IsoRank", "JV", "One-Way", 0.0, cfg.seed, 1);
        let row = || SweepRow {
            workload: "t".into(),
            noise: "One-Way".into(),
            level: 0.0,
            cell: CellResult::skipped("IsoRank", "JV"),
        };
        let mut runs = 0;
        let mut session = SweepSession::new(&cfg);
        let first = session.journaled_cell(key(), |_| {
            runs += 1;
            row()
        });
        let again = session.journaled_cell(key(), |_| {
            runs += 1;
            row()
        });
        assert_eq!((runs, session.replayed()), (1, 1), "a recorded cell replays within the run");
        drop(session);

        let mut resumed = SweepSession::new(&Config { resume: true, ..cfg.clone() });
        let back = resumed.journaled_cell(key(), |_| {
            runs += 1;
            row()
        });
        assert_eq!((runs, resumed.replayed()), (1, 1), "a journaled cell replays on --resume");
        let compact = graphalign_json::to_string_compact::<SweepRow>;
        assert_eq!(compact(&again), compact(&first));
        assert_eq!(compact(&back), compact(&first));
        let journal = std::fs::read_to_string(Journal::path_for(&out)).unwrap();
        assert_eq!(journal.lines().count(), 1, "the cell is recorded exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quality_sweep_covers_the_grid() {
        // One tiny sweep cell end-to-end: a single level, a single model,
        // every algorithm (tiny graph keeps the runtime trivial).
        let g = graphalign_gen::powerlaw_cluster(60, 3, 0.5, 1);
        let cfg = Config { seed: 1, ..Config::default() };
        let rows = SweepSession::without_journal(&cfg).quality_sweep(
            "t",
            &g,
            true,
            &[NoiseModel::OneWay],
            &[0.0],
            1,
        );
        assert_eq!(rows.len(), Algo::ALL.len());
        for r in &rows {
            assert!(!r.cell.skipped, "{} skipped on a 60-node graph", r.cell.algorithm);
            assert!(r.cell.accuracy.expect("measures present") >= 0.0);
            let t = r.cell.telemetry.as_ref().expect("telemetry present");
            assert!(t.phases.iter().any(|(n, _)| n == "similarity"), "{}", r.cell.algorithm);
        }
    }
}
