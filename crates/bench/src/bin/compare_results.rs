//! Compares two JSON result files produced by the figure binaries
//! (`--out`), reporting per-cell accuracy deltas — the regression check a
//! CI pipeline runs against a stored baseline — and, when both files carry
//! the `wall_clock`/`threads` fields, the aggregate wall-clock speedup of
//! the candidate over the baseline (e.g. a `--threads 8` run vs a
//! `--threads 1` baseline).
//!
//! ```sh
//! compare_results baseline/fig2_er.json results/fig2_er.json [--tol 0.05]
//! ```
//!
//! Exit code 0 when every baseline cell is present in the candidate and
//! moved by at most the tolerance; 1 when a cell moved more, when a baseline
//! cell is missing from the candidate (a cell that stops being produced
//! cannot hide a regression), or when no cell is comparable; 2 on usage or
//! input errors. Timing differences never fail the check — only quality
//! regressions and lost cells do.

use graphalign_json::Json;
use std::collections::BTreeMap;

/// One comparable cell: the quality measure plus optional timing and
/// telemetry metadata.
struct Cell {
    accuracy: f64,
    wall_clock: Option<f64>,
    threads: Option<usize>,
    /// The cell's `telemetry.converged` flag, when the row carries a
    /// telemetry block (older result files don't).
    converged: Option<bool>,
}

/// Renders a JSON number the way the identifying keys expect (integers
/// without a trailing `.0`).
fn num_key(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn cell_key(v: &Json) -> Option<String> {
    // Works for the sweep-row and scalability-row schemas alike: join all
    // identifying string/low-cardinality fields.
    let mut parts = Vec::new();
    for field in ["workload", "dataset", "variant", "noise", "algorithm", "assignment", "sweep"] {
        if let Some(s) = v.get(field).and_then(|x| x.as_str()) {
            parts.push(format!("{field}={s}"));
        }
    }
    for field in ["level", "n", "k", "p", "avg_degree"] {
        if let Some(x) = v.get(field).and_then(|x| x.as_f64()) {
            parts.push(format!("{field}={}", num_key(x)));
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(","))
    }
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> BTreeMap<String, Cell> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let doc =
        graphalign_json::from_str(&text).unwrap_or_else(|e| fail(format!("{path}: bad JSON: {e}")));
    let rows =
        doc.as_array().unwrap_or_else(|| fail(format!("{path}: expected a JSON array of rows")));
    let mut out = BTreeMap::new();
    for row in rows {
        // Cells without measures — feasibility skips, and cells where every
        // repetition failed (`error_class` set, `reps_ok` 0) — carry zeroed
        // measures and must not be compared as if they were quality data.
        let skipped = row.get("skipped").and_then(|x| x.as_bool()).unwrap_or(false);
        let no_data = match row.get("reps_ok").and_then(|x| x.as_f64()) {
            Some(ok) => ok == 0.0,
            None => row.get("error_class").is_some_and(|x| x.as_str().is_some()),
        };
        if skipped || no_data {
            continue;
        }
        if let (Some(key), Some(accuracy)) =
            (cell_key(row), row.get("accuracy").and_then(|x| x.as_f64()))
        {
            let cell = Cell {
                accuracy,
                wall_clock: row.get("wall_clock").and_then(|x| x.as_f64()),
                threads: row.get("threads").and_then(|x| x.as_f64()).map(|t| t as usize),
                converged: row
                    .get("telemetry")
                    .and_then(|t| t.get("converged"))
                    .and_then(|c| c.as_bool()),
            };
            out.insert(key, cell);
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: compare_results <baseline.json> <candidate.json> [--tol <f64>]");
        std::process::exit(2);
    }
    let mut tol = 0.05;
    if let Some(pos) = args.iter().position(|a| a == "--tol") {
        tol = args.get(pos + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("--tol needs a number");
            std::process::exit(2);
        });
    }
    let baseline = load(&args[0]);
    let candidate = load(&args[1]);
    let mut regressions = 0usize;
    let mut missing = 0usize;
    let mut compared = 0usize;
    let mut base_clock = 0.0;
    let mut cand_clock = 0.0;
    let mut timed = 0usize;
    let mut base_threads: Option<usize> = None;
    let mut cand_threads: Option<usize> = None;
    for (key, base) in &baseline {
        let Some(cand) = candidate.get(key) else {
            println!("MISSING  {key} (baseline {:.3})", base.accuracy);
            missing += 1;
            continue;
        };
        compared += 1;
        let delta = cand.accuracy - base.accuracy;
        if delta.abs() > tol {
            regressions += 1;
            println!(
                "{}  {key}: {:.3} -> {:.3} ({delta:+.3})",
                if delta < 0.0 { "WORSE " } else { "BETTER" },
                base.accuracy,
                cand.accuracy,
            );
        }
        if let (Some(b), Some(c)) = (base.wall_clock, cand.wall_clock) {
            if b > 0.0 && c > 0.0 {
                base_clock += b;
                cand_clock += c;
                timed += 1;
            }
        }
        base_threads = base_threads.or(base.threads);
        cand_threads = cand_threads.or(cand.threads);
    }
    println!(
        "compared {compared} cells, {regressions} moved more than {tol}, {missing} baseline \
         cells missing"
    );
    // Non-convergence summary: cells whose telemetry reports at least one
    // truncated/interrupted solver run. Informational only — the solvers may
    // still produce acceptable alignments (IsoRank's truncated similarity
    // matrices are the paper's own protocol), so these never count as
    // regressions; they explain *why* a quality delta might exist.
    let nonconv: Vec<&String> =
        candidate.iter().filter(|(_, c)| c.converged == Some(false)).map(|(key, _)| key).collect();
    let with_telemetry = candidate.values().filter(|c| c.converged.is_some()).count();
    if with_telemetry > 0 {
        println!(
            "non-convergence: {} of {with_telemetry} candidate cells report unconverged \
             solver runs",
            nonconv.len()
        );
        for key in &nonconv {
            println!("NONCONV  {key}");
        }
    }
    if compared == 0 {
        eprintln!("error: no comparable cells between the two files (wrong baseline?)");
        std::process::exit(1);
    }
    if timed > 0 && cand_clock > 0.0 {
        let label = |t: Option<usize>| t.map_or_else(|| "?".to_string(), |n| n.to_string());
        println!(
            "wall-clock over {timed} timed cells: {base_clock:.2}s ({} threads) -> \
             {cand_clock:.2}s ({} threads), speedup x{:.2}",
            label(base_threads),
            label(cand_threads),
            base_clock / cand_clock,
        );
    }
    std::process::exit(if regressions + missing > 0 { 1 } else { 0 });
}
