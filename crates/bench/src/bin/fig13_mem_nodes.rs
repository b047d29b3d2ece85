//! Regenerates **Figure 13**: memory vs node count on configuration-model
//! graphs with average degree 10 (paper §6.6). Reports the analytic
//! model-level byte footprint per algorithm (dominant matrices/embeddings)
//! plus the process peak RSS; DESIGN.md §3.8 documents the substitution for
//! whole-process RSS measurement.

use graphalign_bench::figures::{banner, model_bytes_table, ScaleAxis};
use graphalign_bench::memprobe::{fmt_bytes, CellRssProbe};
use graphalign_bench::table::Table;
use graphalign_bench::{xl, Config};

/// The `--scale xl` branch: analytic model bytes for the XL roster at the XL
/// node grid, checked against the tier's enforced `O(n·d)` budget
/// ([`xl::budget_bytes`]) instead of the paper testbed's 256 GB. Sparse
/// objects (CSR adjacencies, LREA-style candidate lists) are accounted at
/// their nnz footprint throughout, so these rows are truthful at n = 10⁶.
fn run_xl(cfg: &Config) {
    let probe = CellRssProbe::begin();
    banner(
        "Figure 13 XL (memory vs node count, never-densify tier)",
        cfg,
        "ring+chords avg degree 10, O(n·d) budget",
    );
    let mut t = Table::new(&["algorithm", "n", "model bytes", "n·d budget", "fits"]);
    let mut rows = Vec::new();
    for n in xl::node_grid(cfg.quick) {
        let m = (n as f64 * xl::XL_AVG_DEGREE / 2.0) as usize;
        let budget = xl::budget_bytes(n);
        for algo in xl::XlAlgo::ALL {
            let bytes = algo.model_bytes(n, m);
            let fits = bytes <= budget;
            t.row(&[
                algo.name().into(),
                n.to_string(),
                fmt_bytes(bytes),
                fmt_bytes(budget),
                if fits { "yes".into() } else { "NO".into() },
            ]);
            rows.push(graphalign_json::json!({
                "algorithm": algo.name(),
                "n": n,
                "m": m,
                "model_bytes": bytes,
                "budget_bytes": budget,
                "fits_nd_budget": fits,
            }));
        }
        // The contrast row the figure exists for: any dense n×n object.
        let dense = graphalign_linalg::Similarity::dense_bytes(n, n);
        t.row(&[
            "(dense n×n)".into(),
            n.to_string(),
            fmt_bytes(dense),
            fmt_bytes(budget),
            if dense <= budget { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    if let Some(delta) = probe.delta_bytes() {
        println!("peak RSS growth while tabulating: {}", fmt_bytes(delta));
    }
    cfg.write_json(&rows);
}

fn main() {
    let cfg = Config::from_args();
    if cfg.xl {
        run_xl(&cfg);
        return;
    }
    banner("Figure 13 (memory vs node count)", &cfg, "configuration model, avg degree 10");
    let nodes: Vec<usize> = if cfg.quick {
        vec![1 << 8, 1 << 10, 1 << 12]
    } else {
        (10..=16).map(|e| 1 << e).collect()
    };
    model_bytes_table(&cfg, ScaleAxis::Nodes(10), &nodes);
}
