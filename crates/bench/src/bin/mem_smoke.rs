//! CI memory smoke: one embedding-method cell at Figure-13 scale must run
//! entirely on the factored similarity.
//!
//! Runs REGAL (a `Similarity::LowRank` emitter) on a configuration-model
//! instance at the Figure-13 quick-grid ceiling and executes the NN and SG
//! assignments through the production [`Aligner::align_with`] path. The
//! process exits non-zero if the densification telemetry shows *any*
//! `Similarity::to_dense` call — i.e. if a dense `n × n` matrix was ever
//! materialized where the factored fast paths should have run.
//!
//! Flags: the shared set (`--quick`/`--full` pick `n = 2¹²` vs `n = 2¹⁴`,
//! `--seed`, `--threads`).

use graphalign::regal::Regal;
use graphalign::Aligner;
use graphalign_assignment::AssignmentMethod;
use graphalign_bench::figures::banner;
use graphalign_bench::memprobe::{fmt_bytes, CellRssProbe};
use graphalign_bench::{xl, Config};
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_linalg::Similarity;
use graphalign_par::telemetry;

/// The `--scale xl` gate: every XL roster member must run its similarity
/// phase end-to-end on a streamed instance with **zero** densifications and
/// a per-cell peak-RSS delta within the tier's enforced `O(n·d)` budget
/// ([`xl::budget_bytes`]). Either violation exits non-zero — this is the
/// machine check behind the tier's "never densify" claim.
fn run_xl(cfg: &Config) {
    banner(
        "Memory smoke XL (enforced O(n·d) budget)",
        cfg,
        "streamed instances, full XL roster, zero-densification + RSS gate",
    );
    let n = if cfg.quick { 1 << 15 } else { 1 << 20 };
    let budget = xl::budget_bytes(n);
    let slice = if cfg.quick { xl::XL_EVAL_SLICE_QUICK } else { xl::XL_EVAL_SLICE };
    let inst = xl::instance(n, cfg.seed).expect("streamed XL instance");
    println!(
        "n={n}, budget {} (a dense n×n would be {})",
        fmt_bytes(budget),
        fmt_bytes(Similarity::dense_bytes(n, n)),
    );
    let mut failed = false;
    for algo in xl::XlAlgo::ALL {
        let m = xl::run_cell(
            algo,
            &inst,
            slice,
            cfg.cell_timeout.map(std::time::Duration::from_secs_f64),
        );
        let rss = m.rss_delta_bytes;
        println!(
            "{} + NN[0..{slice}]: seconds={} acc@slice={} densifications={} rss_delta={}",
            algo.name(),
            m.cell.seconds.map_or_else(|| "-".into(), |s| format!("{s:.2}")),
            m.cell.accuracy.map_or_else(|| "-".into(), |a| format!("{a:.4}")),
            m.densifications,
            rss.map_or_else(|| "unreadable".into(), fmt_bytes),
        );
        if let Some(e) = &m.cell.error {
            eprintln!("FAIL: {} did not complete: {e}", algo.name());
            failed = true;
            continue;
        }
        if m.densifications != 0 {
            eprintln!(
                "FAIL: {} materialized a dense matrix {} time(s) — the XL tier must stay factored",
                algo.name(),
                m.densifications
            );
            failed = true;
        }
        // The RSS gate: `None` (no /proc) degrades to the densification-only
        // check rather than passing vacuously *and* silently.
        match rss {
            Some(delta) if delta > budget => {
                eprintln!(
                    "FAIL: {} peak-RSS delta {} exceeds the O(n·d) budget {}",
                    algo.name(),
                    fmt_bytes(delta),
                    fmt_bytes(budget)
                );
                failed = true;
            }
            Some(_) => {}
            None => eprintln!(
                "note: /proc unavailable — RSS gate for {} degraded to the \
                 densification check",
                algo.name()
            ),
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ok: XL roster stayed factored and within the O(n·d) peak-RSS budget");
}

fn main() {
    let cfg = Config::from_args();
    if cfg.xl {
        run_xl(&cfg);
        return;
    }
    banner("Memory smoke (factored assignment)", &cfg, "REGAL at the fig13 grid scale");
    let n = if cfg.quick { 1 << 12 } else { 1 << 14 };
    let dense_footprint = Similarity::dense_bytes(n, n);
    let seq = graphalign_gen::degrees::normal(n, 10.0, 2.5, cfg.seed);
    let base = graphalign_gen::configuration_model(&seq, cfg.seed ^ n as u64);
    let inst = AlignmentInstance::permuted(base, cfg.seed);

    let probe = CellRssProbe::begin();
    let mut failed = false;
    for method in [AssignmentMethod::NearestNeighbor, AssignmentMethod::SortGreedy] {
        let _ = telemetry::drain(); // isolate this cell's counters
        let matching = Regal::default()
            .align_with(&inst.source, &inst.target, method)
            .expect("REGAL runs at smoke scale");
        assert_eq!(matching.len(), n, "matching must cover every source node");
        let t = telemetry::drain();
        println!(
            "REGAL + {}: densifications={} densified_bytes={}",
            method.label(),
            t.densifications,
            fmt_bytes(t.densified_bytes as usize),
        );
        if t.densifications != 0 {
            eprintln!(
                "FAIL: REGAL + {} materialized a dense matrix ({} — the factored \
                 path must stay under the {} a dense n×n would cost)",
                method.label(),
                fmt_bytes(t.densified_bytes as usize),
                fmt_bytes(dense_footprint),
            );
            failed = true;
        }
    }
    let factored_delta = probe.delta_bytes();
    if let Some(delta) = factored_delta {
        println!(
            "peak RSS growth across the factored cell: {} (a dense n×n similarity \
             alone would be {})",
            fmt_bytes(delta),
            fmt_bytes(dense_footprint),
        );
    }

    // Reference pass: what every cell paid before the pipeline went
    // factored — materialize the dense n×n similarity and assign on it.
    let probe = CellRssProbe::begin();
    let sim =
        Regal::default().similarity(&inst.source, &inst.target).expect("REGAL runs at smoke scale");
    let payload = sim.approx_bytes();
    let dense = Similarity::Dense(sim.into_dense());
    let matching = graphalign_assignment::assign(&dense, AssignmentMethod::NearestNeighbor);
    assert_eq!(matching.len(), n);
    if let Some(before) = probe.delta_bytes() {
        println!("dense-reference pass peak RSS growth: {}", fmt_bytes(before));
    }
    // RSS deltas within one process are allocator-order biased (the first
    // pass pays all cold arena growth), so the exact payload accounting is
    // the comparison that matters:
    println!(
        "n={n}: similarity payload {} factored vs {} densified",
        fmt_bytes(payload),
        fmt_bytes(dense.approx_bytes()),
    );

    if failed {
        std::process::exit(1);
    }
    println!("ok: no densifications on the embedding-method NN/SG paths");
}
