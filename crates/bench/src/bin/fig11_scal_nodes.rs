//! Regenerates **Figure 11**: similarity-phase runtime vs node count on
//! configuration-model graphs with normal degree distribution and average
//! degree 10 (paper §6.6; n = 2¹⁰ … 2¹⁶, assignment time excluded, 5 runs,
//! GRAAL excluded for its quintic preprocessing).

use graphalign_bench::figures::{banner, runtime_sweep, ScaleAxis, SweepRow, SweepSession};
use graphalign_bench::journal::CellKey;
use graphalign_bench::memprobe::fmt_bytes;
use graphalign_bench::table::{secs, Table};
use graphalign_bench::{xl, Config};

/// The `--scale xl` branch: the streamed never-densify tier. Instances come
/// from [`xl::instance`] (chunked CSR build off a disk edge stream), only the
/// XL-capable roster runs, the similarity phase is timed (fig11's protocol),
/// quality is the exact sliced sharded-NN probe, and every cell goes through
/// the journal so `--resume` replays completed cells bit-identically.
fn run_xl(cfg: &Config) {
    banner(
        "Figure 11 XL (runtime vs node count, streamed never-densify tier)",
        cfg,
        "ring+chords avg degree 10; similarity timed, sliced sharded-NN probe",
    );
    let mut session = SweepSession::new(cfg);
    let slice = if cfg.quick { xl::XL_EVAL_SLICE_QUICK } else { xl::XL_EVAL_SLICE };
    let mut t =
        Table::new(&["algorithm", "n", "time(similarity)", "acc@slice", "repr", "sim", "rss"]);
    let mut rows: Vec<SweepRow> = Vec::new();
    for n in xl::node_grid(cfg.quick) {
        // The streamed instance is built lazily: a fully-journaled resume
        // replays every cell without touching the generator at all.
        let mut inst = None;
        for algo in xl::XlAlgo::ALL {
            let key =
                CellKey::new(xl::XL_WORKLOAD, algo.name(), "NN", "none", n as f64, cfg.seed, 1);
            // Set when the cell runs: a replayed row carries no memory facts.
            let mut ran = None;
            let row = session.journaled_cell(key, |_| {
                let inst = inst.get_or_insert_with(|| {
                    xl::instance(n, cfg.seed).unwrap_or_else(|e| {
                        eprintln!("error: streamed instance at n={n}: {e}");
                        std::process::exit(1);
                    })
                });
                let timeout = cfg.cell_timeout.map(std::time::Duration::from_secs_f64);
                let m = xl::run_cell(algo, inst, slice, timeout);
                if m.densifications > 0 {
                    eprintln!(
                        "warning: {} at n={n}: {} densification(s) — XL tier must stay factored",
                        algo.name(),
                        m.densifications
                    );
                }
                ran = Some((m.sim, m.rss_delta_bytes));
                let level = n as f64;
                SweepRow {
                    workload: xl::XL_WORKLOAD.into(),
                    noise: "none".into(),
                    level,
                    cell: m.cell,
                }
            });
            let cell = &row.cell;
            let (no_time, repr, sim, rss) = match ran {
                Some((sim, rss)) => (
                    cell.error_class.clone().unwrap_or_default(),
                    sim.map_or_else(|| "-".into(), |s| s.repr.into()),
                    sim.map_or_else(|| "-".into(), |s| fmt_bytes(s.bytes)),
                    rss.map_or_else(|| "-".into(), fmt_bytes),
                ),
                None => ("journal".into(), "journal".into(), "-".into(), "-".into()),
            };
            t.row(&[
                algo.name().into(),
                n.to_string(),
                cell.seconds.map_or(no_time, secs),
                cell.accuracy.map_or_else(|| "-".into(), |a| format!("{a:.4}")),
                repr,
                sim,
                rss,
            ]);
            rows.push(row);
        }
    }
    t.print();
    cfg.write_json(&rows);
}

fn main() {
    let cfg = Config::from_args();
    if cfg.xl {
        run_xl(&cfg);
        return;
    }
    banner("Figure 11 (runtime vs node count)", &cfg, "configuration model, avg degree 10");
    let nodes: Vec<usize> =
        if cfg.quick { vec![1 << 8, 1 << 9, 1 << 10] } else { (10..=16).map(|e| 1 << e).collect() };
    runtime_sweep(&cfg, ScaleAxis::Nodes(10), &nodes, |n| {
        let seq = graphalign_gen::degrees::normal(n, 10.0, 2.5, cfg.seed);
        graphalign_gen::configuration_model(&seq, cfg.seed ^ n as u64)
    });
}
