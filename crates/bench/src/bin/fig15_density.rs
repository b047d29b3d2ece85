//! Regenerates **Figure 15**: accuracy under 1 % one-way noise on
//! Newman–Watts graphs with 2000 nodes, sweeping (a) the rewiring
//! probability `p` at fixed `k` and (b) the neighbor count `k` at fixed
//! `p = 0.5` — the paper's density study (§6.7).

use graphalign_bench::figures::{banner, nw_accuracy_sweep, NwGraph, NwParam, NwSweep};
use graphalign_bench::Config;

fn main() {
    let cfg = Config::from_args();
    let n = if cfg.quick { 300 } else { 2000 };
    banner("Figure 15 (density)", &cfg, &format!("Newman-Watts, n = {n}, 1% one-way noise"));
    // (a) Sweep the rewiring probability at fixed k.
    let ps: Vec<f64> =
        if cfg.quick { vec![0.2, 0.5, 0.8] } else { vec![0.2, 0.35, 0.5, 0.65, 0.8] };
    let vary_p = ps.iter().map(|&p| NwGraph { n, k: 14, p, seed: cfg.seed ^ (p * 100.0) as u64 });
    // (b) Sweep the neighbor count at fixed p = 0.5.
    let ks: Vec<usize> =
        if cfg.quick { vec![10, 50, 100] } else { vec![10, 50, 100, 200, 400, 600] };
    let vary_k =
        ks.iter().filter(|&&k| k < n).map(|&k| NwGraph { n, k, p: 0.5, seed: cfg.seed ^ k as u64 });
    let sweeps = [
        NwSweep { label: "vary p", key: "vary_p", chart_x: NwParam::P, graphs: vary_p.collect() },
        NwSweep { label: "vary k", key: "vary_k", chart_x: NwParam::K, graphs: vary_k.collect() },
    ];
    nw_accuracy_sweep(&cfg, NwParam::P, &sweeps, |sweep| {
        format!("accuracy — {sweep} (1% one-way noise)")
    });
}
