//! Regenerates **Figure 16**: accuracy under 1 % one-way noise on
//! Newman–Watts graphs of increasing size — (a) constant average degree
//! `k = 10` (density decreases with n) and (b) constant density
//! `k = n/10` (paper §6.7: "as the graph becomes progressively sparser,
//! alignment quality drops, except with IsoRank").

use graphalign_bench::figures::{banner, nw_accuracy_sweep, NwGraph, NwParam, NwSweep};
use graphalign_bench::Config;

fn main() {
    let cfg = Config::from_args();
    banner("Figure 16 (size)", &cfg, "Newman-Watts, p = 0.5, 1% one-way noise");
    let sizes: Vec<usize> =
        if cfg.quick { vec![100, 200, 400] } else { vec![500, 1000, 2000, 4000] };
    let sweep = |name: &'static str, k_of_n: fn(usize) -> usize| NwSweep {
        label: name,
        key: name,
        chart_x: NwParam::N,
        graphs: sizes
            .iter()
            .map(|&n| {
                let k = k_of_n(n).min(n - 1);
                NwGraph { n, k, p: 0.5, seed: cfg.seed ^ (n * 31 + k) as u64 }
            })
            .collect(),
    };
    let sweeps = [
        sweep("fixed degree (k=10)", |_| 10),
        sweep("fixed density (k=n/10)", |n| (n / 10).max(2)),
    ];
    nw_accuracy_sweep(&cfg, NwParam::N, &sweeps, |sweep| format!("accuracy vs n — {sweep}"));
}
