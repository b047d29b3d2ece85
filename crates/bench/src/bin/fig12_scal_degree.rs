//! Regenerates **Figure 12**: similarity-phase runtime vs average degree on
//! configuration-model graphs with 2¹⁴ nodes and uniform degree
//! distribution, Δ ∈ {10, 10², 10³, 10⁴} (paper §6.6).

use graphalign_bench::figures::{banner, runtime_sweep, ScaleAxis};
use graphalign_bench::Config;

fn main() {
    let cfg = Config::from_args();
    let (n, degrees) = if cfg.quick {
        (1 << 9, vec![10, 50, 100])
    } else {
        (1 << 14, vec![10, 100, 1000, 10_000])
    };
    banner("Figure 12 (runtime vs average degree)", &cfg, &format!("configuration model, n = {n}"));
    runtime_sweep(&cfg, ScaleAxis::Degree(n), &degrees, |deg| {
        let seq = graphalign_gen::degrees::uniform(n, deg);
        graphalign_gen::configuration_model(&seq, cfg.seed ^ deg as u64)
    });
}
