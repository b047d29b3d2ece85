//! Regenerates **Figure 14**: memory vs average degree at n = 2¹⁴ with a
//! uniform degree distribution (paper §6.6). Same accounting as Figure 13;
//! the headline observation — sparse-representation methods' memory does
//! not grow with the edge count while dense methods' does — falls out of
//! the per-algorithm model terms.

use graphalign_bench::figures::{banner, model_bytes_table, ScaleAxis};
use graphalign_bench::Config;

fn main() {
    let cfg = Config::from_args();
    let n = if cfg.quick { 1 << 10 } else { 1 << 14 };
    banner("Figure 14 (memory vs average degree)", &cfg, &format!("n = {n}"));
    let degrees: Vec<usize> = if cfg.quick { vec![10, 100] } else { vec![10, 100, 1000, 10_000] };
    model_bytes_table(&cfg, ScaleAxis::Degree(n), &degrees);
}
