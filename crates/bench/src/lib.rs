//! Experiment harness reproducing every table and figure of the EDBT 2023
//! study *"Comprehensive Evaluation of Algorithms for Unrestricted Graph
//! Alignment"*.
//!
//! Each table/figure has a dedicated binary in `src/bin/` (see DESIGN.md §4
//! for the full index). All binaries accept:
//!
//! * `--quick` (default) / `--full` — scaled-down grid sized for a laptop
//!   container vs the paper-scale grid (28-core/256 GB testbed numbers);
//! * `--seed <u64>` — base RNG seed;
//! * `--out <path>` — additionally write the result rows as JSON;
//! * `--threads <n>` — worker-thread cap for the parallel kernels (default:
//!   `GRAPHALIGN_THREADS`/`RAYON_NUM_THREADS`, then the machine's core
//!   count). Results are bit-identical for every thread count; only the
//!   wall-clock columns change.
//!
//! The library half provides the pieces the binaries share: the algorithm
//! roster with per-algorithm feasibility caps ([`suite`]), the measurement
//! loop ([`harness`]), memory accounting ([`memprobe`]), and plain-text
//! table rendering ([`table`]).

pub mod figures;
pub mod harness;
pub mod journal;
pub mod memprobe;
pub mod plot;
pub mod suite;
pub mod table;
pub mod telemetry;
pub mod xl;

use std::path::PathBuf;
use std::time::Duration;

/// Shared command-line configuration of the experiment binaries.
#[derive(Debug, Clone)]
pub struct Config {
    /// `false` = paper-scale grid (`--full`), `true` = scaled-down grid.
    pub quick: bool,
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Optional JSON output path.
    pub out: Option<PathBuf>,
    /// `--threads` override; `None` defers to the environment/core count.
    pub threads: Option<usize>,
    /// `--cell-timeout <secs>`: cooperative deadline per experiment cell.
    pub cell_timeout: Option<f64>,
    /// `--retries <n>`: reseeded retries per repetition after a numerical
    /// failure.
    pub retries: usize,
    /// `--resume`: replay completed cells from the `<out>.journal` file and
    /// run only the remainder.
    pub resume: bool,
    /// `--trace <path>`: write a JSONL sidecar with the per-iteration
    /// residual series of every solver invocation (see [`telemetry`]).
    pub trace: Option<PathBuf>,
    /// `--scale xl`: run the million-node tier (streamed instances, the
    /// XL-capable algorithm roster, enforced `O(n·d)` memory budget) instead
    /// of the paper grid. Combines with `--quick`/`--full` for the CI-sized
    /// vs full XL node grid. Only the scalability binaries (fig11/fig13,
    /// mem_smoke) consume it; the others ignore it.
    pub xl: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            quick: true,
            seed: 2023,
            out: None,
            threads: None,
            cell_timeout: None,
            retries: 0,
            resume: false,
            trace: None,
            xl: false,
        }
    }
}

impl Config {
    /// Parses the common flags from `std::env::args`. Unknown flags abort
    /// with a usage message. A `--threads` flag takes effect immediately
    /// (process-wide) via [`graphalign_par::set_max_threads`].
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--full" => cfg.quick = false,
                "--scale" => {
                    let v = args.next().unwrap_or_else(|| usage("--scale needs a value"));
                    match v.as_str() {
                        "xl" => cfg.xl = true,
                        "quick" => cfg.quick = true,
                        "full" => cfg.quick = false,
                        _ => usage("--scale takes xl, quick, or full"),
                    }
                }
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    cfg.seed = v.parse().unwrap_or_else(|_| usage("--seed needs a u64"));
                }
                "--out" => {
                    let v = args.next().unwrap_or_else(|| usage("--out needs a path"));
                    cfg.out = Some(PathBuf::from(v));
                }
                "--threads" => {
                    let v = args.next().unwrap_or_else(|| usage("--threads needs a value"));
                    let n: usize =
                        v.parse().unwrap_or_else(|_| usage("--threads needs a positive integer"));
                    if n == 0 {
                        usage("--threads needs a positive integer");
                    }
                    cfg.threads = Some(n);
                }
                "--cell-timeout" => {
                    let v = args.next().unwrap_or_else(|| usage("--cell-timeout needs a value"));
                    let secs: f64 =
                        v.parse().unwrap_or_else(|_| usage("--cell-timeout needs seconds (f64)"));
                    if !secs.is_finite() || secs <= 0.0 {
                        usage("--cell-timeout needs a positive number of seconds");
                    }
                    cfg.cell_timeout = Some(secs);
                }
                "--retries" => {
                    let v = args.next().unwrap_or_else(|| usage("--retries needs a value"));
                    cfg.retries =
                        v.parse().unwrap_or_else(|_| usage("--retries needs a non-negative count"));
                }
                "--resume" => cfg.resume = true,
                "--trace" => {
                    let v = args.next().unwrap_or_else(|| usage("--trace needs a path"));
                    cfg.trace = Some(PathBuf::from(v));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        if cfg.resume && cfg.out.is_none() {
            usage("--resume requires --out (the journal lives next to the output file)");
        }
        if let Some(n) = cfg.threads {
            graphalign_par::set_max_threads(n);
        }
        cfg
    }

    /// Number of noisy repetitions per cell (paper: 10 for the synthetic
    /// figures, 5 for the high-noise/scalability ones; quick mode caps at 3).
    pub fn reps(&self, paper_reps: usize) -> usize {
        if self.quick {
            paper_reps.clamp(1, 3)
        } else {
            paper_reps
        }
    }

    /// The [`harness::RunPolicy`] for a cell with `paper_reps` paper-scale
    /// repetitions: quick-mode clamping plus this run's timeout/retry knobs.
    pub fn policy(&self, paper_reps: usize) -> harness::RunPolicy {
        harness::RunPolicy {
            cell_timeout: self.cell_timeout.map(Duration::from_secs_f64),
            retries: self.retries,
            trace: self.trace.is_some(),
            ..harness::RunPolicy::new(self.reps(paper_reps), self.seed, self.quick)
        }
    }

    /// Writes rows as JSON if `--out` was given. A write failure is fatal
    /// (exit code 1): silently losing hours of sweep output to a bad path or
    /// a full disk is exactly what this harness exists to prevent.
    pub fn write_json<T: graphalign_json::ToJson>(&self, rows: &[T]) {
        if let Some(path) = &self.out {
            let json = graphalign_json::to_string_pretty(rows);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--quick|--full] [--scale xl|quick|full] [--seed <u64>] [--out <path.json>]\n\
         \x20           [--threads <n>] [--cell-timeout <secs>] [--retries <n>] [--resume]\n\
         \x20           [--trace <path.jsonl>]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_quick() {
        let c = Config::default();
        assert!(c.quick);
        assert_eq!(c.seed, 2023);
    }

    #[test]
    fn reps_scale_down_in_quick_mode() {
        let quick = Config::default();
        assert_eq!(quick.reps(10), 3);
        assert_eq!(quick.reps(1), 1);
        let full = Config { quick: false, ..Config::default() };
        assert_eq!(full.reps(10), 10);
    }
}
