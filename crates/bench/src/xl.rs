//! The XL ("never densify") scale tier shared by fig11/fig13 and `mem_smoke`.
//!
//! Everything the million-node sweep needs in one place: the XL-capable
//! algorithm roster with its tuned `O(n·d)` configurations, the node grids,
//! the enforced peak-RSS budget, the streamed-instance constructor, the
//! sliced sharded-NN quality probe, and the analytic memory model for the
//! fig13 XL rows.
//!
//! Why this roster: REGAL and CONE are the two study algorithms whose whole
//! pipeline factorizes (REGAL's landmark xNetMF embeddings; CONE with the
//! landmark Sinkhorn replacing its dense transport costs), and FPROP is the
//! CSR-only factored-propagation reference introduced for this tier. The
//! dense-similarity family (IsoRank, NSD, GWL, S-GWL, GRASP's full
//! eigensolve, GRAAL's graphlet costs) inherently materializes `n × n`
//! state or super-linear solver state and is excluded by construction —
//! that exclusion is what the `mem_smoke --scale xl` gate enforces.

use crate::harness::{CellResult, RepFailure, SimilarityStats};
use crate::memprobe::{self, CellRssProbe};
use crate::telemetry::CellTelemetry;
use graphalign::cone::Cone;
use graphalign::fprop::Fprop;
use graphalign::regal::Regal;
use graphalign::Aligner;
use graphalign_datasets::stream::{self, XlInstance};
use graphalign_linalg::sinkhorn::SinkhornParams;
use graphalign_linalg::Similarity;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Average degree of the XL benchmark graphs (the paper's scalability
/// figures use sparse graphs; d ≈ 10 keeps 10⁶ nodes at ~5·10⁶ edges).
pub const XL_AVG_DEGREE: f64 = 10.0;

/// Landmark count for REGAL's xNetMF at XL scale. The paper's
/// `p = 10·log₂(2n)` would be ~200 at n = 10⁶ (≈ 3.2 GB of embeddings);
/// a fixed small landmark set keeps the factor memory inside the `O(n·d)`
/// budget with d of the same order as the average degree.
pub const XL_REGAL_LANDMARKS: usize = 32;

/// Embedding dimension and landmark count for CONE at XL scale.
pub const XL_CONE_DIM: usize = 16;
/// Landmark count for CONE's factored Wasserstein steps.
pub const XL_CONE_LANDMARKS: usize = 64;

/// Source rows evaluated by the sliced nearest-neighbor quality probe at
/// full XL scale (each row still scans *all* `m` target columns through the
/// sharded top-k, so the probe is exact on the rows it covers).
pub const XL_EVAL_SLICE: usize = 4096;
/// Sliced-probe rows in quick (CI-sized) mode.
pub const XL_EVAL_SLICE_QUICK: usize = 1024;

/// The XL-capable algorithm roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XlAlgo {
    /// REGAL with a fixed small landmark set.
    Regal,
    /// CONE with landmark Sinkhorn transport.
    Cone,
    /// Factored feature propagation (the tier's reference method).
    Fprop,
}

impl XlAlgo {
    /// Roster order used by every XL sweep.
    pub const ALL: [XlAlgo; 3] = [XlAlgo::Regal, XlAlgo::Cone, XlAlgo::Fprop];

    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            XlAlgo::Regal => "REGAL",
            XlAlgo::Cone => "CONE",
            XlAlgo::Fprop => "FPROP",
        }
    }

    /// The aligner with its XL-tuned `O(n·d)` configuration.
    pub fn make(&self) -> Box<dyn Aligner + Send + Sync> {
        match self {
            XlAlgo::Regal => {
                Box::new(Regal { landmarks: Some(XL_REGAL_LANDMARKS), ..Regal::default() })
            }
            XlAlgo::Cone => Box::new(Cone {
                dim: XL_CONE_DIM,
                outer_iters: 5,
                sinkhorn: SinkhornParams { epsilon: 0.05, max_iter: 50, tol: 1e-5 },
                landmarks: Some(XL_CONE_LANDMARKS),
                ..Cone::default()
            }),
            XlAlgo::Fprop => Box::new(Fprop::default()),
        }
    }

    /// Analytic model bytes at `n` nodes / `m` undirected edges: the factored
    /// similarity plus the per-algorithm working state plus both CSR graphs,
    /// with sparse objects accounted at nnz-based CSR bytes
    /// ([`Similarity::sparse_bytes`]) — never a dense upper bound.
    pub fn model_bytes(&self, n: usize, m: usize) -> usize {
        let csr_pair = 2 * memprobe::csr_graph_bytes(n, m);
        match self {
            XlAlgo::Regal => {
                let p = XL_REGAL_LANDMARKS;
                // Similarity factors + the n×p similarity-to-landmark block
                // per graph (xNetMF's C matrix) + features.
                Similarity::lowrank_bytes(n, n, p) + 8 * 2 * n * p + csr_pair
            }
            XlAlgo::Cone => {
                let d = XL_CONE_DIM;
                let k = XL_CONE_LANDMARKS;
                // Aligned embedding factors + the three Nyström blocks.
                Similarity::lowrank_bytes(n, n, d) + 8 * (2 * n * k + k * k) + csr_pair
            }
            XlAlgo::Fprop => {
                // Feature buckets scale with log₂(max degree); the three
                // propagation buffers dominate.
                let f = ((2 * m / n).max(2) as f64).log2().ceil() as usize + 1;
                Similarity::lowrank_bytes(n, n, f) + 8 * 3 * n * f + csr_pair
            }
        }
    }
}

/// XL node grids: CI-sized in quick mode, million-node in full mode.
pub fn node_grid(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 14, 100_000]
    } else {
        vec![1 << 18, 1_000_000]
    }
}

/// The enforced peak-RSS budget at `n` nodes: `c · 8 · n · d` bytes with
/// `d = XL_AVG_DEGREE` and `c = 64`. The constant covers every `O(n·d)`-class
/// allocation the tier legitimately makes (both CSR graphs ≈ 3·8·n·d,
/// embedding factors up to 8·n·32 per side, propagation double-buffers,
/// allocator slack); what it cannot cover — by two orders of magnitude at
/// n = 10⁶ — is any `O(n²)` materialization, which is the regression the
/// `mem_smoke --scale xl` gate exists to catch.
pub fn budget_bytes(n: usize) -> usize {
    64 * 8 * XL_AVG_DEGREE as usize * n
}

/// A directory for streamed XL edge files under the system temp dir,
/// `graphalign_xl_<pid>_<k>` (keyed by pid and a per-process counter so no
/// two builds collide). Dropping it removes the directory and every stream
/// in it.
struct StreamDir(PathBuf);

impl StreamDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("graphalign_xl_{}_{k}", std::process::id())))
    }
}

impl Drop for StreamDir {
    fn drop(&mut self) {
        // Best effort: a directory that was never created is already gone.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the deterministic streamed XL instance at `n` nodes. The edge
/// stream lives in a [`StreamDir`] that is removed as soon as both CSR
/// graphs are built, on success and on error alike.
///
/// # Errors
/// Propagates stream I/O errors.
pub fn instance(n: usize, seed: u64) -> std::io::Result<XlInstance> {
    let dir = StreamDir::new();
    stream::xl_instance(&dir.0, n, XL_AVG_DEGREE, seed)
}

/// Result of the sliced nearest-neighbor quality probe.
#[derive(Debug, Clone, Copy)]
pub struct SliceEval {
    /// Source rows evaluated.
    pub rows: usize,
    /// Fraction of evaluated rows matched to their ground-truth target.
    pub accuracy: f64,
}

/// Exact nearest-neighbor accuracy over the first `slice` source rows,
/// computed with the sharded blocked top-k against **all** target columns
/// (fig11's protocol times the similarity phase; at n = 10⁶ a full
/// brute-force assignment over every row is hours of single-core work, so
/// the quality probe covers a deterministic row slice exactly instead of
/// every row approximately). Returns `None` for non-factored similarities.
pub fn sliced_nn_accuracy(
    sim: &Similarity,
    ground_truth: &[usize],
    slice: usize,
) -> Option<SliceEval> {
    let Similarity::LowRank(lr) = sim else {
        return None;
    };
    let rows = slice.min(lr.rows());
    let idx: Vec<usize> = (0..rows).collect();
    let mut sliced =
        graphalign_linalg::LowRankSim::new(lr.ya().select_rows(&idx), lr.yb().clone(), lr.kernel());
    if let Some(off) = lr.row_offsets() {
        sliced = sliced.with_row_offsets(off[..rows].to_vec());
    }
    let nn = graphalign_assignment::topk::nearest_neighbor_sharded(
        &sliced,
        &graphalign_assignment::topk::TopKConfig::default(),
    );
    let hits = nn.iter().zip(&ground_truth[..rows]).filter(|(a, b)| a == b).count();
    Some(SliceEval { rows, accuracy: hits as f64 / rows.max(1) as f64 })
}

/// The workload label XL journal rows carry (doubles as the fig11 XL
/// table caption).
pub const XL_WORKLOAD: &str = "xl-ring-chords-d10";

/// Everything one measured XL cell produces: the journal-ready
/// [`CellResult`] (similarity-phase timing per the paper's fig11 protocol,
/// sliced-NN accuracy, per-cell telemetry with the densification counter),
/// plus the memory facts the fig13/`mem_smoke` gates check.
#[derive(Debug, Clone)]
pub struct XlMeasurement {
    /// The cell in the shared sweep/journal schema.
    pub cell: CellResult,
    /// Representation and bytes of the produced similarity (`None` on
    /// failure).
    pub sim: Option<SimilarityStats>,
    /// Peak-RSS growth attributable to this cell, when `/proc` is readable.
    pub rss_delta_bytes: Option<usize>,
    /// `Similarity::to_dense` invocations observed during the cell — the XL
    /// tier's invariant is that this stays 0.
    pub densifications: u64,
}

/// Runs one XL cell: times the similarity phase (assignment excluded, per
/// fig11's protocol), scores the sliced sharded-NN probe over `slice` rows,
/// and captures telemetry + per-cell RSS. One repetition — XL instances are
/// deterministic per seed and a million-node cell is minutes of wall-clock.
pub fn run_cell(
    algo: XlAlgo,
    inst: &XlInstance,
    slice: usize,
    cell_timeout: Option<std::time::Duration>,
) -> XlMeasurement {
    let start = std::time::Instant::now();
    let _budget = graphalign_par::budget::install(cell_timeout);
    let probe = CellRssProbe::begin();
    let sink = graphalign_par::telemetry::install(false);
    let aligner = algo.make();
    let sim_start = std::time::Instant::now();
    let sim = aligner.similarity(&inst.source, &inst.target);
    let seconds = sim_start.elapsed().as_secs_f64();
    match sim {
        Ok(sim) => {
            let stats = SimilarityStats { repr: sim.repr_kind(), bytes: sim.approx_bytes() };
            let eval = sliced_nn_accuracy(&sim, &inst.ground_truth, slice);
            drop(sim);
            let rep = graphalign_par::telemetry::drain();
            drop(sink);
            let telemetry = CellTelemetry::aggregate(std::slice::from_ref(&rep));
            let densifications = telemetry.densifications;
            let cell = CellResult {
                seconds: Some(seconds),
                accuracy: eval.map(|e| e.accuracy),
                reps: 1,
                reps_ok: 1,
                skipped: false,
                error_class: None,
                wall_clock: start.elapsed().as_secs_f64(),
                telemetry: Some(telemetry),
                ..CellResult::skipped(algo.name(), "NN")
            };
            XlMeasurement {
                cell,
                sim: Some(stats),
                rss_delta_bytes: probe.delta_bytes(),
                densifications,
            }
        }
        Err(e) => {
            drop(sink);
            let f = RepFailure::from_align_error(algo.name(), " similarity", &e);
            let cell = CellResult::failed(
                algo.name(),
                "NN",
                f.class,
                f.message,
                1,
                start.elapsed().as_secs_f64(),
            );
            XlMeasurement {
                cell,
                sim: None,
                rss_delta_bytes: probe.delta_bytes(),
                densifications: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_linalg::{DenseMatrix, LowRankKernel, LowRankSim};

    #[test]
    fn roster_is_regal_cone_fprop() {
        let names: Vec<_> = XlAlgo::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["REGAL", "CONE", "FPROP"]);
        for a in XlAlgo::ALL {
            assert_eq!(a.make().name(), a.name());
        }
    }

    #[test]
    fn budget_is_linear_and_dwarfed_by_dense() {
        let n = 1_000_000;
        let budget = budget_bytes(n);
        assert_eq!(budget, 64 * 8 * 10 * n);
        // Any dense n×n f64 is ~2 orders of magnitude over budget at 10⁶.
        assert!(Similarity::dense_bytes(n, n) > 100 * budget);
        // The models of every roster member fit comfortably.
        let m = (n as f64 * XL_AVG_DEGREE / 2.0) as usize;
        for a in XlAlgo::ALL {
            let model = a.model_bytes(n, m);
            assert!(model < budget / 2, "{} model {model} vs budget {budget}", a.name());
        }
    }

    #[test]
    fn stream_dirs_are_removed_on_drop() {
        let dir = StreamDir::new();
        let path = dir.0.clone();
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join("edges"), b"stream").unwrap();
        drop(dir);
        assert!(!path.exists(), "{} left behind", path.display());
        // An instance build streams into a directory of its own and
        // removes it before returning.
        let inst = instance(64, 1).unwrap();
        assert_eq!(inst.ground_truth.len(), 64);
        let prefix = format!("graphalign_xl_{}_", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .map(|e| e.path())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }

    #[test]
    fn node_grids_are_xl_sized() {
        assert_eq!(node_grid(false).last(), Some(&1_000_000));
        assert!(node_grid(true).iter().all(|&n| n <= 100_000));
    }

    #[test]
    fn sliced_probe_scores_an_identity_mapping() {
        let y = DenseMatrix::from_fn(10, 2, |i, j| (i * 2 + j) as f64 / 20.0);
        let sim = Similarity::LowRank(LowRankSim::new(y.clone(), y, LowRankKernel::NegSqDist));
        let truth: Vec<usize> = (0..10).collect();
        let ev = sliced_nn_accuracy(&sim, &truth, 4).unwrap();
        assert_eq!(ev.rows, 4);
        assert_eq!(ev.accuracy, 1.0);
        // Non-factored input is not probed.
        let dense = Similarity::Dense(DenseMatrix::identity(4));
        assert!(sliced_nn_accuracy(&dense, &truth, 4).is_none());
    }
}
