//! Dense and sparse linear-algebra substrate for the `graphalign` workspace.
//!
//! The graph-alignment algorithms reproduced from the EDBT 2023 study lean on a
//! fairly wide slice of numerical linear algebra: symmetric eigendecompositions
//! (GRASP, CONE), singular value decompositions (REGAL, LREA, CONE's Procrustes
//! step), power iterations (IsoRank, NSD, LREA), Lanczos iterations for sparse
//! spectra, and entropic optimal transport (GWL, S-GWL, CONE). Mature Rust
//! crates for sparse symmetric eigenproblems and dense LAPACK-grade kernels are
//! not available in this build environment, so this crate implements the whole
//! substrate from scratch:
//!
//! * [`dense::DenseMatrix`] — row-major `f64` matrices with the usual algebra.
//! * [`sparse::CsrMatrix`] — compressed sparse row matrices with SpMV/SpMM.
//! * [`qr`] — Householder QR factorization.
//! * [`eigen`] — exact symmetric eigendecomposition (Householder
//!   tridiagonalization followed by implicit-shift QL).
//! * [`lanczos`] — iterative top-/bottom-k eigenpairs of large sparse
//!   symmetric operators with full reorthogonalization.
//! * [`svd`] — thin singular value decomposition.
//! * [`power`] — power iteration for leading eigenvectors.
//! * [`sinkhorn`] — entropic optimal transport (Sinkhorn) and the proximal
//!   point wrapper used by the Gromov–Wasserstein solvers.
//! * [`vec_ops`] — small dense-vector helpers shared by the iterative solvers.
//! * [`simd`] — the vector kernels behind [`vec_ops`] and the packed GEMM
//!   tile behind the blocked products, one implementation each; the four
//!   reductions use AVX2 intrinsics when the build targets AVX2 (the
//!   lane-group reduction order contract lives here).
//! * [`lowrank::LowRankSim`] — implicit factored similarity matrices with
//!   row-scan/argmax/top-k kernels that never materialize the product.
//! * [`similarity::Similarity`] — the dense/low-rank/sparse representation
//!   enum the aligners hand to the assignment layer ("pipeline currency"),
//!   with the single telemetry-audited [`similarity::Similarity::to_dense`]
//!   densification choke point.
//! * [`workspace::Workspace`] — a scratch-buffer pool that lets hot loops
//!   (and the `_into` kernel variants) reuse allocations across iterations;
//!   reuses are tallied in telemetry as `allocs_saved`/`alloc_bytes_saved`.
//!
//! # Conventions
//!
//! Dimension mismatches are programmer errors and panic with a descriptive
//! message; genuinely runtime-dependent failures (non-convergence, singular
//! inputs) are reported through [`LinalgError`].

// The eigen/QR/Sinkhorn routines are faithful transcriptions of classical
// index-based numerical algorithms (EISPACK tred2/tql2, Householder QR);
// rewriting their coupled index loops as iterator chains obscures the
// correspondence with the reference formulations.
#![allow(clippy::needless_range_loop)]

pub mod dense;
pub mod eigen;
pub mod lanczos;
pub mod landmark;
pub mod lowrank;
pub mod power;
pub mod propagation;
pub mod qr;
pub mod serialize;
pub mod simd;
pub mod similarity;
pub mod sinkhorn;
pub mod sparse;
pub mod svd;
pub mod vec_ops;
pub mod workspace;

pub use dense::DenseMatrix;
pub use landmark::LandmarkSinkhorn;
pub use lowrank::{LowRankKernel, LowRankSim};
pub use propagation::{propagate_features, PropagationParams};
pub use similarity::Similarity;
pub use sparse::CsrMatrix;
pub use workspace::Workspace;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input matrix was singular (or numerically so) where an invertible
    /// matrix was required.
    Singular {
        /// Name of the routine that failed.
        routine: &'static str,
    },
    /// The input contained NaN or infinite entries.
    NotFinite {
        /// Name of the routine that rejected the input.
        routine: &'static str,
    },
    /// The routine was stopped cooperatively by the cell execution budget
    /// ([`graphalign_par::budget`]): the deadline passed or the budget was
    /// cancelled between iterations. Carries the number of iterations that
    /// completed before the interruption.
    Interrupted {
        /// Name of the routine that was interrupted.
        routine: &'static str,
        /// Iterations completed before the budget expired.
        iterations: usize,
    },
}

impl LinalgError {
    /// Whether this error reports a cooperative budget interruption (the
    /// harness classifies these as timeouts, not numerical failures).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, LinalgError::Interrupted { .. })
    }
}

/// Returns `Err(Interrupted)` when the current cell budget has expired;
/// the iterative solvers call this once per outer iteration. The
/// interruption is also reported to the telemetry sink, so solvers whose
/// errors a caller swallows (e.g. Lanczos inside S-GWL's Fiedler fallback)
/// still leave a visible `interrupted` event.
pub(crate) fn check_budget(routine: &'static str, iterations: usize) -> Result<(), LinalgError> {
    if graphalign_par::budget::exceeded() {
        graphalign_par::telemetry::record(
            routine,
            graphalign_par::telemetry::Convergence::interrupted(iterations, 0.0),
        );
        Err(LinalgError::Interrupted { routine, iterations })
    } else {
        Ok(())
    }
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NoConvergence { routine, iterations } => {
                write!(f, "{routine}: no convergence after {iterations} iterations")
            }
            LinalgError::Singular { routine } => write!(f, "{routine}: singular input"),
            LinalgError::NotFinite { routine } => {
                write!(f, "{routine}: input contains NaN or infinite entries")
            }
            LinalgError::Interrupted { routine, iterations } => {
                write!(f, "{routine}: interrupted by cell budget after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// A linear operator on `R^n`, abstracting over dense and sparse matrices so
/// iterative methods ([`lanczos`], [`power`]) can run on either, or on
/// matrix-free operators such as the normalized Laplacian `I - D^{-1/2} A D^{-1/2}`
/// without materializing it.
pub trait LinearOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `out = M * x`.
    fn apply(&self, x: &[f64], out: &mut [f64]);
}

impl LinearOp for DenseMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.rows(), self.cols(), "LinearOp requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.mul_vec_into(x, out);
    }
}

impl LinearOp for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.rows(), self.cols(), "LinearOp requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.mul_vec_into(x, out);
    }
}

/// A shifted/scaled operator `alpha * M + beta * I`, useful for turning
/// "smallest eigenvalues" problems into "largest eigenvalues" problems
/// (e.g. the bottom of a normalized-Laplacian spectrum, whose eigenvalues lie
/// in `[0, 2]`, via `2I - L`).
pub struct ShiftedOp<'a, M: LinearOp + ?Sized> {
    inner: &'a M,
    alpha: f64,
    beta: f64,
}

impl<'a, M: LinearOp + ?Sized> ShiftedOp<'a, M> {
    /// Creates the operator `alpha * M + beta * I`.
    pub fn new(inner: &'a M, alpha: f64, beta: f64) -> Self {
        Self { inner, alpha, beta }
    }
}

impl<M: LinearOp + ?Sized> LinearOp for ShiftedOp<'_, M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.inner.apply(x, out);
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = self.alpha * *o + self.beta * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_op_applies_alpha_m_plus_beta_i() {
        let m = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        let op = ShiftedOp::new(&m, -1.0, 2.0);
        let mut out = vec![0.0; 2];
        op.apply(&[1.0, 1.0], &mut out);
        // -1 * [2, 3] + 2 * [1, 1] = [0, -1]
        assert_eq!(out, vec![0.0, -1.0]);
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = LinalgError::NoConvergence { routine: "tql2", iterations: 30 };
        assert_eq!(e.to_string(), "tql2: no convergence after 30 iterations");
        let e = LinalgError::Singular { routine: "pinv" };
        assert_eq!(e.to_string(), "pinv: singular input");
        let e = LinalgError::NotFinite { routine: "svd" };
        assert!(e.to_string().contains("NaN"));
        let e = LinalgError::Interrupted { routine: "sinkhorn", iterations: 42 };
        assert_eq!(e.to_string(), "sinkhorn: interrupted by cell budget after 42 iterations");
        assert!(e.is_interrupted());
        assert!(!LinalgError::Singular { routine: "pinv" }.is_interrupted());
    }
}
