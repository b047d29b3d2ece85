//! Lanczos iteration for extremal eigenpairs of sparse symmetric operators.
//!
//! GRASP needs the bottom-k eigenvectors of normalized Laplacians with `n` in
//! the thousands; CONE's proximity factorization needs top-k eigenpairs of a
//! sparse PSD proximity operator. Dense `O(n³)` eigendecomposition would
//! dominate runtime and memory (defeating the scalability experiments of
//! Figures 11–14), so extremal spectra come from this Lanczos implementation
//! with **full reorthogonalization** — simple and numerically robust.
//!
//! For a Krylov size `m` the cost has three parts: `m` operator applications
//! (`O(m · nnz)`) plus `O(m² n)` for the two Gram–Schmidt passes; the
//! projected solve, `O(m³)`; and the Ritz vectors, one `k × m` by `m × n`
//! product (`O(k m n)`). At CONE's fig11 shape (`k = n/2`, `m = n`) all
//! three are cubic in `n`. The projected matrix is already tridiagonal, so
//! its `α`/`β` go straight to the QL solver
//! ([`crate::eigen::tridiagonal_eigen`]), and the Ritz vectors come from
//! the blocked GEMM.

use crate::dense::DenseMatrix;
use crate::eigen::tridiagonal_eigen_rows;
use crate::vec_ops;
use crate::{LinalgError, LinearOp};
use graphalign_par as par;
use graphalign_par::telemetry::{self, Convergence, StopReason};
use rand::prelude::*;

/// Subtracts from `w` its projections onto every basis vector; `basis`
/// holds the vectors back to back, `w.len()` values each.
///
/// Classical Gram–Schmidt: all inner products are taken against the *same*
/// incoming `w`, so they are independent and run in parallel. Callers apply
/// this twice (CGS2), which matches the numerical robustness of the modified
/// variant while exposing one parallel dot product per basis vector.
fn orthogonalize_against(basis: &[f64], w: &mut [f64]) {
    let n = w.len();
    let count = basis.len() / n;
    if count == 0 {
        return;
    }
    let projs = {
        let w_ro: &[f64] = w;
        par::map_collect(count, n, |i| vec_ops::dot(w_ro, &basis[i * n..(i + 1) * n]))
    };
    par::for_each_chunk_mut(w, count, |_, range, chunk| {
        for (b, &proj) in basis.chunks_exact(n).zip(&projs) {
            vec_ops::axpy(-proj, &b[range.clone()], chunk);
        }
    });
}

/// Which end of the spectrum to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Algebraically largest eigenvalues.
    Largest,
    /// Algebraically smallest eigenvalues.
    Smallest,
}

/// A set of extremal eigenpairs.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Eigenvalues — ascending for [`Which::Smallest`], descending for
    /// [`Which::Largest`].
    pub values: Vec<f64>,
    /// Matching eigenvectors as columns of an `n × k` matrix.
    pub vectors: DenseMatrix,
    /// How the Krylov iteration stopped: `max_iter` when it ran to the
    /// subspace cap (the normal case — there is no residual test), or
    /// `breakdown` when the space was exhausted early (exact invariant
    /// subspace). Both count as converged; also reported to the telemetry
    /// sink.
    pub convergence: Convergence,
}

/// Computes `k` extremal eigenpairs of the symmetric operator `op`.
///
/// `max_dim` bounds the Krylov subspace (defaults callers usually pass
/// `4k + 20`, clamped to `n`). The Krylov basis is kept fully orthonormal
/// (classical Gram–Schmidt against all previous vectors, performed twice),
/// which is what makes small-k extraction reliable without restarts.
///
/// # Errors
/// * [`LinalgError::NotFinite`] if the operator produces non-finite values.
/// * [`LinalgError::Interrupted`] when the cell execution budget expires
///   between Krylov steps.
/// * Propagates tridiagonal-solver failures.
///
/// # Panics
/// Panics if `k == 0` or `k > op.dim()`.
pub fn lanczos(
    op: &dyn LinearOp,
    k: usize,
    which: Which,
    max_dim: usize,
    seed: u64,
) -> Result<LanczosResult, LinalgError> {
    let n = op.dim();
    assert!(k > 0, "lanczos: k must be positive");
    assert!(k <= n, "lanczos: k = {k} exceeds dimension {n}");
    let m = max_dim.clamp(k.saturating_mul(2).min(n), n).max(k);

    let mut rng = StdRng::seed_from_u64(seed);
    // Krylov basis vectors, back to back: the rows of a `dim × n` matrix.
    let mut basis: Vec<f64> = Vec::with_capacity(m * n);
    let mut alpha: Vec<f64> = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m);

    let mut q = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect::<Vec<f64>>();
    if vec_ops::normalize(&mut q) == 0.0 {
        return Err(LinalgError::NotFinite { routine: "lanczos" });
    }
    let mut w = vec![0.0; n];
    let mut last_beta = 0.0;
    let mut stop = StopReason::MaxIter;
    for j in 0..m {
        crate::check_budget("lanczos", j)?;
        basis.extend_from_slice(&q);
        op.apply(&q, &mut w);
        if !vec_ops::all_finite(&w) {
            return Err(LinalgError::NotFinite { routine: "lanczos" });
        }
        let a_j = vec_ops::dot(&w, &q);
        alpha.push(a_j);
        // w ← w − α_j q_j − β_{j−1} q_{j−1}
        vec_ops::axpy(-a_j, &q, &mut w);
        if j > 0 {
            let b_prev = beta[j - 1];
            vec_ops::axpy(-b_prev, &basis[(j - 1) * n..j * n], &mut w);
        }
        // Full reorthogonalization (twice for stability).
        orthogonalize_against(&basis, &mut w);
        orthogonalize_against(&basis, &mut w);
        let b_j = vec_ops::norm2(&w);
        last_beta = b_j;
        if j + 1 == m {
            break;
        }
        if b_j < 1e-12 {
            // Invariant subspace found: restart with a random vector
            // orthogonal to the current basis (handles disconnected graphs,
            // whose Laplacians have multiplicities).
            let mut fresh: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            orthogonalize_against(&basis, &mut fresh);
            orthogonalize_against(&basis, &mut fresh);
            if vec_ops::normalize(&mut fresh) == 0.0 {
                // Space exhausted (m ≥ effective dimension); stop early.
                beta.push(0.0);
                stop = StopReason::Breakdown;
                last_beta = 0.0;
                break;
            }
            beta.push(0.0);
            q = fresh;
        } else {
            beta.push(b_j);
            // Swap instead of cloning: `w` is fully overwritten by
            // `op.apply` at the top of the next step, so the old `q`
            // buffer can serve as its storage.
            std::mem::swap(&mut q, &mut w);
            vec_ops::scale(1.0 / b_j, &mut q);
        }
    }

    // Solve the projected tridiagonal problem T = tridiag(beta, alpha, beta);
    // after a breakdown `beta` has one entry past the last row.
    let dim = alpha.len();
    let (eig_values, eig_rows) = tridiagonal_eigen_rows(&alpha, &beta[..dim - 1])?;

    // Ritz pairs: pick k from the requested end.
    let indices: Vec<usize> = match which {
        Which::Smallest => (0..k.min(dim)).collect(),
        Which::Largest => (0..k.min(dim)).map(|i| dim - 1 - i).collect(),
    };
    let values: Vec<f64> = indices.iter().map(|&src| eig_values[src]).collect();
    // Ritz vector j = Σ_i y_j[i] · basis[i]: row j of the product of the
    // selected eigenvector rows with the basis, which the blocked GEMM
    // accumulates in ascending i for every element. The basis is freed as
    // soon as the product exists.
    let mut ritz = eig_rows.select_rows(&indices).matmul(&DenseMatrix::from_vec(dim, n, basis));
    // Normalize Ritz vectors (they are orthonormal up to rounding).
    for j in 0..ritz.rows() {
        vec_ops::normalize(ritz.row_mut(j));
    }
    let vectors = ritz.transpose();
    let convergence = Convergence { iterations: dim, residual: last_beta, converged: true, stop };
    telemetry::record("lanczos", convergence);
    Ok(LanczosResult { values, vectors, convergence })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::symmetric_eigen;
    use crate::sparse::CsrMatrix;

    fn diag_csr(d: &[f64]) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> =
            d.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        CsrMatrix::from_triplets(d.len(), d.len(), &triplets)
    }

    #[test]
    fn diagonal_extremes() {
        let d: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let m = diag_csr(&d);
        let top = lanczos(&m, 3, Which::Largest, 30, 42).unwrap();
        assert!((top.values[0] - 30.0).abs() < 1e-8);
        assert!((top.values[1] - 29.0).abs() < 1e-8);
        assert!((top.values[2] - 28.0).abs() < 1e-8);
        let bottom = lanczos(&m, 3, Which::Smallest, 30, 42).unwrap();
        assert!((bottom.values[0] - 1.0).abs() < 1e-8);
        assert!((bottom.values[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let d: Vec<f64> = (1..=20).map(|i| (i * i) as f64).collect();
        let m = diag_csr(&d);
        let res = lanczos(&m, 2, Which::Largest, 20, 1).unwrap();
        for j in 0..2 {
            let v = res.vectors.col(j);
            let mv = m.mul_vec(&v);
            for i in 0..20 {
                assert!(
                    (mv[i] - res.values[j] * v[i]).abs() < 1e-6,
                    "residual too large at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matches_dense_eigen_on_random_sparse_symmetric() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(9);
        let n = 40;
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..=i {
                if rng.random_range(0.0..1.0) < 0.2 {
                    let v: f64 = rng.random_range(-1.0..1.0);
                    triplets.push((i, j, v));
                    if i != j {
                        triplets.push((j, i, v));
                    }
                }
            }
        }
        let m = CsrMatrix::from_triplets(n, n, &triplets);
        let dense_eig = symmetric_eigen(&m.to_dense()).unwrap();
        let res = lanczos(&m, 4, Which::Smallest, n, 17).unwrap();
        for j in 0..4 {
            assert!(
                (res.values[j] - dense_eig.values[j]).abs() < 1e-7,
                "eigenvalue {j}: lanczos {} vs dense {}",
                res.values[j],
                dense_eig.values[j]
            );
        }
    }

    #[test]
    fn handles_multiplicity_via_restart() {
        // Identity has a single eigenvalue with full multiplicity; the first
        // Krylov step breaks down immediately.
        let m = diag_csr(&[1.0; 10]);
        let res = lanczos(&m, 3, Which::Largest, 10, 5).unwrap();
        for v in &res.values {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // Vectors remain orthonormal.
        let gram = res.vectors.tr_matmul(&res.vectors);
        assert!(gram.sub(&DenseMatrix::identity(3)).max_abs() < 1e-8);
    }

    #[test]
    fn convergence_reports_subspace_cap_as_normal_stop() {
        let d: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let _g = telemetry::install(false);
        let res = lanczos(&diag_csr(&d), 3, Which::Largest, 10, 42).unwrap();
        assert!(res.convergence.converged, "running to the cap is the normal stop");
        assert_eq!(res.convergence.stop, telemetry::StopReason::MaxIter);
        assert_eq!(res.convergence.iterations, 10);
        assert!(res.convergence.residual.is_finite());
        let t = telemetry::drain();
        // One lanczos event plus the tql2 event from the projected solve.
        assert!(t.events.iter().any(|e| e.routine == "lanczos"));
        assert!(t.events.iter().any(|e| e.routine == "tql2"));
    }

    #[test]
    fn expired_budget_interrupts() {
        let m = diag_csr(&[1.0, 2.0, 3.0]);
        let _g = graphalign_par::budget::install(Some(std::time::Duration::ZERO));
        let err = lanczos(&m, 2, Which::Largest, 3, 0).unwrap_err();
        assert!(err.is_interrupted(), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds dimension")]
    fn k_larger_than_n_panics() {
        let m = diag_csr(&[1.0, 2.0]);
        let _ = lanczos(&m, 3, Which::Largest, 2, 0);
    }
}
