//! Thin singular value decomposition and pseudo-inverse.
//!
//! For a matrix `A` of shape `m × n` (assume w.l.o.g. `m ≥ n`; the other case
//! is handled by transposition) we form the Gram matrix `G = AᵀA`, compute its
//! symmetric eigendecomposition `G = V Λ Vᵀ` with [`crate::eigen`], and read
//! off `σᵢ = √λᵢ`, `U = A V Σ⁻¹`. Columns with numerically zero singular
//! values get left singular vectors completed arbitrarily but orthonormally.
//!
//! This "Gram trick" halves the attainable relative accuracy for the smallest
//! singular values (≈√ε instead of ε), which is irrelevant for the uses in
//! this workspace: REGAL's Nyström pseudo-inverse, CONE's Procrustes rotation
//! and LREA's factor compression all only consume the dominant part of the
//! spectrum, and all three clamp small singular values anyway.

use crate::dense::DenseMatrix;
use crate::eigen::symmetric_eigen;
use crate::qr::thin_qr;
use crate::LinalgError;

/// A thin SVD `A = U diag(σ) Vᵀ` with `U: m × k`, `V: n × k`,
/// `k = min(m, n)`, singular values in *descending* order.
#[derive(Debug, Clone)]
pub struct ThinSvd {
    /// Left singular vectors (columns).
    pub u: DenseMatrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns).
    pub v: DenseMatrix,
}

impl ThinSvd {
    /// Number of singular values above `tol * σ_max` (numerical rank).
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > tol * smax).count()
    }

    /// Reconstructs `U diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        let k = self.sigma.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.rows() {
                us.set(i, j, us.get(i, j) * self.sigma[j]);
            }
        }
        us.matmul_tr(&self.v)
    }
}

/// Computes the thin SVD of `a`.
///
/// # Errors
/// Propagates failures from the symmetric eigensolver, and rejects non-finite
/// input with [`LinalgError::NotFinite`].
pub fn thin_svd(a: &DenseMatrix) -> Result<ThinSvd, LinalgError> {
    if !a.all_finite() {
        return Err(LinalgError::NotFinite { routine: "thin_svd" });
    }
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(ThinSvd {
            u: DenseMatrix::zeros(m, 0),
            sigma: Vec::new(),
            v: DenseMatrix::zeros(n, 0),
        });
    }
    if m < n {
        // SVD of Aᵀ, then swap factors.
        let s = thin_svd(&a.transpose())?;
        return Ok(ThinSvd { u: s.v, sigma: s.sigma, v: s.u });
    }
    // QR preconditioning: A = Q R with R (n × n); SVD of R is cheap and the
    // Gram matrix of R is better conditioned to form than AᵀA directly for
    // very tall A.
    let qr = thin_qr(a);
    let r = &qr.r; // n × n
    let gram = r.tr_matmul(r); // RᵀR, symmetric PSD
    let eig = symmetric_eigen(&gram)?;
    // Eigenvalues ascending -> take them descending.
    let k = n;
    let mut sigma = Vec::with_capacity(k);
    let mut v = DenseMatrix::zeros(n, k);
    for out_j in 0..k {
        let src = k - 1 - out_j;
        sigma.push(eig.values[src].max(0.0).sqrt());
        for i in 0..n {
            v.set(i, out_j, eig.vectors.get(i, src));
        }
    }
    // U = Q * (R V Σ⁻¹); columns with σ≈0 completed via QR of a perturbation.
    let rv = r.matmul(&v);
    let smax = sigma.first().copied().unwrap_or(0.0);
    let tol = smax * 1e-13;
    let mut u_small = DenseMatrix::zeros(n, k);
    for j in 0..k {
        if sigma[j] > tol && sigma[j] > 0.0 {
            for i in 0..n {
                u_small.set(i, j, rv.get(i, j) / sigma[j]);
            }
        }
    }
    // Orthonormal completion for null columns: re-orthonormalize u_small.
    complete_orthonormal(&mut u_small, &sigma, tol);
    let u = qr.q.matmul(&u_small);
    Ok(ThinSvd { u, sigma, v })
}

/// Fills columns of `u` whose singular value is ≤ `tol` with vectors
/// orthonormal to the rest (Gram–Schmidt against all other columns).
///
/// The columns are read as rows of one transposed copy, which takes each
/// filled column as soon as it is found, so later null columns
/// orthogonalize against it exactly as if they read `u` itself.
fn complete_orthonormal(u: &mut DenseMatrix, sigma: &[f64], tol: f64) {
    let n = u.rows();
    let k = u.cols();
    let is_null = |j: usize| !(sigma[j] > tol && sigma[j] > 0.0);
    if !(0..k).any(is_null) {
        return;
    }
    let mut cols = u.transpose();
    let mut v = vec![0.0; n];
    for j in (0..k).filter(|&j| is_null(j)) {
        // Try basis vectors until one survives orthogonalization.
        for cand in 0..n {
            v.fill(0.0);
            v[cand] = 1.0;
            for other in (0..k).filter(|&other| other != j) {
                let col = cols.row(other);
                let proj = crate::vec_ops::dot(&v, col);
                crate::vec_ops::axpy(-proj, col, &mut v);
            }
            if crate::vec_ops::normalize(&mut v) > 1e-8 {
                cols.row_mut(j).copy_from_slice(&v);
                for (i, &vi) in v.iter().enumerate() {
                    u.set(i, j, vi);
                }
                break;
            }
        }
    }
}

/// Moore–Penrose pseudo-inverse via the thin SVD, with singular values below
/// `rcond * σ_max` treated as zero.
///
/// Because the SVD uses the Gram trick, singular values that are exactly zero
/// surface as values on the order of `√ε · σ_max ≈ 1e-8 · σ_max`; pass
/// `rcond ≥ 1e-7` (the landmark Sinkhorn, the production caller, uses
/// `1e-6`) so they are correctly truncated.
///
/// # Errors
/// Propagates SVD failures.
pub fn pinv(a: &DenseMatrix, rcond: f64) -> Result<DenseMatrix, LinalgError> {
    let svd = thin_svd(a)?;
    let smax = svd.sigma.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    let k = svd.sigma.len();
    // pinv(A) = V Σ⁺ Uᵀ  (n × m)
    let mut vs = svd.v.clone();
    for j in 0..k {
        let s = svd.sigma[j];
        let inv = if s > cutoff && s > 0.0 { 1.0 / s } else { 0.0 };
        for i in 0..vs.rows() {
            vs.set(i, j, vs.get(i, j) * inv);
        }
    }
    Ok(vs.matmul_tr(&svd.u))
}

/// Solves the orthogonal Procrustes problem `min_Q ‖A Q − B‖_F` over
/// orthogonal `Q`, returning `Q = U Vᵀ` where `AᵀB = U Σ Vᵀ`.
///
/// Used by CONE's embedding-space alignment step.
///
/// # Errors
/// Propagates SVD failures.
///
/// # Panics
/// Panics if `A` and `B` have different shapes.
pub fn procrustes(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
    assert_eq!(a.shape(), b.shape(), "procrustes: shape mismatch");
    let m = a.tr_matmul(b); // d × d
    let svd = thin_svd(&m)?;
    Ok(svd.u.matmul_tr(&svd.v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svd_of_diagonal() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
        let s = thin_svd(&a).unwrap();
        assert!((s.sigma[0] - 4.0).abs() < 1e-10);
        assert!((s.sigma[1] - 3.0).abs() < 1e-10);
        assert!(s.reconstruct().sub(&a).max_abs() < 1e-10);
    }

    #[test]
    fn svd_reconstructs_random_tall_and_wide() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n) in &[(8, 5), (5, 8), (6, 6), (1, 4), (4, 1)] {
            let a = DenseMatrix::from_fn(m, n, |_, _| rng.random_range(-2.0..2.0));
            let s = thin_svd(&a).unwrap();
            let err = s.reconstruct().sub(&a).max_abs();
            assert!(err < 1e-8, "reconstruction error {err} for {m}x{n}");
            // U and V have orthonormal columns.
            let k = m.min(n);
            assert!(s.u.tr_matmul(&s.u).sub(&DenseMatrix::identity(k)).max_abs() < 1e-8);
            assert!(s.v.tr_matmul(&s.v).sub(&DenseMatrix::identity(k)).max_abs() < 1e-8);
            // Descending.
            for w in s.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn rank_detection_on_rank_deficient_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(1e-10), 1);
        assert!(s.reconstruct().sub(&a).max_abs() < 1e-9);
    }

    #[test]
    fn pinv_satisfies_moore_penrose_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let p = pinv(&a, 1e-12).unwrap();
        // A * A⁺ * A = A
        let apa = a.matmul(&p).matmul(&a);
        assert!(apa.sub(&a).max_abs() < 1e-9);
        // A⁺ * A * A⁺ = A⁺
        let pap = p.matmul(&a).matmul(&p);
        assert!(pap.sub(&p).max_abs() < 1e-9);
    }

    #[test]
    fn pinv_of_singular_matrix_is_finite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let p = pinv(&a, 1e-6).unwrap();
        assert!(p.all_finite());
        // pinv of rank-1 [[1,1],[1,1]] is [[.25,.25],[.25,.25]]
        assert!((p.get(0, 0) - 0.25).abs() < 1e-10);
    }

    #[test]
    fn procrustes_recovers_rotation() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        // Random orthogonal Q via QR.
        let raw = DenseMatrix::from_fn(4, 4, |_, _| rng.random_range(-1.0..1.0));
        let q = crate::qr::thin_qr(&raw).q;
        let a = DenseMatrix::from_fn(20, 4, |_, _| rng.random_range(-1.0..1.0));
        let b = a.matmul(&q);
        let q_hat = procrustes(&a, &b).unwrap();
        assert!(q_hat.sub(&q).max_abs() < 1e-8, "Procrustes failed to recover rotation");
    }

    #[test]
    fn empty_input() {
        let s = thin_svd(&DenseMatrix::zeros(0, 3)).unwrap();
        assert!(s.sigma.is_empty());
    }

    #[test]
    fn rejects_non_finite() {
        let a = DenseMatrix::from_rows(&[&[f64::INFINITY]]);
        assert!(matches!(thin_svd(&a), Err(LinalgError::NotFinite { .. })));
    }
}
