//! Exact dense symmetric eigendecomposition.
//!
//! The implementation is the classical two-stage EISPACK pipeline used by
//! every serious numerical library:
//!
//! 1. `tred2` — Householder reduction of a real symmetric matrix to
//!    tridiagonal form, accumulating the orthogonal transformation;
//! 2. `tql2` — implicit-shift QL iteration on the tridiagonal matrix.
//!
//! Both stages keep the transformation *transposed*: row `r` of the working
//! matrix is column `r` of EISPACK's `V`. A Givens rotation of `tql2` then
//! updates two adjacent rows, and every inner loop of `tred2` sweeps one
//! row contiguously, where the textbook column layout strides by `n` on
//! every access. Each element still sees the exact floating-point
//! operations of the column-major algorithm, in the same order, so the
//! results are bit-identical to it; the ordered dot products stay scalar
//! loops in ascending index order.
//!
//! The result is the full spectrum with orthonormal eigenvectors, suitable for
//! the modest dense systems this workspace needs (GRASP's base-alignment
//! blocks, Gram matrices inside [`crate::svd`], landmark matrices in REGAL,
//! Procrustes steps in CONE). For the *bottom-k* of large sparse Laplacians,
//! use [`crate::lanczos`] instead, which hands its projected tridiagonal
//! matrix straight to `tql2` through [`tridiagonal_eigen`].

use crate::dense::DenseMatrix;
use crate::LinalgError;
use graphalign_par::telemetry::{self, Convergence};

/// A full symmetric eigendecomposition `M = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Eigenvectors as *columns*, in the order of [`Self::values`].
    pub vectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Eigenvector for `values[k]`, as an owned column.
    pub fn vector(&self, k: usize) -> Vec<f64> {
        self.vectors.col(k)
    }
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle of `m` is read; the strictly upper triangle is
/// assumed to mirror it.
///
/// # Errors
/// Returns [`LinalgError::NotFinite`] for NaN/inf input and
/// [`LinalgError::NoConvergence`] if the QL iteration stalls (essentially
/// impossible for finite input).
///
/// # Panics
/// Panics if `m` is not square.
pub fn symmetric_eigen(m: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
    assert_eq!(m.rows(), m.cols(), "symmetric_eigen: matrix must be square");
    if !m.all_finite() {
        return Err(LinalgError::NotFinite { routine: "symmetric_eigen" });
    }
    let n = m.rows();
    if n == 0 {
        return Ok(SymmetricEigen { values: Vec::new(), vectors: DenseMatrix::zeros(0, 0) });
    }
    // Transposed copy: row j of `w` holds column j of `m`, so the lower
    // triangle `tred2` reads becomes the upper triangle of `w`.
    let mut w = m.transpose();
    let mut d = vec![0.0; n]; // diagonal
    let mut e = vec![0.0; n]; // off-diagonal
    tred2(&mut w, &mut d, &mut e);
    tql2(&mut w, &mut d, &mut e)?;
    // tql2 leaves eigenvalues sorted ascending with matching vector rows.
    Ok(SymmetricEigen { values: d, vectors: w.transpose() })
}

/// Eigendecomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` and sub-/super-diagonal `off`, bit-identical to
/// [`symmetric_eigen`] of the dense matrix.
///
/// On tridiagonal input `tred2` only flips signs, so this entry skips it
/// and hands `tql2` what `tred2` would: the off-diagonal
/// `e_i = s_i·s_{i−1}·off_{i−1}` and the starting transform `diag(s)`,
/// where `s_{n−1} = +1` and, for `l < n−1`, `s_l = −1` exactly when
/// `off_l ≠ 0` (the Householder step for row `l+1` reflects coordinate `l`
/// whenever that row has a nonzero coupling). The diagonal passes through
/// unchanged, except that on each reflected coordinate the arithmetic
/// `tred2` applies to it is replayed: it rounds when halving the entry
/// does. This saves the `O(n³)` reduction and the dense `n × n` input;
/// only entries above `f64::MAX / 2`, which overflow inside `tred2`, still
/// take the dense path.
///
/// # Errors
/// As [`symmetric_eigen`]: [`LinalgError::NotFinite`] for NaN/inf entries,
/// [`LinalgError::NoConvergence`] if the QL iteration stalls.
///
/// # Panics
/// Panics unless `off.len() + 1 == diag.len()` (or both are empty).
pub fn tridiagonal_eigen(diag: &[f64], off: &[f64]) -> Result<SymmetricEigen, LinalgError> {
    let (values, rows) = tridiagonal_eigen_rows(diag, off)?;
    Ok(SymmetricEigen { values, vectors: rows.transpose() })
}

/// [`tridiagonal_eigen`] with the eigenvectors left as *rows* (in the
/// order of the returned ascending eigenvalues), as `tql2` produces them.
pub(crate) fn tridiagonal_eigen_rows(
    diag: &[f64],
    off: &[f64],
) -> Result<(Vec<f64>, DenseMatrix), LinalgError> {
    let n = diag.len();
    assert_eq!(off.len() + 1, n.max(1), "tridiagonal_eigen: need diag.len() - 1 off-diagonals");
    if !diag.iter().chain(off).all(|x| x.is_finite()) {
        return Err(LinalgError::NotFinite { routine: "symmetric_eigen" });
    }
    if n == 0 {
        return Ok((Vec::new(), DenseMatrix::zeros(0, 0)));
    }
    if diag.iter().chain(off).any(|x| x.abs() > f64::MAX / 2.0) {
        // tred2 doubles entries, which overflows above f64::MAX / 2 into
        // inf/NaN the shortcut does not reproduce: take the dense path.
        let t = DenseMatrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => diag[i],
            1 => off[i.min(j)],
            _ => 0.0,
        });
        let eig = symmetric_eigen(&t)?;
        return Ok((eig.values, eig.vectors.transpose()));
    }
    let sign = |l: usize| if l + 1 < n && off[l] != 0.0 { -1.0 } else { 1.0 };
    let mut w = DenseMatrix::zeros(n, n);
    for l in 0..n {
        w.set(l, l, sign(l));
    }
    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    for i in 1..n {
        e[i] = sign(i) * sign(i - 1) * off[i - 1];
        if off[i - 1] != 0.0 {
            d[i - 1] = reflected_diagonal(diag[i - 1], sign(i) * off[i - 1]);
        }
    }
    tql2(&mut w, &mut d, &mut e)?;
    Ok((d, w))
}

/// The diagonal entry `tred2` leaves at coordinate `l` of a tridiagonal
/// matrix when the Householder step of row `l + 1`, whose only nonzero
/// coupling is `coupling`, reflects `l`: the operations `tred2` performs on
/// the nonzero terms, in its order. The result is `alpha` unless halving
/// `alpha` rounds (`0 < |alpha| < 2⁻¹⁰²¹`), or `alpha` is −0.0 and
/// `coupling` is negative (the result is then +0.0).
fn reflected_diagonal(alpha: f64, coupling: f64) -> f64 {
    let f = coupling / coupling.abs();
    let g = if f > 0.0 { -1.0 } else { 1.0 };
    let h = 1.0 - f * g;
    let u = f - g;
    // tred2 accumulates both sums from +0.0, which turns a −0.0 term into +0.0.
    let p = (0.0 + alpha * u) / h;
    let hh = (0.0 + p * u) / (h + h);
    let k = p - hh * u;
    alpha - (u * k + k * u)
}

/// Householder reduction to tridiagonal form (EISPACK `tred2`), on the
/// transposed layout.
///
/// On entry row `j` of `w` holds column `j` of the input (only `w[j][k]`
/// with `k ≥ j` is read). On exit `w` holds `Qᵀ` (so that `Qᵀ M Q` is
/// tridiagonal), `d` the diagonal and `e` the sub-diagonal (with
/// `e[0] = 0`). Every access `V[a][b]` of the column-major original reads
/// `w[b][a]` here, and each element is updated with the same operations in
/// the same order.
fn tred2(w: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = w.get(j, n - 1);
    }
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let mut scale = 0.0;
        for item in d.iter().take(l + 1) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[l];
            for j in 0..=l {
                d[j] = w.get(j, l);
                w.set(j, i, 0.0);
                w.set(i, j, 0.0);
            }
        } else {
            for item in d.iter_mut().take(l + 1) {
                *item /= scale;
                h += *item * *item;
            }
            let mut f = d[l];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[l] = f - g;
            e[..=l].fill(0.0);
            for j in 0..=l {
                f = d[j];
                w.set(i, j, f);
                let row = &w.row(j)[..=l];
                g = e[j] + row[j] * f;
                for k in (j + 1)..=l {
                    g += row[k] * d[k];
                }
                for (ek, &wk) in e[j + 1..=l].iter_mut().zip(&row[j + 1..]) {
                    *ek += wk * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..=l {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..=l {
                e[j] -= hh * d[j];
            }
            for j in 0..=l {
                f = d[j];
                g = e[j];
                let row = &mut w.row_mut(j)[j..=l];
                for ((wk, &ek), &dk) in row.iter_mut().zip(&e[j..=l]).zip(&d[j..=l]) {
                    *wk -= f * ek + g * dk;
                }
                d[j] = w.get(j, l);
                w.set(j, i, 0.0);
            }
        }
        d[i] = h;
    }
    for i in 0..n - 1 {
        let diag = w.get(i, i);
        w.set(i, n - 1, diag);
        w.set(i, i, 1.0);
        let h = d[i + 1];
        if h != 0.0 {
            // Row i + 1 holds the Householder vector of step i + 1.
            let (done, rest) = w.as_mut_slice().split_at_mut((i + 1) * n);
            let u = &rest[..=i];
            for (dk, &uk) in d[..=i].iter_mut().zip(u) {
                *dk = uk / h;
            }
            for row in done.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let mut g = 0.0;
                for (&uk, &wk) in u.iter().zip(row.iter()) {
                    g += uk * wk;
                }
                for (wk, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *wk -= g * dk;
                }
            }
        }
        w.row_mut(i + 1)[..=i].fill(0.0);
    }
    for j in 0..n {
        d[j] = w.get(j, n - 1);
        w.set(j, n - 1, 0.0);
    }
    w.set(n - 1, n - 1, 1.0);
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix
/// (EISPACK `tql2`), accumulating eigenvectors into the *rows* of `w`.
fn tql2(w: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    let eps = f64::EPSILON;
    let mut total_iters = 0usize;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m >= n {
            m = n - 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                total_iters += 1;
                if iter > 50 {
                    telemetry::record("tql2", Convergence::max_iter(total_iters, e[l].abs()));
                    return Err(LinalgError::NoConvergence { routine: "tql2", iterations: iter });
                }
                // Compute implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate the rotation into rows i and i + 1.
                    let (head, tail) = w.as_mut_slice().split_at_mut((i + 1) * n);
                    let (vi, vi1) = (&mut head[i * n..], &mut tail[..n]);
                    for (a, b) in vi.iter_mut().zip(vi1.iter_mut()) {
                        let t = *b;
                        *b = s * *a + c * t;
                        *a = c * *a - s * t;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }

    // Sort eigenvalues ascending, permuting vector rows to match.
    for i in 0..n - 1 {
        let mut k = i;
        let mut p = d[i];
        for (j, &dj) in d.iter().enumerate().take(n).skip(i + 1) {
            if dj < p {
                k = j;
                p = dj;
            }
        }
        if k != i {
            d.swap(i, k);
            let (head, tail) = w.as_mut_slice().split_at_mut(k * n);
            head[i * n..(i + 1) * n].swap_with_slice(&mut tail[..n]);
        }
    }
    telemetry::record("tql2", Convergence::tolerance(total_iters, 0.0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> DenseMatrix {
        let n = e.values.len();
        let lambda = DenseMatrix::from_fn(n, n, |i, j| if i == j { e.values[i] } else { 0.0 });
        e.vectors.matmul(&lambda).matmul_tr(&e.vectors)
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_its_diagonal() {
        let m = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = symmetric_eigen(&m).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let m = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = symmetric_eigen(&m).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthonormality_random_symmetric() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 25;
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v: f64 = rng.random_range(-1.0..1.0);
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        let e = symmetric_eigen(&m).unwrap();
        // Reconstruction.
        let err = reconstruct(&e).sub(&m).max_abs();
        assert!(err < 1e-9, "reconstruction error {err}");
        // VᵀV = I.
        let gram = e.vectors.tr_matmul(&e.vectors);
        let id = DenseMatrix::identity(n);
        assert!(gram.sub(&id).max_abs() < 1e-10);
        // Ascending order.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn path_graph_laplacian_spectrum() {
        // Unnormalized Laplacian of the path on 3 nodes: eigenvalues 0, 1, 3.
        let m = DenseMatrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let e = symmetric_eigen(&m).unwrap();
        assert!((e.values[0]).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let e = symmetric_eigen(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        let e = symmetric_eigen(&DenseMatrix::from_rows(&[&[5.0]])).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert_eq!(e.vectors.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn rejects_nan() {
        let m = DenseMatrix::from_rows(&[&[f64::NAN]]);
        assert!(matches!(symmetric_eigen(&m), Err(LinalgError::NotFinite { .. })));
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let m = DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let e = symmetric_eigen(&m).unwrap();
        for k in 0..3 {
            let v = e.vector(k);
            let mv = m.mul_vec(&v);
            for i in 0..3 {
                assert!((mv[i] - e.values[k] * v[i]).abs() < 1e-10);
            }
        }
    }
}
