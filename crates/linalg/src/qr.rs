//! Householder QR factorization.
//!
//! Used for (a) re-orthonormalizing the low-rank factors LREA accumulates
//! and (b) as the preconditioning step of the thin SVD in [`crate::svd`].
//!
//! Applying a reflector needs the dot product of `v` with every trailing
//! column. Those are formed row by row, in axpy form — `dots += vᵢ · row i`
//! — so every pass reads contiguous memory, while each dot still sums its
//! terms in ascending row order, exactly like a column-by-column loop.

use crate::dense::DenseMatrix;
use graphalign_par as par;

/// A thin QR factorization `A = Q R` with `Q` of shape `m × k`,
/// `R` of shape `k × k`, `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct ThinQr {
    /// Orthonormal columns spanning the column space of `A`.
    pub q: DenseMatrix,
    /// Upper-triangular factor.
    pub r: DenseMatrix,
}

/// Computes a thin Householder QR factorization of `a` (`m × n`).
///
/// Works for any shape; for `m < n` the factorization is `A = Q R` with `Q`
/// `m × m` orthogonal and `R` `m × n` upper-trapezoidal.
pub fn thin_qr(a: &DenseMatrix) -> ThinQr {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut r = a.clone();
    // Householder vectors stored column-by-column.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 0..k {
        // Build the Householder reflector for column j, rows j..m.
        let mut v: Vec<f64> = (j..m).map(|i| r.get(i, j)).collect();
        let alpha = {
            let norm = crate::vec_ops::norm2(&v);
            if v[0] >= 0.0 {
                -norm
            } else {
                norm
            }
        };
        if alpha == 0.0 {
            // Column already zero below the diagonal; identity reflector.
            vs.push(vec![0.0; m - j]);
            continue;
        }
        v[0] -= alpha;
        let vnorm = crate::vec_ops::norm2(&v);
        if vnorm <= f64::MIN_POSITIVE {
            vs.push(vec![0.0; m - j]);
            continue;
        }
        for vi in v.iter_mut() {
            *vi /= vnorm;
        }
        // Apply reflector H = I - 2 v vᵀ to R[j.., j..]. The dot products
        // `vᵀ R[j.., col]` are split over column blocks that run in
        // parallel, as are the row-block updates; arithmetic order per
        // entry is unchanged.
        let dots = reflector_dots(&v, &r, j, j);
        let sub = &mut r.as_mut_slice()[j * n..];
        par::for_each_row_block_mut(sub, n, n - j, |rows, block| {
            for (off, row) in block.chunks_mut(n).enumerate() {
                let vi = v[rows.start + off];
                for (c, &d) in dots.iter().enumerate() {
                    row[j + c] -= 2.0 * d * vi;
                }
            }
        });
        vs.push(v);
    }
    // Accumulate Q by applying the reflectors (in reverse) to the first k
    // columns of the identity.
    let mut q = DenseMatrix::zeros(m, k);
    for j in 0..k {
        q.set(j, j, 1.0);
    }
    for j in (0..k).rev() {
        let v = &vs[j];
        if v.iter().all(|&x| x == 0.0) {
            continue;
        }
        let dots = reflector_dots(v, &q, j, 0);
        let sub = &mut q.as_mut_slice()[j * k..];
        par::for_each_row_block_mut(sub, k, k, |rows, block| {
            for (off, row) in block.chunks_mut(k).enumerate() {
                let vi = v[rows.start + off];
                for (col, &d) in dots.iter().enumerate() {
                    row[col] -= 2.0 * d * vi;
                }
            }
        });
    }
    // Truncate R to k × n (thin form).
    let mut r = r.into_vec();
    r.truncate(k * n);
    ThinQr { q, r: DenseMatrix::from_vec(k, n, r) }
}

/// `dots[c] = Σ_t v[t] · a[row0 + t][col0 + c]` for every column from
/// `col0` on, accumulated row by row: each dot sums its terms in ascending
/// `t` starting from `0.0`, while every pass reads a contiguous row
/// segment. Column blocks run in parallel; a block's values do not depend
/// on how the columns are split.
fn reflector_dots(v: &[f64], a: &DenseMatrix, row0: usize, col0: usize) -> Vec<f64> {
    let mut dots = vec![0.0; a.cols() - col0];
    par::for_each_row_block_mut(&mut dots, 1, v.len(), |cols, chunk| {
        for (t, &vi) in v.iter().enumerate() {
            let row = &a.row(row0 + t)[col0 + cols.start..col0 + cols.end];
            for (d, &x) in chunk.iter_mut().zip(row) {
                *d += vi * x;
            }
        }
    });
    dots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &DenseMatrix, tol: f64) {
        let gram = q.tr_matmul(q);
        let id = DenseMatrix::identity(q.cols());
        assert!(gram.sub(&id).max_abs() < tol, "QᵀQ != I: {}", gram.sub(&id).max_abs());
    }

    #[test]
    fn qr_reconstructs_tall_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let f = thin_qr(&a);
        assert_eq!(f.q.shape(), (4, 2));
        assert_eq!(f.r.shape(), (2, 2));
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!(f.q.matmul(&f.r).sub(&a).max_abs() < 1e-12);
    }

    #[test]
    fn qr_reconstructs_wide_matrix() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 7.0]]);
        let f = thin_qr(&a);
        assert_eq!(f.q.shape(), (2, 2));
        assert_eq!(f.r.shape(), (2, 3));
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!(f.q.matmul(&f.r).sub(&a).max_abs() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = DenseMatrix::from_fn(5, 3, |i, j| ((i * 3 + j) as f64).sin());
        let f = thin_qr(&a);
        for i in 0..f.r.rows() {
            for j in 0..i.min(f.r.cols()) {
                assert!(f.r.get(i, j).abs() < 1e-12, "R[{i}][{j}] not zero");
            }
        }
    }

    #[test]
    fn rank_deficient_input_still_reconstructs() {
        // Second column is a multiple of the first.
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let f = thin_qr(&a);
        assert!(f.q.matmul(&f.r).sub(&a).max_abs() < 1e-12);
    }

    #[test]
    fn random_matrices_reconstruct() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n) in &[(6, 6), (10, 4), (4, 10), (1, 5), (5, 1)] {
            let a = DenseMatrix::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0));
            let f = thin_qr(&a);
            assert!(
                f.q.matmul(&f.r).sub(&a).max_abs() < 1e-11,
                "reconstruction failed for {m}x{n}"
            );
            assert_orthonormal_cols(&f.q, 1e-10);
        }
    }
}
