//! Bitwise regression tests for the dense factorization kernels.
//!
//! `symmetric_eigen` (row-layout tred2/tql2), the tridiagonal entry
//! `tridiagonal_eigen`, `thin_qr` (row-by-row reflector dots), `thin_svd`
//! (null-column completion over a transposed copy) and `lanczos` (tridiagonal
//! hand-off and GEMM Ritz vectors) promise the exact floating-point results
//! of the textbook column-major formulations they replaced. Those
//! formulations live in [`reference`] below, the way `matmul_reference`
//! lives in `proptests.rs`, and every test compares `to_bits()`.

use graphalign_linalg::eigen::{symmetric_eigen, tridiagonal_eigen, SymmetricEigen};
use graphalign_linalg::lanczos::{lanczos, Which};
use graphalign_linalg::qr::{thin_qr, ThinQr};
use graphalign_linalg::svd::{thin_svd, ThinSvd};
use graphalign_linalg::{CsrMatrix, DenseMatrix, LinalgError};
use proptest::prelude::*;
use rand::prelude::*;

/// The column-major algorithms, as they were before the row-layout kernels.
/// Index loops kept as in the library crate, which allows them crate-wide.
#[allow(clippy::needless_range_loop)]
mod reference {
    use graphalign_linalg::eigen::SymmetricEigen;
    use graphalign_linalg::lanczos::Which;
    use graphalign_linalg::qr::ThinQr;
    use graphalign_linalg::svd::ThinSvd;
    use graphalign_linalg::{vec_ops, DenseMatrix, LinalgError, LinearOp};
    use rand::prelude::*;

    /// EISPACK `tred2` + `tql2` with eigenvectors as columns of `v`.
    pub fn symmetric_eigen(m: &DenseMatrix) -> Result<SymmetricEigen, LinalgError> {
        assert_eq!(m.rows(), m.cols());
        if !m.all_finite() {
            return Err(LinalgError::NotFinite { routine: "symmetric_eigen" });
        }
        let n = m.rows();
        if n == 0 {
            return Ok(SymmetricEigen { values: Vec::new(), vectors: DenseMatrix::zeros(0, 0) });
        }
        let mut v = m.clone();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2(&mut v, &mut d, &mut e);
        tql2(&mut v, &mut d, &mut e)?;
        Ok(SymmetricEigen { values: d, vectors: v })
    }

    fn tred2(v: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) {
        let n = d.len();
        for j in 0..n {
            d[j] = v.get(n - 1, j);
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
                    d[j] = v.get(l, j);
                    v.set(i, j, 0.0);
                    v.set(j, i, 0.0);
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
                for item in e.iter_mut().take(l + 1) {
                    *item = 0.0;
                }
                for j in 0..=l {
                    f = d[j];
                    v.set(j, i, f);
                    g = e[j] + v.get(j, j) * f;
                    for k in (j + 1)..=l {
                        g += v.get(k, j) * d[k];
                        e[k] += v.get(k, j) * f;
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
                    for k in j..=l {
                        let upd = v.get(k, j) - (f * e[k] + g * d[k]);
                        v.set(k, j, upd);
                    }
                    d[j] = v.get(l, j);
                    v.set(i, j, 0.0);
                }
            }
            d[i] = h;
        }
        for i in 0..n - 1 {
            v.set(n - 1, i, v.get(i, i));
            v.set(i, i, 1.0);
            let h = d[i + 1];
            if h != 0.0 {
                for k in 0..=i {
                    d[k] = v.get(k, i + 1) / h;
                }
                for j in 0..=i {
                    let mut g = 0.0;
                    for k in 0..=i {
                        g += v.get(k, i + 1) * v.get(k, j);
                    }
                    for k in 0..=i {
                        let upd = v.get(k, j) - g * d[k];
                        v.set(k, j, upd);
                    }
                }
            }
            for k in 0..=i {
                v.set(k, i + 1, 0.0);
            }
        }
        for j in 0..n {
            d[j] = v.get(n - 1, j);
            v.set(n - 1, j, 0.0);
        }
        v.set(n - 1, n - 1, 1.0);
        e[0] = 0.0;
    }

    fn tql2(v: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
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
                    if iter > 50 {
                        return Err(LinalgError::NoConvergence {
                            routine: "tql2",
                            iterations: iter,
                        });
                    }
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
                        for k in 0..n {
                            h = v.get(k, i + 1);
                            v.set(k, i + 1, s * v.get(k, i) + c * h);
                            v.set(k, i, c * v.get(k, i) - s * h);
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
                for row in 0..n {
                    let tmp = v.get(row, i);
                    v.set(row, i, v.get(row, k));
                    v.set(row, k, tmp);
                }
            }
        }
        Ok(())
    }

    /// Householder QR with each reflector's dot products formed column by
    /// column.
    pub fn thin_qr(a: &DenseMatrix) -> ThinQr {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        let mut r = a.clone();
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
        for j in 0..k {
            let mut v: Vec<f64> = (j..m).map(|i| r.get(i, j)).collect();
            let norm = vec_ops::norm2(&v);
            let alpha = if v[0] >= 0.0 { -norm } else { norm };
            if alpha == 0.0 {
                vs.push(vec![0.0; m - j]);
                continue;
            }
            v[0] -= alpha;
            let vnorm = vec_ops::norm2(&v);
            if vnorm <= f64::MIN_POSITIVE {
                vs.push(vec![0.0; m - j]);
                continue;
            }
            for vi in v.iter_mut() {
                *vi /= vnorm;
            }
            let dots: Vec<f64> = (0..n - j)
                .map(|c| {
                    let mut dot = 0.0;
                    for (t, &vi) in v.iter().enumerate() {
                        dot += vi * r.get(j + t, j + c);
                    }
                    dot
                })
                .collect();
            for (t, &vi) in v.iter().enumerate() {
                for (c, &d) in dots.iter().enumerate() {
                    let upd = r.get(j + t, j + c) - 2.0 * d * vi;
                    r.set(j + t, j + c, upd);
                }
            }
            vs.push(v);
        }
        let mut q = DenseMatrix::zeros(m, k);
        for j in 0..k {
            q.set(j, j, 1.0);
        }
        for j in (0..k).rev() {
            let v = &vs[j];
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let dots: Vec<f64> = (0..k)
                .map(|col| {
                    let mut dot = 0.0;
                    for (t, &vi) in v.iter().enumerate() {
                        dot += vi * q.get(j + t, col);
                    }
                    dot
                })
                .collect();
            for (t, &vi) in v.iter().enumerate() {
                for (col, &d) in dots.iter().enumerate() {
                    let upd = q.get(j + t, col) - 2.0 * d * vi;
                    q.set(j + t, col, upd);
                }
            }
        }
        let r_thin = DenseMatrix::from_fn(k, n, |i, j| r.get(i, j));
        ThinQr { q, r: r_thin }
    }

    /// Thin SVD over the reference QR and eigensolver, completing null
    /// columns with a strided copy of every other column per candidate.
    pub fn thin_svd(a: &DenseMatrix) -> Result<ThinSvd, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Ok(ThinSvd {
                u: DenseMatrix::zeros(m, 0),
                sigma: Vec::new(),
                v: DenseMatrix::zeros(n, 0),
            });
        }
        if m < n {
            let s = thin_svd(&a.transpose())?;
            return Ok(ThinSvd { u: s.v, sigma: s.sigma, v: s.u });
        }
        let qr = thin_qr(a);
        let r = &qr.r;
        let eig = symmetric_eigen(&r.tr_matmul(r))?;
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
        complete_orthonormal(&mut u_small, &sigma, tol);
        let u = qr.q.matmul(&u_small);
        Ok(ThinSvd { u, sigma, v })
    }

    fn complete_orthonormal(u: &mut DenseMatrix, sigma: &[f64], tol: f64) {
        let n = u.rows();
        let k = u.cols();
        for j in 0..k {
            if sigma[j] > tol && sigma[j] > 0.0 {
                continue;
            }
            'candidates: for cand in 0..n {
                let mut v = vec![0.0; n];
                v[cand] = 1.0;
                for other in 0..k {
                    if other == j {
                        continue;
                    }
                    let col: Vec<f64> = (0..n).map(|i| u.get(i, other)).collect();
                    let proj = vec_ops::dot(&v, &col);
                    vec_ops::axpy(-proj, &col, &mut v);
                }
                if vec_ops::normalize(&mut v) > 1e-8 {
                    for (i, &vi) in v.iter().enumerate() {
                        u.set(i, j, vi);
                    }
                    break 'candidates;
                }
            }
        }
    }

    fn orthogonalize_against(basis: &[Vec<f64>], w: &mut [f64]) {
        let projs: Vec<f64> = basis.iter().map(|b| vec_ops::dot(w, b)).collect();
        for (b, &proj) in basis.iter().zip(&projs) {
            vec_ops::axpy(-proj, b, w);
        }
    }

    /// Lanczos with the dense projected matrix, the reference eigensolver
    /// and the per-element Ritz loop; returns `(values, vectors)`.
    pub fn lanczos(
        op: &dyn LinearOp,
        k: usize,
        which: Which,
        max_dim: usize,
        seed: u64,
    ) -> Result<(Vec<f64>, DenseMatrix), LinalgError> {
        let n = op.dim();
        let m = max_dim.clamp(k.saturating_mul(2).min(n), n).max(k);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut alpha: Vec<f64> = Vec::with_capacity(m);
        let mut beta: Vec<f64> = Vec::with_capacity(m);
        let mut q = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect::<Vec<f64>>();
        assert!(vec_ops::normalize(&mut q) != 0.0);
        let mut w = vec![0.0; n];
        for j in 0..m {
            basis.push(q.clone());
            op.apply(&q, &mut w);
            let a_j = vec_ops::dot(&w, &q);
            alpha.push(a_j);
            vec_ops::axpy(-a_j, &q, &mut w);
            if j > 0 {
                let b_prev = beta[j - 1];
                vec_ops::axpy(-b_prev, &basis[j - 1], &mut w);
            }
            orthogonalize_against(&basis, &mut w);
            orthogonalize_against(&basis, &mut w);
            let b_j = vec_ops::norm2(&w);
            if j + 1 == m {
                break;
            }
            if b_j < 1e-12 {
                let mut fresh: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                orthogonalize_against(&basis, &mut fresh);
                orthogonalize_against(&basis, &mut fresh);
                if vec_ops::normalize(&mut fresh) == 0.0 {
                    beta.push(0.0);
                    break;
                }
                beta.push(0.0);
                q = fresh;
            } else {
                beta.push(b_j);
                std::mem::swap(&mut q, &mut w);
                vec_ops::scale(1.0 / b_j, &mut q);
            }
        }
        let dim = basis.len();
        let mut t = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            t.set(i, i, alpha[i]);
            if i + 1 < dim {
                let b = beta.get(i).copied().unwrap_or(0.0);
                t.set(i, i + 1, b);
                t.set(i + 1, i, b);
            }
        }
        let eig = symmetric_eigen(&t)?;
        let indices: Vec<usize> = match which {
            Which::Smallest => (0..k.min(dim)).collect(),
            Which::Largest => (0..k.min(dim)).map(|i| dim - 1 - i).collect(),
        };
        let values: Vec<f64> = indices.iter().map(|&src| eig.values[src]).collect();
        let coefs: Vec<Vec<f64>> = indices
            .iter()
            .map(|&src| (0..dim).map(|i| eig.vectors.get(i, src)).collect())
            .collect();
        let mut vectors = DenseMatrix::from_fn(n, indices.len(), |row, out_j| {
            let mut acc = 0.0;
            for (i, b) in basis.iter().enumerate() {
                acc += coefs[out_j][i] * b[row];
            }
            acc
        });
        for j in 0..vectors.cols() {
            let mut col = vectors.col(j);
            vec_ops::normalize(&mut col);
            for (i, &v) in col.iter().enumerate() {
                vectors.set(i, j, v);
            }
        }
        Ok((values, vectors))
    }
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

fn same_matrix(x: &DenseMatrix, y: &DenseMatrix) -> bool {
    x.shape() == y.shape() && same_bits(x.as_slice(), y.as_slice())
}

/// Equal eigendecompositions bit for bit, or the same error.
fn same_eigen(
    x: &Result<SymmetricEigen, LinalgError>,
    y: &Result<SymmetricEigen, LinalgError>,
) -> bool {
    match (x, y) {
        (Ok(a), Ok(b)) => same_bits(&a.values, &b.values) && same_matrix(&a.vectors, &b.vectors),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

fn same_qr(x: &ThinQr, y: &ThinQr) -> bool {
    same_matrix(&x.q, &y.q) && same_matrix(&x.r, &y.r)
}

fn same_svd(x: &ThinSvd, y: &ThinSvd) -> bool {
    same_matrix(&x.u, &y.u) && same_bits(&x.sigma, &y.sigma) && same_matrix(&x.v, &y.v)
}

/// An off-diagonal entry of one of the special classes the tridiagonal
/// hand-off must get exactly right: both signed zeros, subnormals, and
/// negative values.
fn special_off(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE * rng.random_range(-1.0..1.0),
        3 => -rng.random_range(0.0..1.0f64),
        _ => rng.random_range(-1.0..1.0),
    }
}

/// A tridiagonal `(diag, off)` of size `n` from one of several classes,
/// scaled by 1, 1e-300, 1e307, just under `f64::MAX / 2`, or above it.
/// The large scales overflow the QL shifts on some inputs, and above
/// `f64::MAX / 2` the Householder reduction itself overflows; the tridiagonal
/// entry must report every such outcome exactly as the dense path does.
fn tridiagonal(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let class = rng.random_range(0..4u32);
    let scale = [1.0, 1.0, 1.0, 1e-300, 1e307, 8.98e307, 1.7e308][rng.random_range(0..7usize)];
    let diag: Vec<f64> = (0..n)
        .map(|_| match class {
            // Subnormal, tiny normal and zero diagonal entries.
            0 => match rng.random_range(0..5u32) {
                0 => 0.0,
                1 => -0.0,
                2 => 2.0 * f64::MIN_POSITIVE * rng.random_range(-1.0..1.0),
                _ => f64::MIN_POSITIVE * rng.random_range(-1.0..1.0),
            },
            // Repeated diagonal values.
            1 => f64::from(rng.random_range(0..3u32)),
            _ => rng.random_range(-1.0..1.0),
        })
        .map(|x| x * scale)
        .collect();
    let off: Vec<f64> = (0..n.saturating_sub(1))
        .map(|_| if class == 3 { rng.random_range(-1.0..1.0) } else { special_off(&mut rng) })
        .map(|x| x * scale)
        .collect();
    (diag, off)
}

fn dense_tridiagonal(diag: &[f64], off: &[f64]) -> DenseMatrix {
    let n = diag.len();
    let mut t = DenseMatrix::zeros(n, n);
    for i in 0..n {
        t.set(i, i, diag[i]);
        if i + 1 < n {
            t.set(i, i + 1, off[i]);
            t.set(i + 1, i, off[i]);
        }
    }
    t
}

/// A symmetric matrix of size `n` from one of the classes that exercise
/// distinct `tred2`/`tql2` branches: dense random, zero rows and columns
/// (`tred2`'s `scale == 0` branch), diagonal, repeated eigenvalues, and a
/// rank-deficient Gram matrix. The strictly upper triangle of the random
/// class holds unrelated values, which neither path may read.
fn symmetric_of_class(n: usize, class: u32, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let sym = |rng: &mut StdRng| {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.random_range(-1.0..1.0);
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    };
    match class {
        0 => {
            let mut m = sym(&mut rng);
            for i in 0..n {
                for j in i + 1..n {
                    m.set(i, j, rng.random_range(-9.0..9.0));
                }
            }
            m
        }
        1 => {
            let mut m = sym(&mut rng);
            for z in (0..n).filter(|_| rng.random_range(0..3u32) == 0) {
                for j in 0..n {
                    m.set(z, j, 0.0);
                    m.set(j, z, 0.0);
                }
            }
            m
        }
        2 => DenseMatrix::from_fn(n, n, |i, j| if i == j { (i % 3) as f64 - 1.0 } else { 0.0 }),
        3 => {
            // Q diag(λ) Qᵀ with λ drawn from {-1, 2}: two eigenvalues of
            // high multiplicity.
            let q = thin_qr(&sym(&mut rng)).q;
            let lambda: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { -1.0 } else { 2.0 }).collect();
            let mut ql = q.clone();
            for i in 0..n {
                for (j, &l) in lambda.iter().enumerate() {
                    ql.set(i, j, ql.get(i, j) * l);
                }
            }
            ql.matmul_tr(&q)
        }
        _ => {
            let r = (n / 2).max(1);
            let a = DenseMatrix::from_fn(r, n, |_, _| rng.random_range(-1.0..1.0));
            a.tr_matmul(&a)
        }
    }
}

/// A dense `m × n` matrix of rank at most `rank`; with `zero_lines` set,
/// its first three rows and first three columns are exactly zero as well.
/// Those give exactly zero singular values in `thin_svd`: the Gram matrix
/// then has three leading zero rows, which `tred2` and `tql2` keep exact.
fn low_rank(m: usize, n: usize, rank: usize, zero_lines: bool, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = DenseMatrix::from_fn(m, rank, |_, _| rng.random_range(-1.0..1.0));
    let c = DenseMatrix::from_fn(rank, n, |_, _| rng.random_range(-1.0..1.0));
    let a = b.matmul(&c);
    if !zero_lines {
        return a;
    }
    DenseMatrix::from_fn(m, n, |i, j| if i < 3 || j < 3 { 0.0 } else { a.get(i, j) })
}

/// A sparse symmetric operator with roughly `density` of its entries set,
/// optionally split into two disconnected blocks (which forces Lanczos'
/// restart path).
fn sparse_symmetric(n: usize, density: f64, split: bool, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..=i {
            if split && (i < n / 2) != (j < n / 2) {
                continue;
            }
            if i == j || rng.random_range(0.0..1.0) < density {
                let v: f64 = rng.random_range(-1.0..1.0);
                triplets.push((i, j, v));
                if i != j {
                    triplets.push((j, i, v));
                }
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tridiagonal entry equals `symmetric_eigen` of the dense matrix
    /// (and the column-major reference) bit for bit, including the
    /// `NoConvergence` it reports on inputs that overflow.
    #[test]
    fn tridiagonal_entry_matches_dense_eigen(n in 1usize..40, seed in any::<u64>()) {
        let (diag, off) = tridiagonal(n, seed);
        let t = dense_tridiagonal(&diag, &off);
        let entry = tridiagonal_eigen(&diag, &off);
        prop_assert!(same_eigen(&entry, &symmetric_eigen(&t)), "n={n} seed={seed}");
        prop_assert!(same_eigen(&entry, &reference::symmetric_eigen(&t)), "n={n} seed={seed}");
    }

    /// `symmetric_eigen` reproduces the column-major tred2/tql2.
    #[test]
    fn symmetric_eigen_matches_reference(n in 1usize..36, class in 0u32..5, seed in any::<u64>()) {
        let m = symmetric_of_class(n, class, seed);
        prop_assert!(
            same_eigen(&symmetric_eigen(&m), &reference::symmetric_eigen(&m)),
            "n={n} class={class} seed={seed}"
        );
    }

    /// `thin_qr` reproduces the column-by-column reflector dots on tall,
    /// wide, square and rank-deficient inputs.
    #[test]
    fn thin_qr_matches_reference(m in 1usize..30, n in 1usize..30, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = DenseMatrix::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0));
        prop_assert!(same_qr(&thin_qr(&dense), &reference::thin_qr(&dense)), "{m}x{n}");
        let deficient = low_rank(m, n, (m.min(n) / 2).max(1), seed.is_multiple_of(2), seed);
        prop_assert!(same_qr(&thin_qr(&deficient), &reference::thin_qr(&deficient)), "{m}x{n}");
    }

    /// `thin_svd` reproduces the reference pipeline on tall and wide
    /// inputs where at least three columns need the orthonormal
    /// completion (exact zero rows and columns make their singular values
    /// exactly zero).
    #[test]
    fn thin_svd_matches_reference(n in 7usize..24, extra in 0usize..8, seed in any::<u64>()) {
        let rank = 1 + (seed % (n as u64 - 3)) as usize;
        for a in [low_rank(n + extra, n, rank, true, seed), low_rank(n, n + extra, rank, true, seed)] {
            let got = thin_svd(&a).unwrap();
            prop_assert!(same_svd(&got, &reference::thin_svd(&a).unwrap()), "{:?}", a.shape());
            let tol = got.sigma[0] * 1e-13;
            let completed = got.sigma.iter().filter(|&&s| !(s > tol && s > 0.0)).count();
            prop_assert!(completed >= 3, "only {completed} completed columns");
        }
    }

    /// Lanczos values and Ritz vectors reproduce the dense-T, per-element
    /// Ritz loop, through both the regular and the restart path.
    #[test]
    fn lanczos_matches_reference(
        n in 2usize..48,
        k_frac in 0.0f64..1.0,
        split in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let op = sparse_symmetric(n, 0.15, split, seed);
        let k = 1 + ((n - 1) as f64 * k_frac) as usize;
        for (which, max_dim) in [(Which::Largest, n), (Which::Smallest, 2 * k + 3)] {
            let got = lanczos(&op, k, which, max_dim, seed).unwrap();
            let (values, vectors) = reference::lanczos(&op, k, which, max_dim, seed).unwrap();
            prop_assert!(same_bits(&got.values, &values), "values n={n} k={k}");
            prop_assert!(same_matrix(&got.vectors, &vectors), "vectors n={n} k={k}");
        }
    }
}

/// The sizes the random ranges rarely or never reach, pinned: the
/// tridiagonal entry at n = 1 and 2 with every special coupling, and
/// `symmetric_eigen` at an odd n = 129 in every matrix class.
#[test]
fn pinned_sizes_match_reference() {
    for diag in [[0.5, -0.25], [0.0, 0.0], [f64::MIN_POSITIVE / 4.0, 1.0]] {
        for off in [0.0, -0.0, 1e-310, -0.75, 2.0] {
            let t = dense_tridiagonal(&diag, &[off]);
            let entry = tridiagonal_eigen(&diag, &[off]);
            assert!(same_eigen(&entry, &reference::symmetric_eigen(&t)), "{diag:?} {off}");
        }
        let single = tridiagonal_eigen(&diag[..1], &[]);
        let t = dense_tridiagonal(&diag[..1], &[]);
        assert!(same_eigen(&single, &reference::symmetric_eigen(&t)), "n = 1, {diag:?}");
    }
    assert!(tridiagonal_eigen(&[], &[]).unwrap().values.is_empty());
    for class in 0..5 {
        let m = symmetric_of_class(129, class, 129 + u64::from(class));
        assert!(
            same_eigen(&symmetric_eigen(&m), &reference::symmetric_eigen(&m)),
            "n = 129, class {class}"
        );
    }
}

/// A Krylov size past the GEMM's 256-deep k-strip, so the Ritz product
/// accumulates across strips, as at CONE's fig11 shape.
#[test]
fn lanczos_past_one_gemm_strip_matches_reference() {
    let op = sparse_symmetric(300, 0.02, false, 300);
    let got = lanczos(&op, 40, Which::Largest, 270, 5).unwrap();
    let (values, vectors) = reference::lanczos(&op, 40, Which::Largest, 270, 5).unwrap();
    assert!(same_bits(&got.values, &values));
    assert!(same_matrix(&got.vectors, &vectors));
}

#[test]
fn tridiagonal_entry_rejects_non_finite() {
    let err = tridiagonal_eigen(&[1.0, f64::NAN], &[0.5]).unwrap_err();
    assert_eq!(err, LinalgError::NotFinite { routine: "symmetric_eigen" });
    let err = tridiagonal_eigen(&[1.0, 2.0], &[f64::INFINITY]).unwrap_err();
    assert_eq!(err, LinalgError::NotFinite { routine: "symmetric_eigen" });
}
