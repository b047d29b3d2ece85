//! Row-major dense `f64` matrices.
//!
//! [`DenseMatrix`] is the workhorse representation for the similarity matrices
//! the alignment algorithms exchange with the assignment solvers, for
//! embedding matrices (rows = nodes), and for the small square systems inside
//! the eigen/SVD/QR routines. Hot products are parallelized over row blocks
//! through [`graphalign_par`] (matching the paper's many-core testbed); the
//! chunking is deterministic, so results are identical for any thread count
//! and for the sequential `--no-default-features` build.

use crate::simd;
use crate::vec_ops;
use crate::workspace::Workspace;
use graphalign_par as par;

/// k-tile depth of the blocked product: one packed strip covers up to
/// `GEMM_KC` rows of the right-hand side.
const GEMM_KC: usize = 256;
/// Column width of one packed panel: `GEMM_KC × GEMM_NC` f64 ≈ 256 KB,
/// sized so a panel stays L2-resident while every output row streams over
/// it, and an `nc`-wide output segment stays in L1.
const GEMM_NC: usize = 128;
/// Multiply-add count below which the plain triple loop beats packing.
const GEMM_SMALL: usize = 1 << 15;

/// Cache-blocked row-major GEMM core: `out ← a · b` with `a: m×k`, `b: k×n`.
///
/// The right-hand side is packed one k-strip at a time into panel-major
/// scratch (drawn from `ws`), and the strip's contribution is added to
/// every output row in parallel over the fixed row-block schedule. Each
/// output element accumulates its k terms in ascending order — strips
/// ascending, then ascending within a strip — so the result is
/// bit-identical to the naive ikj loop at every thread count and for any
/// blocking parameters.
fn gemm_core(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k, "gemm_core: lhs length mismatch");
    debug_assert_eq!(b.len(), k * n, "gemm_core: rhs length mismatch");
    debug_assert_eq!(out.len(), m * n, "gemm_core: output length mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    if m * k * n <= GEMM_SMALL {
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (&a_il, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                for (o, &b_lj) in out_row.iter_mut().zip(b_row) {
                    *o += a_il * b_lj;
                }
            }
        }
        return;
    }
    let mut packed = ws.take(GEMM_KC.min(k) * GEMM_NC.min(n));
    for kt in (0..k).step_by(GEMM_KC) {
        let kc = GEMM_KC.min(k - kt);
        for jt in (0..n).step_by(GEMM_NC) {
            let nc = GEMM_NC.min(n - jt);
            // Pack just this kc×nc panel into micro-strip layout (see
            // simd::pack_panel): one panel is ≈ kc·nc·8 bytes, small enough
            // to stay L2-resident while every output row streams over it,
            // and the microkernels read it purely sequentially.
            let panel = &mut packed[..kc * nc];
            simd::pack_panel(b, n, kt, jt, kc, nc, panel);
            let panel = &packed[..kc * nc];
            par::for_each_row_block_mut(out, n, kc.saturating_mul(nc), |rows, block| {
                // Rows four at a time: the 4×8 register tile loads each
                // packed strip row once per four output rows. None of the
                // blocking changes which terms reach an output element or
                // in what order: each element is touched exactly once per
                // (kt, jt) pair, accumulating ascending-`l` — strips
                // ascending, ascending within a strip.
                let nrows = block.len() / n;
                let seg = |r: usize| {
                    let base = (rows.start + r) * k + kt;
                    &a[base..base + kc]
                };
                let mut r = 0;
                while r + 4 <= nrows {
                    let quad = &mut block[r * n..(r + 4) * n];
                    let (q0, rest) = quad.split_at_mut(n);
                    let (q1, rest) = rest.split_at_mut(n);
                    let (q2, q3) = rest.split_at_mut(n);
                    simd::gemm_tile_packed(
                        [seg(r), seg(r + 1), seg(r + 2), seg(r + 3)],
                        panel,
                        nc,
                        [
                            &mut q0[jt..jt + nc],
                            &mut q1[jt..jt + nc],
                            &mut q2[jt..jt + nc],
                            &mut q3[jt..jt + nc],
                        ],
                    );
                    r += 4;
                }
                for out_row in block[r * n..nrows * n].chunks_mut(n) {
                    simd::gemm_tile_packed([seg(r)], panel, nc, [&mut out_row[jt..jt + nc]]);
                    r += 1;
                }
            });
        }
    }
    ws.give(packed);
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position, in
    /// parallel over row blocks for large matrices.
    ///
    /// Unlike [`DenseMatrix::from_fn`] the closure must be pure (`Fn + Sync`);
    /// use this for hot constructors such as similarity matrices where `f`
    /// only reads shared data.
    pub fn par_from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let mut data = vec![0.0; rows * cols];
        par::for_each_row_block_mut(&mut data, cols.max(1), cols, |row_range, block| {
            for (off, row) in block.chunks_mut(cols.max(1)).enumerate() {
                let i = row_range.start + off;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = f(i, j);
                }
            }
        });
        Self { rows, cols, data }
    }

    /// Overwrites every entry with `f(row, col)`, in parallel over row
    /// blocks — the in-place counterpart of [`DenseMatrix::par_from_fn`] for
    /// pooled buffers, filling the same values bit for bit.
    pub fn par_fill_from_fn(&mut self, f: impl Fn(usize, usize) -> f64 + Sync) {
        let cols = self.cols;
        par::for_each_row_block_mut(&mut self.data, cols.max(1), cols, |row_range, block| {
            for (off, row) in block.chunks_mut(cols.max(1)).enumerate() {
                let i = row_range.start + off;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = f(i, j);
                }
            }
        });
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "from_rows: row {i} has length {} != {c}", row.len());
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to entry `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] += v;
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy, parallelized over output rows.
    pub fn transpose(&self) -> DenseMatrix {
        let mut data = vec![0.0; self.rows * self.cols];
        self.transpose_into_buf(&mut data);
        DenseMatrix { rows: self.cols, cols: self.rows, data }
    }

    /// Transposed copy into a caller-provided `cols × rows` matrix.
    ///
    /// # Panics
    /// Panics if `out` is not `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut DenseMatrix) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into: output shape mismatch");
        self.transpose_into_buf(&mut out.data);
    }

    fn transpose_into_buf(&self, out: &mut [f64]) {
        let r = self.rows;
        debug_assert_eq!(out.len(), r * self.cols);
        par::for_each_row_block_mut(out, r.max(1), r, |out_rows, block| {
            for (off, out_row) in block.chunks_mut(r.max(1)).enumerate() {
                let j = out_rows.start + off;
                for (i, o) in out_row.iter_mut().enumerate() {
                    *o = self.get(i, j);
                }
            }
        });
    }

    /// Matrix product `self * rhs`: cache-blocked with packed right-hand
    /// panels ([`Self::matmul_into`]), parallelized over rows of `self`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out, &mut Workspace::new());
        out
    }

    /// Matrix product `self * rhs` into a caller-provided matrix, with
    /// packing scratch drawn from `ws` — the allocation-free form hot
    /// loops call every iteration. The blocked schedule accumulates each
    /// output element in ascending shared-index order, so results are
    /// bit-identical to the naive triple loop at every thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into: output shape mismatch");
        par::telemetry::count_matmul();
        gemm_core(self.rows, self.cols, rhs.cols, &self.data, &rhs.data, &mut out.data, ws);
    }

    /// `selfᵀ * rhs`.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn tr_matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        self.tr_matmul_into(rhs, &mut out, &mut Workspace::new());
        out
    }

    /// `selfᵀ * rhs` into a caller-provided matrix. The transpose is
    /// materialized once into `ws` scratch and multiplied with the blocked
    /// core, which keeps the per-element ascending shared-index summation
    /// order (bit-identical to the former streaming implementation) while
    /// making the product parallel and cache-blocked.
    ///
    /// # Panics
    /// Panics on row-count or output-shape mismatch.
    pub fn tr_matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) {
        assert_eq!(self.rows, rhs.rows, "tr_matmul: row counts differ");
        assert_eq!(out.shape(), (self.cols, rhs.cols), "tr_matmul_into: output shape mismatch");
        par::telemetry::count_matmul();
        let mut t = ws.take(self.rows * self.cols);
        self.transpose_into_buf(&mut t);
        gemm_core(self.cols, self.rows, rhs.cols, &t, &rhs.data, &mut out.data, ws);
        ws.give(t);
    }

    /// `self * rhsᵀ`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_tr(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        self.matmul_tr_into(rhs, &mut out, &mut Workspace::new());
        out
    }

    /// `self * rhsᵀ` into a caller-provided matrix; `rhs` is transposed
    /// once into `ws` scratch and fed to the blocked core. Per-element
    /// summation order (ascending shared index) matches the former
    /// dot-product implementation bit for bit.
    ///
    /// # Panics
    /// Panics on column-count or output-shape mismatch.
    pub fn matmul_tr_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix, ws: &mut Workspace) {
        assert_eq!(self.cols, rhs.cols, "matmul_tr: column counts differ");
        assert_eq!(out.shape(), (self.rows, rhs.rows), "matmul_tr_into: output shape mismatch");
        par::telemetry::count_matmul();
        let mut t = ws.take(rhs.rows * rhs.cols);
        rhs.transpose_into_buf(&mut t);
        gemm_core(self.rows, self.cols, rhs.rows, &self.data, &t, &mut out.data, ws);
        ws.give(t);
    }

    /// Matrix–vector product `self * x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix–vector product into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec: x length mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec: out length mismatch");
        par::for_each_chunk_mut(out, self.cols, |_, range, chunk| {
            for (off, o) in chunk.iter_mut().enumerate() {
                *o = vec_ops::dot(self.row(range.start + off), x);
            }
        });
    }

    /// Vector–matrix product `xᵀ * self` (i.e. `selfᵀ x`).
    ///
    /// Parallelized as a chunked reduction over rows: per-chunk partial
    /// vectors are combined in chunk order, so the result is thread-count
    /// independent (fixed chunk boundaries, see [`graphalign_par`]).
    pub fn tr_mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.tr_mul_vec_into(x, &mut out);
        out
    }

    /// [`Self::tr_mul_vec`] into a caller-provided buffer: the same chunked
    /// reduction (partials combined in chunk order, zero entries of `x`
    /// skipped), so the bit pattern is unchanged — only the output
    /// allocation moves to the caller.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn tr_mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "tr_mul_vec: x length mismatch");
        assert_eq!(out.len(), self.cols, "tr_mul_vec: out length mismatch");
        let cols = self.cols;
        let partials = par::fold_chunks(self.rows, cols, |rows| {
            let mut acc = vec![0.0; cols];
            for i in rows {
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                vec_ops::axpy(xi, self.row(i), &mut acc);
            }
            acc
        });
        out.fill(0.0);
        for part in partials {
            for (o, p) in out.iter_mut().zip(&part) {
                *o += p;
            }
        }
    }

    /// Entry-wise sum `self + rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        DenseMatrix { rows: self.rows, cols: self.cols, data }
    }

    /// Entry-wise difference `self − rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        DenseMatrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self ← self + alpha * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, rhs: &DenseMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled: shape mismatch");
        vec_ops::axpy(alpha, &rhs.data, &mut self.data);
    }

    /// Out-of-place `out ← self + alpha * rhs` — the allocation-free form
    /// of `self.clone()` followed by [`Self::add_scaled`], bit-identical to
    /// that sequence.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled_into(&self, alpha: f64, rhs: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled_into: shape mismatch");
        assert_eq!(self.shape(), out.shape(), "add_scaled_into: output shape mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a + alpha * b;
        }
    }

    /// Copies `rhs` into `self` without reallocating.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, rhs: &DenseMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "copy_from: shape mismatch");
        self.data.copy_from_slice(&rhs.data);
    }

    /// Scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> DenseMatrix {
        let data = self.data.iter().map(|v| alpha * v).collect();
        DenseMatrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place scaling `self ← alpha * self`.
    pub fn scale_inplace(&mut self, alpha: f64) {
        vec_ops::scale(alpha, &mut self.data);
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        par::for_each_chunk_mut(&mut self.data, 1, |_, _, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Frobenius norm `‖self‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        vec_ops::norm2(&self.data)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        vec_ops::sum(&self.data)
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        vec_ops::all_finite(&self.data)
    }

    /// Normalizes every row to unit Euclidean norm; zero rows are left as-is.
    pub fn normalize_rows(&mut self) {
        let cols = self.cols;
        par::for_each_row_block_mut(&mut self.data, cols.max(1), cols, |_, block| {
            for row in block.chunks_mut(cols.max(1)) {
                vec_ops::normalize(row);
            }
        });
    }

    /// Extracts the sub-matrix with the given rows (in order).
    pub fn select_rows(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Horizontal stack `[self | rhs]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, rhs.rows, "hstack: row counts differ");
        let mut out = DenseMatrix::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        out
    }

    /// Vertical stack `[self; rhs]`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.cols, "vstack: column counts differ");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        DenseMatrix { rows: self.rows + rhs.rows, cols: self.cols, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &DenseMatrix, b: &DenseMatrix, tol: f64) -> bool {
        a.shape() == b.shape() && a.sub(b).max_abs() < tol
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DenseMatrix::identity(2);
        assert!(approx(&a.matmul(&i), &a, 1e-15));
        assert!(approx(&i.matmul(&a), &a, 1e-15));
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn tr_matmul_equals_explicit_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!(approx(&a.tr_matmul(&b), &a.transpose().matmul(&b), 1e-14));
    }

    #[test]
    fn matmul_tr_equals_explicit_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        assert!(approx(&a.matmul_tr(&b), &a.matmul(&b.transpose()), 1e-14));
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_vec_and_tr_mul_vec() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.tr_mul_vec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn row_normalization_makes_unit_rows_and_keeps_zero_rows() {
        let mut a = DenseMatrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.normalize_rows();
        assert!((crate::vec_ops::norm2(a.row(0)) - 1.0).abs() < 1e-15);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn stacking() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(a.hstack(&b), DenseMatrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        assert_eq!(a.vstack(&b), DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn select_rows_reorders() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.select_rows(&[2, 0]), DenseMatrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn frobenius_and_sum() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn blocked_matmul_matches_naive_ikj_bitwise() {
        // 37·41·33 > GEMM_SMALL forces the packed path; the odd shared
        // dimension exercises the microkernel tail, 37 rows the non-quad
        // remainder, and 33 columns a partial panel.
        let (m, k, n) = (37, 41, 33);
        assert!(m * k * n > GEMM_SMALL);
        let a = DenseMatrix::from_fn(m, k, |i, j| ((i * 13 + j * 7) as f64).sin());
        let b = DenseMatrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) as f64).cos());
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a.get(i, l) * b.get(l, j);
                }
                assert_eq!(c.get(i, j).to_bits(), acc.to_bits(), "element ({i}, {j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul: inner dimensions differ")]
    fn matmul_dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
