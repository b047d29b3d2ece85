//! Compressed sparse row (CSR) matrices.
//!
//! Adjacency matrices of the benchmark graphs are sparse (average degree 10 to
//! a few hundred on up to 2¹⁶ nodes in the scalability sweeps), so the
//! algorithms that iterate `A · X`-style products (IsoRank, NSD, CONE's
//! proximity matrix, GRASP's Laplacian) run on this CSR type rather than on
//! dense matrices.

use crate::dense::DenseMatrix;
use crate::vec_ops;
use crate::workspace::Workspace;
use graphalign_par as par;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (maintained by all constructors):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * column indices within each row are strictly increasing;
/// * no explicitly stored zeros are required (duplicates are merged by
///   [`CsrMatrix::from_triplets`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; resulting explicit zeros are kept (callers that
    /// care can [`CsrMatrix::prune`] them).
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0.0; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let p = next[r];
            col_idx[p] = c;
            values[p] = v;
            next[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_col = Vec::with_capacity(col_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        let mut row_ptr = vec![0usize; rows + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                col_idx[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(values[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in scratch.iter() {
                if let Some(last) = out_col.last() {
                    if *last == c && out_col.len() > row_ptr[r] {
                        let lv: &mut f64 = out_val.last_mut().expect("values track col indices");
                        *lv += v;
                        continue;
                    }
                }
                out_col.push(c);
                out_val.push(v);
            }
            row_ptr[r + 1] = out_col.len();
        }
        Self { rows, cols, row_ptr, col_idx: out_col, values: out_val }
    }

    /// Builds a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let v = m.get(i, j);
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(m.rows(), m.cols(), &triplets)
    }

    /// Densifies the matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                out.set(i, j, v);
            }
        }
        out
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

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates `(col, value)` pairs of row `i` in increasing column order.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()].iter().copied().zip(self.values[span].iter().copied())
    }

    /// Column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Value at `(i, j)`, `0.0` when not stored. `O(log nnz(row i))`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&j) {
            Ok(p) => self.row_values(i)[p],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `self * x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Sparse matrix–vector product into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec: x length mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec: out length mismatch");
        let avg_nnz = (self.nnz() / self.rows.max(1)).max(1);
        par::for_each_row_block_mut(out, 1, avg_nnz, |range, chunk| {
            for (off, o) in chunk.iter_mut().enumerate() {
                let i = range.start + off;
                let mut acc = 0.0;
                for (j, v) in self.row_iter(i) {
                    acc += v * x[j];
                }
                *o = acc;
            }
        });
    }

    /// Transposed sparse matrix–vector product `selfᵀ * x`.
    pub fn tr_mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "tr_mul_vec: x length mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, v) in self.row_iter(i) {
                out[j] += v * xi;
            }
        }
        out
    }

    /// Sparse × dense product `self * rhs`, parallelized over output rows.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_dense(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols());
        self.mul_dense_into(rhs, &mut out);
        out
    }

    /// Sparse × dense product into a caller-provided matrix — the
    /// allocation-free form iterative solvers call every iteration.
    /// Bit-identical to [`CsrMatrix::mul_dense`].
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn mul_dense_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, rhs.rows(), "mul_dense: inner dimensions differ");
        assert_eq!(out.shape(), (self.rows, rhs.cols()), "mul_dense_into: output shape mismatch");
        par::telemetry::count_matmul();
        let n = rhs.cols();
        let avg_nnz = (self.nnz() / self.rows.max(1)).max(1);
        let data = out.as_mut_slice();
        data.fill(0.0);
        par::for_each_row_block_mut(data, n.max(1), avg_nnz * n, |rows, block| {
            for (off, out_row) in block.chunks_mut(n.max(1)).enumerate() {
                for (j, v) in self.row_iter(rows.start + off) {
                    vec_ops::axpy(v, rhs.row(j), out_row);
                }
            }
        });
    }

    /// Fused transposed product `selfᵀ * rhs` without materializing the
    /// transpose. The stored entries are counting-sorted by column into a
    /// compact transpose *structure* (column pointers + source rows, with
    /// ascending source-row order inside each output row), and the output
    /// rows are then filled in parallel, each accumulating its `axpy`
    /// contributions over ascending source row. Bit-identical to
    /// `self.transpose().mul_dense(rhs)` — and to the sequential
    /// entry-by-entry scatter this kernel replaced — at any thread count.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn tr_mul_dense(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, rhs.rows(), "tr_mul_dense: inner dimensions differ");
        par::telemetry::count_matmul();
        let n = rhs.cols();
        // Counting sort by column. Walking rows in ascending order keeps
        // the entries of each output row in ascending source-row order —
        // the accumulation order the determinism contract fixes.
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            col_ptr[c + 1] += 1;
        }
        for j in 0..self.cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut src_row = vec![0usize; self.nnz()];
        let mut src_val = vec![0.0; self.nnz()];
        let mut next = col_ptr[..self.cols].to_vec();
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                let p = next[j];
                src_row[p] = i;
                src_val[p] = v;
                next[j] += 1;
            }
        }
        let mut out = DenseMatrix::zeros(self.cols, n);
        let avg_nnz = (self.nnz() / self.cols.max(1)).max(1);
        par::for_each_row_block_mut(
            out.as_mut_slice(),
            n.max(1),
            avg_nnz * n.max(1),
            |rows, block| {
                for (off, out_row) in block.chunks_mut(n.max(1)).enumerate() {
                    let j = rows.start + off;
                    for p in col_ptr[j]..col_ptr[j + 1] {
                        vec_ops::axpy(src_val[p], rhs.row(src_row[p]), out_row);
                    }
                }
            },
        );
        out
    }

    /// Fused product `self * rhsᵀ` without materializing the dense
    /// transpose: each output row gathers sparse dot products of one CSR
    /// row against the rows of `rhs`, parallelized over output row blocks
    /// and tiled over `rhs` rows so one tile of `rhs` is reused across a
    /// whole block of output rows before the next tile streams in. Tiling
    /// only reorders whole output elements — each element is still one
    /// gather over the CSR row's stored entries in ascending column order —
    /// so results are bit-identical at any tile size and thread count.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn mul_dense_tr(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.cols(), "mul_dense_tr: column counts differ");
        par::telemetry::count_matmul();
        let n = rhs.rows();
        // 64 rhs rows per tile ≈ 32 KB at the benchmark feature width,
        // small enough to stay cache-resident across the output row block.
        const TILE_J: usize = 64;
        let mut data = vec![0.0; self.rows * n];
        let avg_nnz = (self.nnz() / self.rows.max(1)).max(1);
        par::for_each_row_block_mut(&mut data, n.max(1), avg_nnz * n, |rows, block| {
            let w = n.max(1);
            let nrows = block.len() / w;
            for jt in (0..n).step_by(TILE_J) {
                let je = (jt + TILE_J).min(n);
                for off in 0..nrows {
                    let i = rows.start + off;
                    let cols_i = self.row_cols(i);
                    let vals_i = self.row_values(i);
                    let out_seg = &mut block[off * w + jt..off * w + je];
                    for (j, o) in (jt..je).zip(out_seg.iter_mut()) {
                        let r = rhs.row(j);
                        let mut acc = 0.0;
                        for (&l, &v) in cols_i.iter().zip(vals_i) {
                            acc += v * r[l];
                        }
                        *o = acc;
                    }
                }
            }
        });
        DenseMatrix::from_vec(self.rows, n, data)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                triplets.push((j, i, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Scales row `i` by `factors[i]` (i.e. computes `diag(factors) * self`).
    ///
    /// # Panics
    /// Panics if `factors.len() != rows`.
    pub fn scale_rows(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.rows, "scale_rows: length mismatch");
        for i in 0..self.rows {
            let f = factors[i];
            for v in &mut self.values[self.row_ptr[i]..self.row_ptr[i + 1]] {
                *v *= f;
            }
        }
    }

    /// Scales column `j` by `factors[j]` (i.e. computes `self * diag(factors)`).
    ///
    /// # Panics
    /// Panics if `factors.len() != cols`.
    pub fn scale_cols(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.cols, "scale_cols: length mismatch");
        for (c, v) in self.col_idx.iter().zip(self.values.iter_mut()) {
            *v *= factors[*c];
        }
    }

    /// Row sums (for an adjacency matrix: weighted degrees).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row_values(i).iter().sum()).collect()
    }

    /// Normalizes each row to sum 1 (rows summing to 0 are left untouched),
    /// producing a row-stochastic matrix `D⁻¹ · self`.
    pub fn row_normalize(&mut self) {
        let sums = self.row_sums();
        let inv: Vec<f64> = sums.iter().map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 }).collect();
        self.scale_rows(&inv);
    }

    /// Removes stored entries with `|value| <= tol`.
    pub fn prune(&mut self, tol: f64) {
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                if v.abs() > tol {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.values = values;
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vec_ops::norm2(&self.values)
    }

    /// Approximate heap footprint in bytes (indices + values + row pointers);
    /// used by the memory-scalability harness (paper Figures 13–14).
    pub fn nbytes(&self) -> usize {
        self.row_ptr.len() * size_of::<usize>()
            + self.col_idx.len() * size_of::<usize>()
            + self.values.len() * size_of::<f64>()
    }
}

// Dense-left mixed products live here (rather than in `dense`) because the
// dense module does not otherwise know about the CSR type.
impl DenseMatrix {
    /// Fused dense × sparseᵀ product `self * rhsᵀ` for a CSR right-hand
    /// side. Each output element is a sparse dot of one dense row with one
    /// CSR row, so `X · S` for CSR `S` is `x.mul_csr_tr(&s_t)` with the
    /// transpose `s_t` hoisted once per solve — this is the kernel that
    /// removes the per-iteration dense transposes from the IsoRank and GWL
    /// updates. Accumulation per element runs over the CSR row's stored
    /// entries in ascending column order, matching the bit pattern of the
    /// former `s.mul_dense(x.transpose()).transpose()` formulation.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn mul_csr_tr(&self, rhs: &CsrMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows(), rhs.rows());
        self.mul_csr_tr_into(rhs, &mut out);
        out
    }

    /// [`DenseMatrix::mul_csr_tr`] into a caller-provided matrix.
    ///
    /// # Panics
    /// Panics on column-count or output-shape mismatch.
    pub fn mul_csr_tr_into(&self, rhs: &CsrMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols(), rhs.cols(), "mul_csr_tr: column counts differ");
        assert_eq!(
            out.shape(),
            (self.rows(), rhs.rows()),
            "mul_csr_tr_into: output shape mismatch"
        );
        par::telemetry::count_matmul();
        let n = rhs.rows();
        let cost_per_row = rhs.nnz().max(1);
        par::for_each_row_block_mut(out.as_mut_slice(), n.max(1), cost_per_row, |rows, block| {
            for (off, out_row) in block.chunks_mut(n.max(1)).enumerate() {
                let self_row = self.row(rows.start + off);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (&l, &v) in rhs.row_cols(j).iter().zip(rhs.row_values(j)) {
                        acc += v * self_row[l];
                    }
                    *o = acc;
                }
            }
        });
    }

    /// Fused dense × sparse product `self · rhs` for a CSR right-hand side,
    /// in scatter form: for each dense row, the stored entries of `rhs`'s
    /// row `l` scatter `self[i,l] · v` into the output at ascending `l`.
    ///
    /// Exactly the same terms reach each output element in exactly the same
    /// ascending-`l` order as the gather form, so this is bit-identical to
    /// `self.mul_csr_tr(&rhs.transpose())` — but where the gather serializes
    /// each output element behind a floating-point add dependency chain
    /// (~4 cycles per stored entry), the scatter updates independent
    /// elements back to back, and it needs no transpose hoist. Useful when
    /// the CSR transpose is not worth materializing; for the repeated
    /// right-multiplications of the iterative solvers, the measured-fastest
    /// form at every size is picked by [`DenseMatrix::mul_csr_tr_into_auto`].
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_csr(&self, rhs: &CsrMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows(), rhs.cols());
        self.mul_csr_into(rhs, &mut out);
        out
    }

    /// [`DenseMatrix::mul_csr`] into a caller-provided matrix — the
    /// allocation-free form the iterative solvers call every iteration.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn mul_csr_into(&self, rhs: &CsrMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols(), rhs.rows(), "mul_csr: inner dimensions differ");
        assert_eq!(out.shape(), (self.rows(), rhs.cols()), "mul_csr_into: output shape mismatch");
        par::telemetry::count_matmul();
        let n = rhs.cols();
        let k = rhs.rows();
        let cost_per_row = rhs.nnz().max(1) + k;
        let data = out.as_mut_slice();
        data.fill(0.0);
        par::for_each_row_block_mut(data, n.max(1), cost_per_row, |rows, block| {
            for (off, out_row) in block.chunks_mut(n.max(1)).enumerate() {
                let self_row = self.row(rows.start + off);
                for (l, &sv) in self_row.iter().enumerate() {
                    for (j, v) in rhs.row_iter(l) {
                        out_row[j] += sv * v;
                    }
                }
            }
        });
    }

    /// Form-selecting `self · rhsᵀ`: picks between the gather kernel
    /// ([`DenseMatrix::mul_csr_tr_into`]) and the hoisted-transpose row-axpy
    /// formulation `(rhs · selfᵀ)ᵀ` based on output size.
    ///
    /// Below [`SPMM_RIGHT_HOIST_CUTOFF`] output elements, the row-axpy form
    /// wins: its SIMD `axpy` inner loop streams whole dense rows while the
    /// gather walks a ~4-cycle floating-point add dependency chain per
    /// output element, and the two dense transposes it pays per call stay
    /// L2-resident at small sizes. Above the cutoff those transposes turn
    /// into strided cache misses over a multi-megabyte working set and the
    /// gather takes over. (This size-dependent inversion is exactly the
    /// fused-IsoRank small-`n` regression; the measured crossover on the
    /// benchmark machine is n ≈ 512 for square operands.)
    ///
    /// Both formulations feed every output element the same terms in the
    /// same ascending shared-index order, so the result is **bit-identical**
    /// whichever side of the cutoff executes — the cutoff is a pure
    /// performance decision, invisible in the output.
    ///
    /// # Panics
    /// Panics on column-count or output-shape mismatch.
    pub fn mul_csr_tr_into_auto(&self, rhs: &CsrMatrix, out: &mut DenseMatrix, ws: &mut Workspace) {
        assert_eq!(self.cols(), rhs.cols(), "mul_csr_tr: column counts differ");
        assert_eq!(
            out.shape(),
            (self.rows(), rhs.rows()),
            "mul_csr_tr_into: output shape mismatch"
        );
        if self.rows() * rhs.rows() < SPMM_RIGHT_HOIST_CUTOFF {
            let mut st = ws.take_matrix(self.cols(), self.rows());
            let mut ot = ws.take_matrix(rhs.rows(), self.rows());
            self.transpose_into(&mut st);
            rhs.mul_dense_into(&st, &mut ot);
            ot.transpose_into(out);
            ws.give_matrix(ot);
            ws.give_matrix(st);
        } else {
            self.mul_csr_tr_into(rhs, out);
        }
    }
}

/// Output-element cutoff below which [`DenseMatrix::mul_csr_tr_into_auto`]
/// uses the hoisted-transpose row-axpy formulation instead of the gather
/// kernel. Chosen from `spmm_form_bench` medians on the benchmark machine:
/// the axpy form wins through n = 448 and loses abruptly at n = 512, where
/// the per-call dense transposes (2·n²·8 B = 4 MB) overflow the 2 MB L2.
pub const SPMM_RIGHT_HOIST_CUTOFF: usize = 512 * 512;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 3]
        CsrMatrix::from_triplets(2, 3, &[(0, 2, 2.0), (0, 0, 1.0), (1, 2, 3.0)])
    }

    #[test]
    fn triplets_are_sorted_within_rows() {
        let m = sample();
        assert_eq!(m.row_cols(0), &[0, 2]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.mul_vec(&x), m.to_dense().mul_vec(&x));
    }

    #[test]
    fn tr_spmv_matches_dense_transpose() {
        let m = sample();
        let x = [1.0, 2.0];
        assert_eq!(m.tr_mul_vec(&x), m.to_dense().transpose().mul_vec(&x));
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(m.mul_dense(&d), m.to_dense().matmul(&d));
    }

    #[test]
    fn mul_dense_into_matches_allocating_form_bitwise() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[&[1.5, -2.0], &[0.25, 1.0], &[1.0, 3.0]]);
        let mut out = DenseMatrix::filled(2, 2, f64::NAN);
        m.mul_dense_into(&d, &mut out);
        assert_eq!(out, m.mul_dense(&d));
    }

    #[test]
    fn tr_mul_dense_matches_materialized_transpose_bitwise() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, -0.5]]);
        assert_eq!(m.tr_mul_dense(&d), m.transpose().mul_dense(&d));
    }

    #[test]
    fn mul_dense_tr_matches_materialized_transpose() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, 0.0, 4.0]]);
        let fused = m.mul_dense_tr(&d);
        let naive = m.mul_dense(&d.transpose());
        assert_eq!(fused.shape(), naive.shape());
        assert!(fused.sub(&naive).max_abs() < 1e-14);
    }

    #[test]
    fn dense_mul_csr_tr_matches_transposed_spmm_bitwise() {
        // The IsoRank inner-loop shape: left · s computed as
        // left.mul_csr_tr(&sᵀ) must match the former
        // sᵀ.mul_dense(leftᵀ).transpose() formulation bit for bit.
        let s = sample(); // 2×3
        let st = s.transpose(); // 3×2
        let left = DenseMatrix::from_rows(&[&[0.5, -1.0], &[1.0 / 3.0, 0.125], &[2.0, -0.7]]); // 3×2
        let fused = left.mul_csr_tr(&st); // left · stᵀ = left · s : 3×3
        let reference = st.mul_dense(&left.transpose()).transpose();
        assert_eq!(fused, reference);
    }

    #[test]
    fn dense_mul_csr_matches_gather_form_bitwise() {
        // The scatter form must agree bit for bit with the gather form on
        // the hoisted transpose — same terms, same ascending-l order per
        // output element, commutative multiplies.
        let s = sample(); // 2×3
        let left = DenseMatrix::from_rows(&[&[0.5, -1.0], &[1.0 / 3.0, 0.125], &[2.0, -0.7]]); // 3×2
        let scatter = left.mul_csr(&s); // 3×3
        let gather = left.mul_csr_tr(&s.transpose());
        assert_eq!(scatter, gather);
        let mut out = DenseMatrix::filled(3, 3, f64::NAN);
        left.mul_csr_into(&s, &mut out);
        assert_eq!(out, scatter);
    }

    #[test]
    fn mul_csr_tr_into_auto_is_bitwise_stable_across_the_cutoff() {
        // Rectangular shapes straddling SPMM_RIGHT_HOIST_CUTOFF = 512·512
        // output elements with modest dimensions: 330×790 = 260 700 (below,
        // hoisted row-axpy form) and 330×800 = 264 000 (above, gather form).
        // Whichever side executes must match the plain gather kernel bit
        // for bit — the cutoff may never be visible in the output.
        let k = 40;
        let mut ws = Workspace::new();
        for rhs_rows in [790usize, 800] {
            let below = 330 * rhs_rows < SPMM_RIGHT_HOIST_CUTOFF;
            let left =
                DenseMatrix::from_fn(330, k, |i, j| ((i * 7 + j * 13) % 23) as f64 / 11.0 - 1.0);
            let triplets: Vec<(usize, usize, f64)> = (0..rhs_rows)
                .flat_map(|r| {
                    (0..5).map(move |t| (r, (r * 31 + t * 17) % k, ((t + r) % 7) as f64 - 3.0))
                })
                .collect();
            let s = CsrMatrix::from_triplets(rhs_rows, k, &triplets);
            let mut auto_out = DenseMatrix::filled(330, rhs_rows, f64::NAN);
            left.mul_csr_tr_into_auto(&s, &mut auto_out, &mut ws);
            let gather = left.mul_csr_tr(&s);
            assert_eq!(
                auto_out, gather,
                "auto form (hoist={below}) diverged from gather at rhs_rows={rhs_rows}"
            );
        }
    }

    #[test]
    fn tr_mul_dense_handles_empty_and_dense_columns() {
        // A matrix with an empty column and a column hit by both rows, so
        // the counting-sorted transpose structure sees nnz 0 and 2 rows.
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 2.0), (1, 2, 3.0), (1, 0, -1.0)]);
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, -0.5]]);
        assert_eq!(m.tr_mul_dense(&d), m.transpose().mul_dense(&d));
    }

    #[test]
    fn mul_csr_tr_into_reuses_buffer() {
        let s = sample();
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut out = DenseMatrix::filled(1, 2, f64::NAN);
        x.mul_csr_tr_into(&s, &mut out);
        assert_eq!(out, x.mul_csr_tr(&s));
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn dense_round_trip_drops_zeros() {
        let d = DenseMatrix::from_rows(&[&[0.0, 5.0], &[0.0, 0.0]]);
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn row_normalize_makes_rows_stochastic() {
        let mut m = sample();
        m.row_normalize();
        let sums = m.row_sums();
        for s in sums {
            assert!((s - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn row_normalize_leaves_empty_rows() {
        let mut m = CsrMatrix::zeros(2, 2);
        m.row_normalize();
        assert_eq!(m.row_sums(), vec![0.0, 0.0]);
    }

    #[test]
    fn scale_cols_matches_dense() {
        let mut m = sample();
        m.scale_cols(&[2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 2), 8.0);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn prune_removes_small_entries() {
        let mut m = CsrMatrix::from_triplets(1, 3, &[(0, 0, 1e-12), (0, 1, 1.0), (0, 2, -1e-12)]);
        m.prune(1e-9);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn nbytes_is_positive_and_grows_with_nnz() {
        let small = CsrMatrix::zeros(10, 10);
        let big = sample();
        assert!(big.nbytes() > 0);
        assert!(big.nbytes() > small.nnz() * 16);
    }
}
