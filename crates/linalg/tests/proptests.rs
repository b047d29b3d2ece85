//! Property-based tests of the numerical invariants the solvers guarantee.

use graphalign_linalg::eigen::symmetric_eigen;
use graphalign_linalg::lanczos::{lanczos, Which};
use graphalign_linalg::power::power_iteration;
use graphalign_linalg::qr::thin_qr;
use graphalign_linalg::sinkhorn::{sinkhorn, uniform_marginal, SinkhornParams};
use graphalign_linalg::svd::{pinv, thin_svd};
use graphalign_linalg::{CsrMatrix, DenseMatrix, Workspace};
use proptest::prelude::*;

/// Random dense matrix with entries in [-1, 1].
fn dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-1.0f64..1.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data))
}

/// Random symmetric matrix of size n.
fn symmetric(n: usize) -> impl Strategy<Value = DenseMatrix> {
    dense(n, n).prop_map(|m| m.add(&m.transpose()).scaled(0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Eigendecomposition reconstructs the input and yields an orthonormal
    /// basis with ascending eigenvalues.
    #[test]
    fn eigen_reconstructs(m in symmetric(10)) {
        let e = symmetric_eigen(&m).unwrap();
        // Ascending order.
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        // Orthonormal.
        let gram = e.vectors.tr_matmul(&e.vectors);
        prop_assert!(gram.sub(&DenseMatrix::identity(10)).max_abs() < 1e-9);
        // Reconstruction.
        let lambda = DenseMatrix::from_fn(10, 10, |i, j| if i == j { e.values[i] } else { 0.0 });
        let rec = e.vectors.matmul(&lambda).matmul_tr(&e.vectors);
        prop_assert!(rec.sub(&m).max_abs() < 1e-8);
    }

    /// Trace and eigenvalue-sum agree (a classical invariant).
    #[test]
    fn eigen_trace_identity(m in symmetric(8)) {
        let e = symmetric_eigen(&m).unwrap();
        let trace: f64 = (0..8).map(|i| m.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-9);
    }

    /// QR: Q orthonormal, R upper-triangular, QR = A.
    #[test]
    fn qr_invariants(a in dense(9, 5)) {
        let f = thin_qr(&a);
        prop_assert!(f.q.tr_matmul(&f.q).sub(&DenseMatrix::identity(5)).max_abs() < 1e-9);
        for i in 0..f.r.rows() {
            for j in 0..i {
                prop_assert!(f.r.get(i, j).abs() < 1e-10);
            }
        }
        prop_assert!(f.q.matmul(&f.r).sub(&a).max_abs() < 1e-10);
    }

    /// SVD reconstructs, with descending nonnegative singular values.
    #[test]
    fn svd_invariants(a in dense(7, 4)) {
        let s = thin_svd(&a).unwrap();
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(s.sigma.iter().all(|&x| x >= 0.0));
        prop_assert!(s.reconstruct().sub(&a).max_abs() < 1e-7);
    }

    /// Pseudo-inverse satisfies the Moore–Penrose identities.
    #[test]
    fn pinv_identities(a in dense(6, 4)) {
        let p = pinv(&a, 1e-6).unwrap();
        let apa = a.matmul(&p).matmul(&a);
        prop_assert!(apa.sub(&a).max_abs() < 1e-6);
        let pap = p.matmul(&a).matmul(&p);
        prop_assert!(pap.sub(&p).max_abs() < 1e-6);
    }

    /// Sinkhorn plans satisfy both marginals and are non-negative.
    #[test]
    fn sinkhorn_marginals(c in dense(5, 7)) {
        // Shift costs to [0, 2] so ε = 0.1 is adequate.
        let mut cost = c;
        cost.map_inplace(|v| v + 1.0);
        let mu = uniform_marginal(5);
        let nu = uniform_marginal(7);
        let (t, _) = sinkhorn(&cost, &mu, &nu, &SinkhornParams::default()).unwrap();
        for i in 0..5 {
            let row: f64 = t.row(i).iter().sum();
            prop_assert!((row - 0.2).abs() < 1e-4);
            prop_assert!(t.row(i).iter().all(|&v| v >= 0.0));
        }
        for j in 0..7 {
            let col: f64 = (0..5).map(|i| t.get(i, j)).sum();
            prop_assert!((col - 1.0 / 7.0).abs() < 1e-4);
        }
    }

    /// Power iteration converges to the dominant eigenpair found by the
    /// exact solver (in absolute value).
    #[test]
    fn power_iteration_matches_eigen(m in symmetric(6)) {
        let e = symmetric_eigen(&m).unwrap();
        let dominant = e
            .values
            .iter()
            .fold(0.0f64, |acc, &v| if v.abs() > acc.abs() { v } else { acc });
        // Skip near-degenerate dominant pairs, where convergence stalls.
        let sorted: Vec<f64> = {
            let mut s: Vec<f64> = e.values.iter().map(|v| v.abs()).collect();
            s.sort_by(|a, b| b.partial_cmp(a).unwrap());
            s
        };
        prop_assume!(sorted[0] > 1e-3 && sorted[0] - sorted[1] > 1e-2);
        let r = power_iteration(&m, &[1.0, 0.5, 0.25, -0.3, 0.7, -0.1], 5000, 1e-13).unwrap();
        prop_assert!(
            (r.value.abs() - dominant.abs()).abs() < 1e-6,
            "power {} vs eigen {dominant}", r.value
        );
    }

    /// Lanczos on a CSR matrix agrees with the dense solver at both ends of
    /// the spectrum.
    #[test]
    fn lanczos_matches_dense(m in symmetric(12), seed in any::<u64>()) {
        let sparse = CsrMatrix::from_dense(&m);
        let e = symmetric_eigen(&m).unwrap();
        let top = lanczos(&sparse, 2, Which::Largest, 12, seed).unwrap();
        prop_assert!((top.values[0] - e.values[11]).abs() < 1e-7);
        let bottom = lanczos(&sparse, 2, Which::Smallest, 12, seed).unwrap();
        prop_assert!((bottom.values[0] - e.values[0]).abs() < 1e-7);
    }

    /// CSR round-trips through dense and transposition.
    #[test]
    fn csr_round_trips(a in dense(6, 9)) {
        // Sparsify: zero small entries so the CSR has structure.
        let mut m = a;
        m.map_inplace(|v| if v.abs() < 0.5 { 0.0 } else { v });
        let csr = CsrMatrix::from_dense(&m);
        prop_assert_eq!(csr.to_dense(), m.clone());
        prop_assert_eq!(csr.transpose().transpose(), csr.clone());
        // SpMV consistency.
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.1).collect();
        let dense_y = m.mul_vec(&x);
        let sparse_y = csr.mul_vec(&x);
        for (d, s) in dense_y.iter().zip(&sparse_y) {
            prop_assert!((d - s).abs() < 1e-12);
        }
    }

    /// Matmul distributes over addition (ring axioms hold numerically).
    #[test]
    fn matmul_distributes(a in dense(4, 5), b in dense(5, 3), c in dense(5, 3)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.sub(&right).max_abs() < 1e-12);
    }
}

/// Reference GEMM: the naive ikj product every blocked/fused kernel promises
/// to reproduce bit-for-bit — each output element accumulates its shared-dim
/// terms with a single accumulator in ascending order.
fn matmul_reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k) = a.shape();
    let n = b.cols();
    DenseMatrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0;
        for l in 0..k {
            acc += a.get(i, l) * b.get(l, j);
        }
        acc
    })
}

/// Index of the first bitwise mismatch, or `None` when the matrices agree
/// exactly (shape mismatch reports position `usize::MAX`).
fn first_bit_mismatch(x: &DenseMatrix, y: &DenseMatrix) -> Option<usize> {
    if x.shape() != y.shape() {
        return Some(usize::MAX);
    }
    x.as_slice().iter().zip(y.as_slice()).position(|(a, b)| a.to_bits() != b.to_bits())
}

/// Conformable operand set for the GEMM/SpMM kernels: shapes drawn from
/// `0..40` (covering empty, single-row, and blocked-path sizes), a sparsified
/// `m×k` CSR alongside dense `m×k`, `k×n`, `m×n`, and `n×k` factors.
#[allow(clippy::type_complexity)]
fn kernel_operands(
) -> impl Strategy<Value = (DenseMatrix, DenseMatrix, DenseMatrix, DenseMatrix, CsrMatrix)> {
    (0usize..40, 0usize..40, 0usize..40).prop_flat_map(|(m, k, n)| {
        (dense(m, k), dense(k, n), dense(m, n), dense(n, k)).prop_map(|(a, b, x, y)| {
            let mut sp = a.clone();
            sp.map_inplace(|v| if v.abs() < 0.5 { 0.0 } else { v });
            let s = CsrMatrix::from_dense(&sp);
            (a, b, x, y, s)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked GEMM and its transposed variants reproduce the naive
    /// ascending-order ikj loop bit-for-bit at arbitrary shapes.
    #[test]
    fn blocked_gemm_family_is_bitwise_exact((a, b, ..) in kernel_operands()) {
        let want = matmul_reference(&a, &b);
        prop_assert_eq!(first_bit_mismatch(&a.matmul(&b), &want), None);
        prop_assert_eq!(first_bit_mismatch(&a.transpose().tr_matmul(&b), &want), None);
        prop_assert_eq!(first_bit_mismatch(&a.matmul_tr(&b.transpose()), &want), None);
    }

    /// The `_into` forms with a reused workspace and output buffers are
    /// bit-identical to their allocating counterparts, including when the
    /// workspace is warm from a differently-shaped earlier product.
    #[test]
    fn into_variants_are_bitwise_exact(
        (a, b, ..) in kernel_operands(),
        (c, d, ..) in kernel_operands(),
    ) {
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        a.matmul_into(&b, &mut out, &mut ws);
        prop_assert_eq!(first_bit_mismatch(&out, &a.matmul(&b)), None);
        let mut out2 = DenseMatrix::zeros(c.rows(), d.cols());
        c.matmul_into(&d, &mut out2, &mut ws);
        prop_assert_eq!(first_bit_mismatch(&out2, &c.matmul(&d)), None);
        let ct = c.transpose();
        let mut out3 = DenseMatrix::zeros(ct.cols(), d.cols());
        ct.tr_matmul_into(&d, &mut out3, &mut ws);
        prop_assert_eq!(first_bit_mismatch(&out3, &ct.tr_matmul(&d)), None);
        let mut out4 = DenseMatrix::zeros(a.rows(), b.transpose().rows());
        a.matmul_tr_into(&b.transpose(), &mut out4, &mut ws);
        prop_assert_eq!(first_bit_mismatch(&out4, &a.matmul_tr(&b.transpose())), None);
    }

    /// The fused CSR kernels match their materialized-transpose
    /// formulations bit-for-bit.
    #[test]
    fn fused_csr_kernels_are_bitwise_exact((_, b, x, y, s) in kernel_operands()) {
        let mut out = DenseMatrix::zeros(s.rows(), b.cols());
        s.mul_dense_into(&b, &mut out);
        prop_assert_eq!(first_bit_mismatch(&out, &s.mul_dense(&b)), None);
        prop_assert_eq!(
            first_bit_mismatch(&s.tr_mul_dense(&x), &s.transpose().mul_dense(&x)),
            None
        );
        prop_assert_eq!(
            first_bit_mismatch(&s.mul_dense_tr(&y), &s.mul_dense(&y.transpose())),
            None
        );
        let fused = y.mul_csr_tr(&s);
        let via_transposes = s.mul_dense(&y.transpose()).transpose();
        prop_assert_eq!(first_bit_mismatch(&fused, &via_transposes), None);
        let mut into = DenseMatrix::zeros(y.rows(), s.rows());
        y.mul_csr_tr_into(&s, &mut into);
        prop_assert_eq!(first_bit_mismatch(&into, &fused), None);
    }
}

/// The degenerate shapes the random ranges only occasionally reach, pinned:
/// fully empty, empty shared dimension, single row/column, and a size just
/// past the blocked-path threshold.
#[test]
fn blocked_kernels_pinned_edge_shapes() {
    for (m, k, n) in
        [(0, 0, 0), (0, 5, 3), (4, 0, 3), (2, 3, 0), (1, 1, 1), (1, 9, 4), (33, 34, 35)]
    {
        let a = DenseMatrix::from_fn(m, k, |i, j| ((i * 13 + j * 7) as f64).sin());
        let b = DenseMatrix::from_fn(k, n, |i, j| ((i * 5 + j * 11) as f64).cos());
        let want = matmul_reference(&a, &b);
        assert_eq!(first_bit_mismatch(&a.matmul(&b), &want), None, "matmul {m}x{k}x{n}");
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(m, n);
        a.matmul_into(&b, &mut out, &mut ws);
        assert_eq!(first_bit_mismatch(&out, &want), None, "matmul_into {m}x{k}x{n}");
        let s = CsrMatrix::from_dense(&a);
        let fused = b.transpose().mul_csr_tr(&s);
        assert_eq!(first_bit_mismatch(&fused, &want.transpose()), None, "mul_csr_tr {m}x{k}x{n}");
    }
}

/// Paired random slices of equal, arbitrary length spanning every `n mod 8`
/// (and hence `n mod 4`) remainder class, including empty and length 1.
fn paired_slices() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..68).prop_flat_map(|n| {
        (proptest::collection::vec(-2.0f64..2.0, n), proptest::collection::vec(-2.0f64..2.0, n))
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `out[r] += a[r] · panel` by the naive ikj loop over a row-major
/// `a[r].len() × nc` panel: the per-element order the GEMM tile must keep.
fn tile_reference(a: &[&[f64]], panel: &[f64], nc: usize, out: &mut [Vec<f64>]) {
    for (seg, row) in a.iter().zip(out) {
        for (l, &al) in seg.iter().enumerate() {
            for (o, &b) in row.iter_mut().zip(&panel[l * nc..(l + 1) * nc]) {
                *o += al * b;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The vector kernels are bitwise-equal to their scalar references at
    /// every remainder width: the reductions to the portable lane-group
    /// versions (the AVX2 build runs intrinsics, so this is where the two
    /// paths meet), `axpy` and `scale` to the plain per-element loop.
    #[test]
    fn simd_vector_kernels_match_scalar_twins_bitwise((x, y) in paired_slices(), alpha in -2.0f64..2.0) {
        use graphalign_linalg::simd::{self, portable};
        prop_assert_eq!(simd::dot(&x, &y).to_bits(), portable::dot(&x, &y).to_bits());
        prop_assert_eq!(simd::sum(&x).to_bits(), portable::sum(&x).to_bits());
        prop_assert_eq!(
            simd::dist2_sq(&x, &y).to_bits(),
            portable::dist2_sq(&x, &y).to_bits()
        );
        let (m, p) = simd::dist2_sq_both(&x, &y);
        let (ms, ps) = portable::dist2_sq_both(&x, &y);
        prop_assert_eq!(m.to_bits(), ms.to_bits());
        prop_assert_eq!(p.to_bits(), ps.to_bits());
        let mut ya = y.clone();
        let mut yb = y;
        simd::axpy(alpha, &x, &mut ya);
        for (yi, xi) in yb.iter_mut().zip(&x) {
            *yi += alpha * xi;
        }
        prop_assert_eq!(bits(&ya), bits(&yb));
        let mut xa = x.clone();
        let mut xb = x;
        simd::scale(alpha, &mut xa);
        for xi in xb.iter_mut() {
            *xi *= alpha;
        }
        prop_assert_eq!(bits(&xa), bits(&xb));
    }

    /// The packed GEMM tile, 1-row and 4-row, is bitwise-equal to the naive
    /// ikj loop over the row-major panel it was packed from, at every panel
    /// width remainder, empty shared dimension and empty output included.
    #[test]
    fn simd_gemm_tiles_match_scalar_twins_bitwise(
        kc in 0usize..12,
        nc in 0usize..28,
        seed in 0u64..1000,
    ) {
        use graphalign_linalg::simd;
        let gen = |k: u64, len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| (((i as u64 * 2654435761 + seed * 97 + k) % 1000) as f64 - 500.0) / 251.0)
                .collect()
        };
        let panel = gen(1, kc * nc);
        let a: Vec<Vec<f64>> = (0..4).map(|r| gen(2 + r, kc)).collect();
        let quad = [&a[0][..], &a[1][..], &a[2][..], &a[3][..]];
        let mut packed = vec![0.0; kc * nc];
        simd::pack_panel(&panel, nc, 0, 0, kc, nc, &mut packed);

        let mut want: Vec<Vec<f64>> = (0..4).map(|r| gen(11 + r, nc)).collect();
        let mut got = want.clone();
        tile_reference(&quad, &panel, nc, &mut want);
        {
            let [o0, o1, o2, o3] = &mut got[..] else { unreachable!() };
            simd::gemm_tile_packed(quad, &packed, nc, [o0, o1, o2, o3]);
        }
        prop_assert_eq!(bits(&got.concat()), bits(&want.concat()));

        let mut one = gen(11, nc);
        simd::gemm_tile_packed([quad[0]], &packed, nc, [&mut one]);
        prop_assert_eq!(bits(&one), bits(&want[0]));
    }

    /// The form-selecting right-SpMM is bitwise-identical to the plain
    /// gather kernel on both sides of its size cutoff.
    #[test]
    fn mul_csr_tr_auto_is_bitwise_exact((_, _, _, y, s) in kernel_operands()) {
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(y.rows(), s.rows());
        y.mul_csr_tr_into_auto(&s, &mut out, &mut ws);
        prop_assert_eq!(first_bit_mismatch(&out, &y.mul_csr_tr(&s)), None);
    }
}

/// The remainder widths the 8-lane reductions and the 8-wide tile strips
/// split on, pinned: every `n mod 8` class around one and two full lane
/// groups, the empty slice, and length 1.
#[test]
fn simd_kernels_pinned_remainder_widths() {
    use graphalign_linalg::simd::{self, portable};
    for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33] {
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64).cos()).collect();
        assert_eq!(simd::dot(&x, &y).to_bits(), portable::dot(&x, &y).to_bits(), "dot n={n}");
        assert_eq!(simd::sum(&x).to_bits(), portable::sum(&x).to_bits(), "sum n={n}");
        assert_eq!(
            simd::dist2_sq(&x, &y).to_bits(),
            portable::dist2_sq(&x, &y).to_bits(),
            "dist2_sq n={n}"
        );
        let mut ya = y.clone();
        let mut yb = y.clone();
        simd::axpy(0.37, &x, &mut ya);
        for (yi, xi) in yb.iter_mut().zip(&x) {
            *yi += 0.37 * xi;
        }
        assert_eq!(bits(&ya), bits(&yb), "axpy n={n}");
        // 1×n GEMM tile: a single unit-length lhs row against an n-wide panel.
        let a = [0.83_f64];
        let mut packed = vec![0.0; n];
        simd::pack_panel(&x, n, 0, 0, 1, n, &mut packed);
        let mut want = vec![vec![0.25; n]];
        let mut got = want[0].clone();
        tile_reference(&[&a], &x, n, &mut want);
        simd::gemm_tile_packed([&a], &packed, n, [&mut got]);
        assert_eq!(bits(&got), bits(&want[0]), "tile1 1x{n}");
    }
}

/// The reductions' results pinned as bit patterns, so that the AVX2 build
/// and the portable build (`RUSTFLAGS="-C target-cpu=x86-64"`) must agree
/// with each other, and with the values both gave before, on every
/// remainder class. The inputs are exact rationals, independent of any
/// math library. Columns: `n`, `dot(x, y)`, `sum(x)`, `dist2_sq(x, y)`,
/// `‖x + y‖²`; `dist2_sq_both` must return columns 4 and 5.
#[test]
fn reduction_bits_are_pinned_across_builds() {
    use graphalign_linalg::simd;
    const PINNED: [(usize, u64, u64, u64, u64); 21] = [
        (0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000),
        (1, 0x401691cba8e96a14, 0xbfffcf0b38187a64, 0x3fe72025b34a9f49, 0x40374accd683bf0f),
        (2, 0x40112ffec613a7d4, 0xbfee371360e47650, 0x4018a8c834721390, 0x40375a30d3302cb9),
        (3, 0x401148670d9fde3b, 0xbfeb486a125bcaf7, 0x4018c5d97c367e0c, 0x403779dd6cad7dbf),
        (4, 0x40061c2524405aee, 0xbffb690d424b795f, 0x402aa4645ea03d3d, 0x40386044c1704c17),
        (5, 0x401c7dab17d5e1f2, 0xc00c35092de57b69, 0x402b57c10869bfe1, 0x404514c5ce0560f2),
        (6, 0x401851b01db699e2, 0xc00274455ac5dd52, 0x4031f9b5361507a8, 0x404525b2a9e5d0c6),
        (7, 0x40190f4979bc6d05, 0xc0005197f7d73404, 0x40322852101f5da1, 0x40459bcdc4ede554),
        (8, 0x4012e9853e797b8a, 0xc005cd0105197f7e, 0x403abb1b1e365ba5, 0x4046d2502e57eb96),
        (9, 0x401fd28ebada0cfe, 0xc011734041465fe0, 0x403ad79aa737e813, 0x404d5514b108fa87),
        (10, 0x401d7809c34fd1b2, 0xc007beb9a020a331, 0x403e24373848665e, 0x404dce207dcc1c06),
        (11, 0x401f76784dadd423, 0xc00435092de57b6a, 0x403e9c50a73e5676, 0x404f09647a76154b),
        (12, 0x401a00e86c86347e, 0xc008496f2bdb486b, 0x404461a57ffe1912, 0x4050b10cdb2099a8),
        (13, 0x40217f837cb81abf, 0xc011fdf5cd01051a, 0x4044625fe4f67439, 0x4052f0f1b0d7477c),
        (14, 0x402188ce0f2cccc4, 0xc0076d21a8496f2d, 0x4045992423800e0a, 0x405390f919566d67),
        (15, 0x40237641f8772eed, 0xc0027c6e26c1c8ee, 0x40460b012bda0288, 0x4054c0a1922898ba),
        (16, 0x40253cdef7b178d7, 0xc00529d1156b1775, 0x4048bb125f81cdf4, 0x4056fbf8ab99a366),
        (17, 0x4028144ad35a7a67, 0xc00f754a74455ac6, 0x4048bf596b5aed6d, 0x405869d21f5ab3eb),
        (31, 0x402bbc2a9cd4f807, 0xc0034041465fdf62, 0x405ab46447840490, 0x4064493ccaf7404a),
        (33, 0x402a52c2cc83c0a3, 0xc0050105197f7d75, 0x405b7cc28d282197, 0x40645311f9b500f3),
        (64, 0x4031201e5fa2fe22, 0xc008391d93e37138, 0x406d2e8be33c2775, 0x4072df4d8986d344),
    ];
    for (n, dot, sum, minus, plus) in PINNED {
        let x: Vec<f64> =
            (0..n).map(|i| (((i as u64 * 2654435761 + 1) % 1000) as f64 - 500.0) / 251.0).collect();
        let y: Vec<f64> =
            (0..n).map(|i| (((i as u64 * 2246822519 + 7) % 997) as f64 - 498.0) / 173.0).collect();
        assert_eq!(simd::dot(&x, &y).to_bits(), dot, "dot n={n}");
        assert_eq!(simd::sum(&x).to_bits(), sum, "sum n={n}");
        assert_eq!(simd::dist2_sq(&x, &y).to_bits(), minus, "dist2_sq n={n}");
        let (m, p) = simd::dist2_sq_both(&x, &y);
        assert_eq!((m.to_bits(), p.to_bits()), (minus, plus), "dist2_sq_both n={n}");
    }
}
