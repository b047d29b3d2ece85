//! The innermost vector and GEMM-tile kernels, one implementation each.
//!
//! The element-wise kernels ([`axpy`], [`scale`], [`pack_panel`] and the
//! packed GEMM tile [`gemm_tile_packed`]) are plain Rust; built for the
//! `x86-64-v3` level that `.cargo/config.toml` pins, they compile to 256-bit
//! AVX code. The four horizontal reductions ([`dot`], [`sum`], [`dist2_sq`],
//! [`dist2_sq_both`]) are the exception: written portably, the compiler
//! turns their 8-lane accumulators into 128-bit code, so a build that
//! targets AVX2 runs them on `std::arch` intrinsics instead. The choice is
//! made at build time ([`simd_active`] reports it) and never changes a bit:
//! the tests pin the reductions' results to constants and hold the AVX2
//! build to the portable versions in [`portable`], which every other build
//! runs.
//!
//! # The lane-group accumulation contract
//!
//! Element-wise kernels are trivially order-preserving: each output element
//! accumulates its terms in ascending shared-index order with one rounding
//! per multiply and one per add, exactly like the scalar loop, so
//! vectorizing across *elements* cannot change a bit.
//!
//! Reductions cannot keep the historical single-accumulator order and still
//! vectorize, so this module *defines* their summation order as the 8-stripe
//! lane-group order: lane `k ∈ 0..8` accumulates indices `i ≡ k (mod 8)` over
//! the 8-aligned prefix, lanes are combined in the fixed tree
//! `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the natural AVX2 reduction
//! shape — and the tail `len − len % 8` onward is added sequentially.

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub use avx2::{dist2_sq, dist2_sq_both, dot, sum};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub use portable::{dist2_sq, dist2_sq_both, dot, sum};

/// Whether this build runs the reductions on AVX2 intrinsics: `true` when it
/// was compiled for an x86-64 target with AVX2, as the pinned `x86-64-v3`
/// is. Fixed at build time; either answer gives the same bits.
pub fn simd_active() -> bool {
    cfg!(all(target_arch = "x86_64", target_feature = "avx2"))
}

/// The portable lane-group reductions: what [`dot`], [`sum`], [`dist2_sq`]
/// and [`dist2_sq_both`] are on builds without AVX2, and the reference the
/// tests hold the AVX2 build to.
pub mod portable {
    /// Combines eight stripe accumulators in the fixed AVX2 reduction shape:
    /// pairwise across the two vector registers, then across 128-bit halves,
    /// then across lanes.
    #[inline]
    fn combine8(acc: [f64; 8]) -> f64 {
        let v = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
        (v[0] + v[2]) + (v[1] + v[3])
    }

    /// Dot product `x · y` in the lane-group order.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch ({} vs {})", x.len(), y.len());
        let n = x.len();
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i + 8 <= n {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += x[i + k] * y[i + k];
            }
            i += 8;
        }
        let mut total = combine8(acc);
        while i < n {
            total += x[i] * y[i];
            i += 1;
        }
        total
    }

    /// Sum of all entries in the lane-group order.
    pub fn sum(x: &[f64]) -> f64 {
        let n = x.len();
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i + 8 <= n {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += x[i + k];
            }
            i += 8;
        }
        let mut total = combine8(acc);
        while i < n {
            total += x[i];
            i += 1;
        }
        total
    }

    /// Squared Euclidean distance `‖x − y‖₂²` in the lane-group order.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
        let n = x.len();
        let mut acc = [0.0f64; 8];
        let mut i = 0;
        while i + 8 <= n {
            for (k, a) in acc.iter_mut().enumerate() {
                let d = x[i + k] - y[i + k];
                *a += d * d;
            }
            i += 8;
        }
        let mut total = combine8(acc);
        while i < n {
            let d = x[i] - y[i];
            total += d * d;
            i += 1;
        }
        total
    }

    /// Both squared distances `(‖x − y‖₂², ‖x + y‖₂²)` in one pass, each in
    /// the lane-group order — bit-identical to two [`dist2_sq`] calls, the
    /// second on a sign-flipped `y`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dist2_sq_both(x: &[f64], y: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), y.len(), "dist2_sq_both: length mismatch");
        let n = x.len();
        let mut am = [0.0f64; 8];
        let mut ap = [0.0f64; 8];
        let mut i = 0;
        while i + 8 <= n {
            for k in 0..8 {
                let d = x[i + k] - y[i + k];
                am[k] += d * d;
                let s = x[i + k] + y[i + k];
                ap[k] += s * s;
            }
            i += 8;
        }
        let mut minus = combine8(am);
        let mut plus = combine8(ap);
        while i < n {
            let d = x[i] - y[i];
            minus += d * d;
            let s = x[i] + y[i];
            plus += s * s;
            i += 1;
        }
        (minus, plus)
    }
}

/// The reductions on AVX2 intrinsics, two 4-lane registers per 8-stripe
/// group, in exactly the operation order of [`portable`].
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use std::arch::x86_64::*;

    /// Reduces `acc0`/`acc1` (stripes 0..4 / 4..8) in the canonical order:
    /// `add(acc0, acc1)` gives lane `k = l_k + l_{k+4}`, halves add to
    /// `(v0+v2, v1+v3)`, lanes add to the total.
    #[inline]
    fn reduce8(acc0: __m256d, acc1: __m256d) -> f64 {
        // SAFETY: this module is only compiled for targets with AVX2, and
        // these intrinsics touch registers only.
        unsafe {
            let v = _mm256_add_pd(acc0, acc1);
            let lo = _mm256_castpd256_pd128(v);
            let hi = _mm256_extractf128_pd(v, 1);
            let s = _mm_add_pd(lo, hi);
            _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s))
        }
    }

    /// Dot product `x · y` in the lane-group order.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch ({} vs {})", x.len(), y.len());
        let n = x.len();
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: the target has AVX2 (module cfg); every load reads four
        // lanes at `i` or `i + 4` with `i + 8 <= n`, in bounds of both
        // slices since their lengths are equal (asserted above).
        let (acc0, acc1) = unsafe {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            while i + 8 <= n {
                acc0 = _mm256_add_pd(
                    acc0,
                    _mm256_mul_pd(_mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i))),
                );
                acc1 = _mm256_add_pd(
                    acc1,
                    _mm256_mul_pd(_mm256_loadu_pd(px.add(i + 4)), _mm256_loadu_pd(py.add(i + 4))),
                );
                i += 8;
            }
            (acc0, acc1)
        };
        let mut total = reduce8(acc0, acc1);
        while i < n {
            total += x[i] * y[i];
            i += 1;
        }
        total
    }

    /// Sum of all entries in the lane-group order.
    pub fn sum(x: &[f64]) -> f64 {
        let n = x.len();
        let px = x.as_ptr();
        let mut i = 0;
        // SAFETY: the target has AVX2 (module cfg); every load reads four
        // lanes at `i` or `i + 4` with `i + 8 <= n`.
        let (acc0, acc1) = unsafe {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            while i + 8 <= n {
                acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(px.add(i)));
                acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(px.add(i + 4)));
                i += 8;
            }
            (acc0, acc1)
        };
        let mut total = reduce8(acc0, acc1);
        while i < n {
            total += x[i];
            i += 1;
        }
        total
    }

    /// Squared Euclidean distance `‖x − y‖₂²` in the lane-group order.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
        let n = x.len();
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: as in `dot`: AVX2 target, equal lengths, `i + 8 <= n`.
        let (acc0, acc1) = unsafe {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            while i + 8 <= n {
                let d0 = _mm256_sub_pd(_mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
                let d1 =
                    _mm256_sub_pd(_mm256_loadu_pd(px.add(i + 4)), _mm256_loadu_pd(py.add(i + 4)));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
                i += 8;
            }
            (acc0, acc1)
        };
        let mut total = reduce8(acc0, acc1);
        while i < n {
            let d = x[i] - y[i];
            total += d * d;
            i += 1;
        }
        total
    }

    /// Both squared distances `(‖x − y‖₂², ‖x + y‖₂²)` in one pass, each in
    /// the lane-group order — bit-identical to two [`dist2_sq`] calls, the
    /// second on a sign-flipped `y`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn dist2_sq_both(x: &[f64], y: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), y.len(), "dist2_sq_both: length mismatch");
        let n = x.len();
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut i = 0;
        // SAFETY: as in `dot`: AVX2 target, equal lengths, `i + 8 <= n`.
        let (am0, am1, ap0, ap1) = unsafe {
            let mut am0 = _mm256_setzero_pd();
            let mut am1 = _mm256_setzero_pd();
            let mut ap0 = _mm256_setzero_pd();
            let mut ap1 = _mm256_setzero_pd();
            while i + 8 <= n {
                let x0 = _mm256_loadu_pd(px.add(i));
                let y0 = _mm256_loadu_pd(py.add(i));
                let x1 = _mm256_loadu_pd(px.add(i + 4));
                let y1 = _mm256_loadu_pd(py.add(i + 4));
                let d0 = _mm256_sub_pd(x0, y0);
                let d1 = _mm256_sub_pd(x1, y1);
                am0 = _mm256_add_pd(am0, _mm256_mul_pd(d0, d0));
                am1 = _mm256_add_pd(am1, _mm256_mul_pd(d1, d1));
                let s0 = _mm256_add_pd(x0, y0);
                let s1 = _mm256_add_pd(x1, y1);
                ap0 = _mm256_add_pd(ap0, _mm256_mul_pd(s0, s0));
                ap1 = _mm256_add_pd(ap1, _mm256_mul_pd(s1, s1));
                i += 8;
            }
            (am0, am1, ap0, ap1)
        };
        let mut minus = reduce8(am0, am1);
        let mut plus = reduce8(ap0, ap1);
        while i < n {
            let d = x[i] - y[i];
            minus += d * d;
            let s = x[i] + y[i];
            plus += s * s;
            i += 1;
        }
        (minus, plus)
    }
}

/// In-place `y ← y + alpha · x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x ← alpha · x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Column width of one micro-strip inside a packed panel.
pub const STRIP: usize = 8;

/// Packs a `kc × nc` panel of `b` (rows `b[(k0+l)*ld + j0 ..]` for `l` in
/// `0..kc`, columns `j0..j0+nc`) into micro-strip layout: the panel is a
/// sequence of column strips of width [`STRIP`] (plus one `nc % STRIP`
/// remainder strip), each strip row-major — element `(l, j)` of strip `s`
/// lives at `s·kc·STRIP + l·w + (j − s·STRIP)` where `w` is the strip
/// width. [`gemm_tile_packed`] then reads the panel purely sequentially,
/// which is what keeps it fast when the panel streams from L2/L3.
///
/// # Panics
/// Panics if `dst` holds fewer than `kc · nc` values or the panel reaches
/// past the end of `b`.
pub fn pack_panel(
    b: &[f64],
    ld: usize,
    k0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    dst: &mut [f64],
) {
    assert!(dst.len() >= kc * nc, "pack_panel: destination too small");
    let mut off = 0;
    let mut js = 0;
    while js < nc {
        let w = STRIP.min(nc - js);
        let strip = &mut dst[off..off + kc * w];
        for (l, row) in strip.chunks_exact_mut(w).enumerate() {
            let src = (k0 + l) * ld + j0 + js;
            row.copy_from_slice(&b[src..src + w]);
        }
        off += kc * w;
        js += w;
    }
}

/// Register-tiled GEMM microkernel over a micro-strip packed panel (see
/// [`pack_panel`]): `out[r][j] += Σ_l a[r][l] · B[l][j]` for `R` output row
/// segments at once. The blocked product runs it with `R = 4`, which loads
/// each packed strip row once per four output rows and keeps the `4 × 8`
/// output tile in registers across the whole shared dimension, and with
/// `R = 1` for leftover rows. Every output element accumulates its terms in
/// ascending `l` with one running accumulator seeded from `out`, so the
/// result is bit-identical to the naive ikj loop.
///
/// # Panics
/// Panics if the `a` segments differ in length, if `panel` holds fewer than
/// `a[0].len() · nc` values, or if an output segment is not `nc` long.
pub fn gemm_tile_packed<const R: usize>(
    a: [&[f64]; R],
    panel: &[f64],
    nc: usize,
    mut out: [&mut [f64]; R],
) {
    let kc = a[0].len();
    assert!(a.iter().all(|s| s.len() == kc), "gemm_tile_packed: ragged lhs segments");
    assert!(panel.len() >= kc * nc, "gemm_tile_packed: panel too small");
    assert!(out.iter().all(|o| o.len() == nc), "gemm_tile_packed: output length mismatch");
    if kc == 0 {
        // Nothing to add, and `chunks_exact` below needs a nonzero width.
        return;
    }
    let full = nc - nc % STRIP;
    let (strips, rest) = panel[..kc * nc].split_at(kc * full);
    let (rows, _) = strips.as_chunks::<STRIP>();
    for (s, strip) in rows.chunks_exact(kc).enumerate() {
        let cols = s * STRIP..(s + 1) * STRIP;
        let mut acc = [[0.0f64; STRIP]; R];
        for (c, o) in acc.iter_mut().zip(&out) {
            c.copy_from_slice(&o[cols.clone()]);
        }
        // Written as a count over `0..kc` with the segments taken by value,
        // the loop compiles to the same broadcast/multiply/add sequence over
        // `R × 2` ymm accumulators as hand-written AVX2; iterator forms kept
        // a bounds check on `ar[l]` in it that slowed the blocked GEMM by
        // about 10 %.
        for l in 0..kc {
            for (c, ar) in acc.iter_mut().zip(a) {
                let al = ar[l];
                for (cj, &bj) in c.iter_mut().zip(&strip[l]) {
                    *cj += al * bj;
                }
            }
        }
        for (c, o) in acc.iter().zip(&mut out) {
            o[cols.clone()].copy_from_slice(c);
        }
    }
    let w = nc - full;
    for (o, ar) in out.iter_mut().zip(a) {
        for (jj, oj) in o[full..].iter_mut().enumerate() {
            let mut acc = *oj;
            for (l, &al) in ar.iter().enumerate() {
                acc += al * rest[l * w + jj];
            }
            *oj = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, seed: u64) -> Vec<f64> {
        (0..n).map(|i| (((i as u64 * 2654435761 + seed) % 1000) as f64 - 500.0) / 251.0).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every public kernel agrees bit for bit with its reference on all
    /// remainder widths: the reductions with [`portable`] (on the portable
    /// build they are the same function, and the pinned-bit test in
    /// `tests/proptests.rs` carries the check), the element-wise kernels
    /// with the plain per-element loop.
    #[test]
    fn simd_matches_scalar_twins_for_all_remainders() {
        for n in 0..40 {
            let x = vec_of(n, 1);
            let y = vec_of(n, 2);
            assert_eq!(dot(&x, &y).to_bits(), portable::dot(&x, &y).to_bits(), "dot n={n}");
            assert_eq!(sum(&x).to_bits(), portable::sum(&x).to_bits(), "sum n={n}");
            assert_eq!(
                dist2_sq(&x, &y).to_bits(),
                portable::dist2_sq(&x, &y).to_bits(),
                "dist2_sq n={n}"
            );
            let (m, p) = dist2_sq_both(&x, &y);
            let (ms, ps) = portable::dist2_sq_both(&x, &y);
            assert_eq!((m.to_bits(), p.to_bits()), (ms.to_bits(), ps.to_bits()), "both n={n}");
            let mut ya = vec_of(n, 3);
            let mut yb = ya.clone();
            axpy(0.37, &x, &mut ya);
            for (yi, xi) in yb.iter_mut().zip(&x) {
                *yi += 0.37 * xi;
            }
            assert_eq!(bits(&ya), bits(&yb), "axpy n={n}");
            scale(-1.25, &mut ya);
            for yi in yb.iter_mut() {
                *yi *= -1.25;
            }
            assert_eq!(bits(&ya), bits(&yb), "scale n={n}");
        }
    }

    /// The 1-row and 4-row packed tiles reproduce the naive ikj loop over the
    /// row-major panel bit for bit: full strips, the remainder strip, both,
    /// and an empty shared dimension.
    #[test]
    fn gemm_tiles_match_scalar_twins_bitwise() {
        for nc in [1usize, 3, 4, 5, 7, 8, 11, 13, 16, 24, 29] {
            for kc in [0usize, 1, 2, 3, 5, 7, 16, 32] {
                let row_major = vec_of(kc * nc, 9);
                let mut packed = vec![0.0; kc * nc];
                pack_panel(&row_major, nc, 0, 0, kc, nc, &mut packed);
                let segs: Vec<Vec<f64>> = (0..4).map(|r| vec_of(kc, 10 + r as u64)).collect();
                let mut got: Vec<Vec<f64>> = (0..4).map(|r| vec_of(nc, 20 + r as u64)).collect();
                let mut want = got.clone();
                for (seg, row) in segs.iter().zip(&mut want) {
                    for (l, &al) in seg.iter().enumerate() {
                        for (o, &b) in row.iter_mut().zip(&row_major[l * nc..(l + 1) * nc]) {
                            *o += al * b;
                        }
                    }
                }
                {
                    let [g0, g1, g2, g3] = &mut got[..] else { unreachable!() };
                    gemm_tile_packed(
                        [&segs[0], &segs[1], &segs[2], &segs[3]],
                        &packed,
                        nc,
                        [g0, g1, g2, g3],
                    );
                }
                assert_eq!(bits(&got.concat()), bits(&want.concat()), "tile4 nc={nc} kc={kc}");
                let mut one = vec_of(nc, 20);
                gemm_tile_packed([&segs[0]], &packed, nc, [&mut one]);
                assert_eq!(bits(&one), bits(&want[0]), "tile1 nc={nc} kc={kc}");
            }
        }
    }

    /// Packing a sub-panel out of a larger row-major matrix (nonzero row and
    /// column offsets, leading dimension wider than the panel) and running
    /// the packed tiles gives the bits of the naive ikj loop that reads the
    /// row-major matrix in place.
    #[test]
    fn packed_kernels_match_row_major_kernels_bitwise() {
        let (rows, ld, k0, j0) = (40usize, 37usize, 3usize, 5usize);
        let b = vec_of(rows * ld, 40);
        for nc in [1usize, 8, 13, 29] {
            for kc in [1usize, 7, 32] {
                let mut packed = vec![0.0; kc * nc];
                pack_panel(&b, ld, k0, j0, kc, nc, &mut packed);
                let segs: Vec<Vec<f64>> = (0..4).map(|r| vec_of(kc, 50 + r as u64)).collect();
                let mut got: Vec<Vec<f64>> = (0..4).map(|r| vec_of(nc, 60 + r as u64)).collect();
                let mut want = got.clone();
                for (seg, row) in segs.iter().zip(&mut want) {
                    for (j, o) in row.iter_mut().enumerate() {
                        for (l, &al) in seg.iter().enumerate() {
                            *o += al * b[(k0 + l) * ld + j0 + j];
                        }
                    }
                }
                let [g0, g1, g2, g3] = &mut got[..] else { unreachable!() };
                gemm_tile_packed(
                    [&segs[0], &segs[1], &segs[2], &segs[3]],
                    &packed,
                    nc,
                    [g0, g1, g2, g3],
                );
                assert_eq!(bits(&got.concat()), bits(&want.concat()), "nc={nc} kc={kc}");
            }
        }
    }

    // The shape checks are `assert!`s, so they hold in release builds: past
    // them, each of these calls would read or write beyond a slice's end or
    // silently drop the excess.

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_rejects_a_short_operand() {
        let backing = [1000.0; 16];
        dot(&[1.0; 16], &backing[..8]);
    }

    #[test]
    #[should_panic(expected = "dist2_sq: length mismatch")]
    fn dist2_sq_rejects_a_short_operand() {
        let backing = [1000.0; 16];
        dist2_sq(&[1.0; 16], &backing[..8]);
    }

    #[test]
    #[should_panic(expected = "dist2_sq_both: length mismatch")]
    fn dist2_sq_both_rejects_a_short_operand() {
        let backing = [1000.0; 16];
        dist2_sq_both(&[1.0; 16], &backing[..8]);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch")]
    fn axpy_rejects_a_short_output() {
        let mut backing = [0.0; 16];
        axpy(1.0, &[1.0; 16], &mut backing[..8]);
    }

    #[test]
    #[should_panic(expected = "pack_panel: destination too small")]
    fn pack_panel_rejects_a_short_destination() {
        let mut dst = [0.0; 15];
        pack_panel(&[1.0; 16], 8, 0, 0, 2, 8, &mut dst);
    }

    #[test]
    #[should_panic(expected = "gemm_tile_packed: ragged lhs segments")]
    fn gemm_tile_rejects_ragged_segments() {
        let (mut o0, mut o1, mut o2, mut o3) = ([0.0; 8], [0.0; 8], [0.0; 8], [0.0; 8]);
        gemm_tile_packed(
            [&[1.0; 2], &[1.0; 2], &[1.0; 1], &[1.0; 2]],
            &[1.0; 16],
            8,
            [&mut o0, &mut o1, &mut o2, &mut o3],
        );
    }

    #[test]
    #[should_panic(expected = "gemm_tile_packed: panel too small")]
    fn gemm_tile_rejects_a_short_panel() {
        let mut out = [0.0; 8];
        gemm_tile_packed([&[1.0; 2]], &[1.0; 15], 8, [&mut out]);
    }

    #[test]
    #[should_panic(expected = "gemm_tile_packed: output length mismatch")]
    fn gemm_tile_rejects_a_short_output() {
        let mut backing = [0.0; 16];
        gemm_tile_packed([&[1.0; 2]], &[1.0; 32], 16, [&mut backing[..8]]);
    }
}
