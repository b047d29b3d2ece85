//! Small dense-vector helpers shared by the iterative solvers.
//!
//! These are deliberately plain free functions over `&[f64]` so they can be
//! used on matrix rows, embedding vectors, and Lanczos basis vectors alike
//! without wrapping them in a vector type. The kernels themselves live in
//! [`crate::simd`] and are re-exported here; the reductions ([`dot`],
//! [`sum`], [`dist2_sq`], [`dist2_sq_both`]) use the fixed 8-stripe
//! lane-group summation order documented there — a pure function of the
//! input, independent of both thread count and instruction set.

pub use crate::simd::{axpy, dist2_sq, dist2_sq_both, dot, scale, sum};

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Normalizes `x` to unit Euclidean norm and returns the original norm.
/// If the norm is zero (or subnormal), `x` is left untouched and `0.0` is
/// returned, so callers can detect breakdown.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > f64::MIN_POSITIVE {
        scale(1.0 / n, x);
        n
    } else {
        0.0
    }
}

/// Index of the maximum entry (first occurrence); `None` for empty input or
/// all-NaN input.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// True when every entry is finite.
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn dot_matches_lane_group_reference() {
        // 19 entries exercises both the 8-wide stripes and the tail.
        let x: Vec<f64> = (0..19).map(|i| (i as f64 * 0.31).sin()).collect();
        let y: Vec<f64> = (0..19).map(|i| (i as f64 * 0.17).cos()).collect();
        assert_eq!(dot(&x, &y).to_bits(), crate::simd::portable::dot(&x, &y).to_bits());
        assert_eq!(sum(&x).to_bits(), crate::simd::portable::sum(&x).to_bits());
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn normalize_unit_norm_and_returns_old_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_reports_breakdown() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_picks_first_max_and_skips_nan() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn dist2_sq_matches_manual() {
        assert_eq!(dist2_sq(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
    }

    #[test]
    fn dist2_sq_both_matches_separate_calls_bitwise() {
        // Length 21 spans two full stripes plus a tail, so the lane-group
        // order is exercised, not just the sequential remainder.
        let x: Vec<f64> = (0..21).map(|i| (i as f64 * 0.73).sin() * 2.0).collect();
        let y: Vec<f64> = (0..21).map(|i| (i as f64 * 0.41).cos() - 0.3).collect();
        let y_neg: Vec<f64> = y.iter().map(|v| -1.0 * v).collect();
        let (minus, plus) = dist2_sq_both(&x, &y);
        assert_eq!(minus.to_bits(), dist2_sq(&x, &y).to_bits());
        assert_eq!(plus.to_bits(), dist2_sq(&x, &y_neg).to_bits());
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
