//! Kuhn–Munkres (Hungarian) algorithm with potentials.
//!
//! The `O(n²m)` shortest-augmenting-path formulation with dual potentials —
//! the optimal LAP baseline against which the paper's heuristics (NN, SG)
//! are compared. Works on rectangular problems with `rows ≤ cols`.
//!
//! Each row's search scans only the columns it has not yet used, kept in
//! ascending order in a list from which a column leaves when it is used, so
//! a step touches only the columns still in play. The arithmetic, its order
//! and the tie-breaking (the smallest column among equal `minv`) are the
//! textbook scan over all columns, so the matching is the one it finds, bit
//! for bit.
//!
//! The search polls the cooperative cell budget ([`graphalign_par::budget`])
//! once per row: when the budget expires it stops and completes the matching
//! with the free columns, like [`crate::auction`]. The result is still a
//! valid one-to-one matching, but not an optimal one; the pipeline reports
//! a matching returned after the budget expired as interrupted
//! (`graphalign::assign_within_budget`).

use graphalign_linalg::DenseMatrix;

/// Solves the LAP *minimizing* total cost; returns `out[row] = col`.
///
/// # Panics
/// Panics if `rows > cols` or the matrix contains NaN.
pub fn hungarian_min(cost: &DenseMatrix) -> Vec<usize> {
    let (n, m) = cost.shape();
    assert!(n <= m, "hungarian: need rows ≤ cols (got {n} × {m})");
    assert!(cost.all_finite(), "hungarian: cost matrix must be finite");
    if n == 0 {
        return Vec::new();
    }
    // 1-indexed arrays with a virtual 0 column/row, per the classical
    // potential-based formulation.
    let inf = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j]: row matched to column j (0 = none)
    let mut way = vec![0usize; m + 1];
    let mut minv = vec![inf; m + 1];
    // The current search's used columns (0 is the virtual one) and the rest,
    // in ascending order.
    let mut used: Vec<usize> = Vec::with_capacity(m + 1);
    let mut unused: Vec<usize> = Vec::with_capacity(m);
    for i in 1..=n {
        if graphalign_par::budget::exceeded() {
            break;
        }
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(inf);
        used.clear();
        unused.clear();
        unused.extend(1..=m);
        loop {
            used.push(j0);
            let i0 = p[j0];
            let row = cost.row(i0 - 1);
            let mut delta = inf;
            let mut k1 = usize::MAX;
            for (k, &j) in unused.iter().enumerate() {
                let cur = row[j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    k1 = k;
                }
            }
            assert!(k1 != usize::MAX, "hungarian: search found no reachable column");
            for &j in &used {
                u[p[j]] += delta;
                v[j] -= delta;
            }
            for &j in &unused {
                minv[j] -= delta;
            }
            j0 = unused.remove(k1);
            if p[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut out = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            out[p[j] - 1] = j - 1;
        }
    }
    // Rows an expired budget left unmatched take the free columns.
    let mut free_cols: Vec<usize> = (1..=m).filter(|&j| p[j] == 0).map(|j| j - 1).collect();
    for c in out.iter_mut().filter(|c| **c == usize::MAX) {
        *c = free_cols.pop().expect("cols ≥ rows");
    }
    out
}

/// Solves the LAP *maximizing* total similarity (negates and delegates to
/// [`hungarian_min`]).
///
/// # Panics
/// See [`hungarian_min`].
pub fn hungarian_max(sim: &DenseMatrix) -> Vec<usize> {
    hungarian_min(&sim.scaled(-1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimal assignment by permutation enumeration.
    pub(crate) fn brute_force_max(sim: &DenseMatrix) -> f64 {
        let (n, m) = sim.shape();
        assert!(n <= m && m <= 8, "brute force only for tiny instances");
        fn rec(sim: &DenseMatrix, row: usize, used: &mut Vec<bool>) -> f64 {
            if row == sim.rows() {
                return 0.0;
            }
            let mut best = f64::NEG_INFINITY;
            for j in 0..sim.cols() {
                if used[j] {
                    continue;
                }
                used[j] = true;
                let v = sim.get(row, j) + rec(sim, row + 1, used);
                used[j] = false;
                best = best.max(v);
            }
            best
        }
        rec(sim, 0, &mut vec![false; m])
    }

    #[test]
    fn known_3x3() {
        // Optimal: (0,1), (1,0), (2,2) with cost 1 + 2 + 3 = 6... verify by
        // brute force instead of hand arithmetic.
        let cost = DenseMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]]);
        let a = hungarian_min(&cost);
        let total: f64 = a.iter().enumerate().map(|(i, &j)| cost.get(i, j)).sum();
        let best = -brute_force_max(&cost.scaled(-1.0));
        assert!((total - best).abs() < 1e-12, "{total} vs {best}");
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..30 {
            let n = rng.random_range(1..=6);
            let m = rng.random_range(n..=7);
            let sim = DenseMatrix::from_fn(n, m, |_, _| rng.random_range(-5.0..5.0));
            let a = hungarian_max(&sim);
            let total: f64 = a.iter().enumerate().map(|(i, &j)| sim.get(i, j)).sum();
            let best = brute_force_max(&sim);
            assert!(
                (total - best).abs() < 1e-9,
                "trial {trial}: hungarian {total} vs brute force {best}"
            );
            // Validity: distinct columns.
            let mut seen = vec![false; m];
            for &j in &a {
                assert!(!seen[j]);
                seen[j] = true;
            }
        }
    }

    #[test]
    fn identity_similarity_prefers_diagonal() {
        let sim = DenseMatrix::identity(5);
        assert_eq!(hungarian_max(&sim), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_row() {
        let sim = DenseMatrix::from_rows(&[&[1.0, 5.0, 3.0]]);
        assert_eq!(hungarian_max(&sim), vec![1]);
    }

    #[test]
    fn empty_problem() {
        assert!(hungarian_min(&DenseMatrix::zeros(0, 0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "rows ≤ cols")]
    fn too_many_rows_panics() {
        hungarian_min(&DenseMatrix::zeros(2, 1));
    }

    #[test]
    fn expired_budget_still_yields_valid_matching() {
        // With a dead budget the search stops before the first row but must
        // still return a complete one-to-one matching, rectangular included.
        let (n, m) = (20, 23);
        let sim = DenseMatrix::from_fn(n, m, |i, j| ((i * 7 + j * 13) % 17) as f64);
        let _g = graphalign_par::budget::install(Some(std::time::Duration::ZERO));
        let a = hungarian_max(&sim);
        let mut seen = vec![false; m];
        for &j in &a {
            assert!(!seen[j], "column {j} assigned twice");
            seen[j] = true;
        }
        assert_eq!(a.len(), n);
    }
}
