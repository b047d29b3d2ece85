//! Jonker–Volgenant algorithm for dense linear assignment.
//!
//! JV (Jonker & Volgenant 1987) is the paper's common assignment method: a
//! shortest-augmenting-path LAP solver accelerated by two initialization
//! passes — *column reduction* and *augmenting row reduction* — that match
//! most rows before any Dijkstra search runs. On the similarity matrices the
//! alignment algorithms produce, the initialization typically resolves the
//! bulk of the rows, which is exactly why the paper picks JV over plain
//! Hungarian.
//!
//! On the flat similarities of IsoRank and NSD it resolves fewer: at n = 256
//! about two thirds of the rows stay free and each free row's Dijkstra
//! search scans about a hundred columns, so the augmentation is cubic and
//! dominates. Its relaxation is therefore one branch-free pass over a
//! contiguous cost row: a scanned column is masked (its column potential
//! reads −∞, so its relaxed distance is +∞ and never updates; its distance
//! reads +∞, so it is never the minimum) instead of being skipped. The
//! arithmetic, evaluation order and tie-breaking are the textbook loop's, so
//! the matching is the one it finds, bit for bit.
//!
//! The augmentation polls the cooperative cell budget
//! ([`graphalign_par::budget`]) once per free row: when the budget expires it
//! stops and completes the matching with the free columns, like
//! [`crate::auction`]. The result is still a valid one-to-one matching, but
//! not an optimal one; the pipeline reports a matching returned after the
//! budget expired as interrupted (`graphalign::assign_within_budget`).

use graphalign_linalg::DenseMatrix;

/// Solves the LAP *minimizing* total cost with the JV algorithm; returns
/// `out[row] = col`. Requires a square matrix (pad rectangular problems or
/// use [`crate::hungarian`], which handles `rows < cols` directly).
///
/// # Panics
/// Panics if the matrix is not square or contains NaN.
pub fn jv_min(cost: &DenseMatrix) -> Vec<usize> {
    let (n, m) = cost.shape();
    assert_eq!(n, m, "jv: need a square matrix (got {n} × {m}); pad rectangular inputs");
    assert!(cost.all_finite(), "jv: cost matrix must be finite");
    if n == 0 {
        return Vec::new();
    }
    let inf = f64::INFINITY;
    let mut x: Vec<Option<usize>> = vec![None; n]; // row -> col
    let mut y: Vec<Option<usize>> = vec![None; n]; // col -> row

    // --- Column reduction. --- Each column's minimum (its potential) and the
    // first row holding it, as running minima over the rows; the columns then
    // claim their rows right to left.
    let mut v = cost.row(0).to_vec(); // column potentials
    let mut imin = vec![0usize; n];
    for i in 1..n {
        for ((vj, ij), &c) in v.iter_mut().zip(&mut imin).zip(cost.row(i)) {
            if c < *vj {
                *vj = c;
                *ij = i;
            }
        }
    }
    for j in (0..n).rev() {
        let i = imin[j];
        if x[i].is_none() {
            x[i] = Some(j);
            y[j] = Some(i);
        }
    }

    // --- Augmenting row reduction (two sweeps). ---
    for _ in 0..2 {
        let free: Vec<usize> = (0..n).filter(|&i| x[i].is_none()).collect();
        for &i in &free {
            if x[i].is_some() {
                continue;
            }
            // Find the two smallest reduced costs in row i.
            let mut u1 = inf;
            let mut u2 = inf;
            let mut j1 = 0usize;
            for (j, (&c, &vj)) in cost.row(i).iter().zip(&v).enumerate() {
                let r = c - vj;
                if r < u1 {
                    u2 = u1;
                    u1 = r;
                    j1 = j;
                } else if r < u2 {
                    u2 = r;
                }
            }
            if u2.is_finite() && u1 < u2 {
                v[j1] -= u2 - u1;
            }
            match y[j1] {
                None => {
                    x[i] = Some(j1);
                    y[j1] = Some(i);
                }
                Some(prev) if u1 < u2 => {
                    // Steal j1; prev becomes free and is retried later.
                    x[prev] = None;
                    x[i] = Some(j1);
                    y[j1] = Some(i);
                }
                Some(_) => {}
            }
        }
    }

    // --- Augmentation (Dijkstra shortest augmenting paths) for the rest. ---
    let free: Vec<usize> = (0..n).filter(|&i| x[i].is_none()).collect();
    let mut d = vec![0.0; n]; // tentative distances; +∞ once scanned
    let mut vr = vec![0.0; n]; // column potentials; −∞ once scanned
    let mut pred = vec![0usize; n];
    let mut scanned: Vec<(usize, f64)> = Vec::with_capacity(n); // (column, final distance)
    for &f in &free {
        if graphalign_par::budget::exceeded() {
            break;
        }
        for ((dj, &c), &vj) in d.iter_mut().zip(cost.row(f)).zip(&v) {
            *dj = c - vj;
        }
        vr.copy_from_slice(&v);
        pred.fill(f);
        scanned.clear();
        let endpoint = loop {
            // The unscanned column with minimal d (scanned ones read +∞):
            // the first among equal minima.
            let mut jmin = usize::MAX;
            let mut dmin = inf;
            for (j, &dj) in d.iter().enumerate() {
                if dj < dmin {
                    dmin = dj;
                    jmin = j;
                }
            }
            assert!(jmin != usize::MAX, "jv: augmentation failed (disconnected problem)");
            scanned.push((jmin, dmin));
            d[jmin] = inf;
            vr[jmin] = f64::NEG_INFINITY;
            match y[jmin] {
                None => break jmin,
                Some(i) => {
                    // Relax every column through row i; masked columns read
                    // nd = +∞ and keep their d and pred.
                    let row = cost.row(i);
                    let h = row[jmin] - v[jmin];
                    for (((dj, pj), &c), &vj) in d.iter_mut().zip(&mut pred).zip(row).zip(&vr) {
                        let nd = dmin + (c - vj) - h;
                        let closer = nd < *dj;
                        *dj = if closer { nd } else { *dj };
                        *pj = if closer { i } else { *pj };
                    }
                }
            }
        };
        // Update potentials for scanned columns; the endpoint was scanned last.
        let (&(_, dend), rest) = scanned.split_last().expect("the endpoint was scanned");
        for &(j, dj) in rest {
            v[j] += dj - dend;
        }
        // Augment along the alternating path back to the free row.
        let mut j = endpoint;
        loop {
            let i = pred[j];
            y[j] = Some(i);
            let prev = x[i];
            x[i] = Some(j);
            if i == f {
                break;
            }
            j = prev.expect("alternating path alternates matched edges until the free row");
        }
    }

    // Rows an expired budget left free take the free columns.
    let mut free_cols: Vec<usize> = (0..n).filter(|&j| y[j].is_none()).collect();
    x.into_iter()
        .map(|c| c.unwrap_or_else(|| free_cols.pop().expect("a free column per free row")))
        .collect()
}

/// Solves the LAP *maximizing* total similarity. Rectangular inputs with
/// `rows < cols` are padded with zero-similarity dummy rows (the dummies
/// absorb the surplus columns), so the returned assignment is optimal for
/// the original problem.
///
/// # Panics
/// Panics if `rows > cols` or the matrix contains NaN.
pub fn jv_max(sim: &DenseMatrix) -> Vec<usize> {
    let (n, m) = sim.shape();
    assert!(n <= m, "jv_max: need rows ≤ cols (got {n} × {m})");
    let cost = if n == m {
        sim.scaled(-1.0)
    } else {
        let mut padded = DenseMatrix::zeros(m, m);
        for i in 0..n {
            for j in 0..m {
                padded.set(i, j, -sim.get(i, j));
            }
        }
        padded
    };
    let full = jv_min(&cost);
    full.into_iter().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::hungarian_max;

    fn value(sim: &DenseMatrix, a: &[usize]) -> f64 {
        a.iter().enumerate().map(|(i, &j)| sim.get(i, j)).sum()
    }

    #[test]
    fn agrees_with_hungarian_on_random_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n = rng.random_range(1..=12);
            let sim = DenseMatrix::from_fn(n, n, |_, _| rng.random_range(-3.0..3.0));
            let jv_val = value(&sim, &jv_max(&sim));
            let hun_val = value(&sim, &hungarian_max(&sim));
            assert!(
                (jv_val - hun_val).abs() < 1e-9,
                "trial {trial} (n={n}): JV {jv_val} vs Hungarian {hun_val}"
            );
        }
    }

    #[test]
    fn produces_a_permutation() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let sim = DenseMatrix::from_fn(20, 20, |_, _| rng.random_range(0.0..1.0));
        let a = jv_max(&sim);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn rectangular_padding_is_optimal() {
        let sim = DenseMatrix::from_rows(&[&[0.1, 0.9, 0.3], &[0.8, 0.85, 0.2]]);
        let a = jv_max(&sim);
        // Optimal: row 0 → col 1 (0.9), row 1 → col 0 (0.8) = 1.7.
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn identity_similarity_prefers_diagonal() {
        let sim = DenseMatrix::identity(6);
        assert_eq!(jv_max(&sim), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn degenerate_equal_costs() {
        let sim = DenseMatrix::filled(4, 4, 1.0);
        let a = jv_max(&sim);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_problem() {
        assert!(jv_min(&DenseMatrix::zeros(0, 0)).is_empty());
    }

    #[test]
    fn expired_budget_still_yields_valid_matching() {
        // A flat similarity leaves most rows to the augmentation; with a
        // dead budget JV stops before the first one but must still return
        // a complete one-to-one matching.
        let n = 20;
        let sim = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64);
        let _g = graphalign_par::budget::install(Some(std::time::Duration::ZERO));
        let a = jv_max(&sim);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
