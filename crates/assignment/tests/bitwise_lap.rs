//! Bitwise regression tests for the optimal and near-optimal LAP solvers.
//!
//! JV's masked, branch-free augmentation, the Hungarian search over a list
//! of unused columns, and the auction's one-pass zero-similarity fallback
//! promise the matching of the textbook loops they replaced: the
//! same arithmetic, evaluation order and tie-breaking. Those loops live in
//! [`reference`] below, the way the column-major factorizations live in
//! `linalg/tests/bitwise_factorizations.rs`, and every test asserts equal
//! mappings. Ties are where the loops' choices show, so most inputs are
//! tie-heavy: few distinct values, non-dyadic so that the potentials round,
//! signed zeros, huge and subnormal entries.

use graphalign_assignment::auction::{auction_max, AuctionParams};
use graphalign_assignment::hungarian::{hungarian_max, hungarian_min};
use graphalign_assignment::jv::{jv_max, jv_min};
use graphalign_linalg::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::prelude::*;

/// The solvers as they were before the rewrite, verbatim. Index loops kept
/// as in the library crate, which allows them there.
#[allow(clippy::needless_range_loop)]
mod reference {
    use graphalign_assignment::auction::AuctionParams;
    use graphalign_linalg::{CsrMatrix, DenseMatrix};

    /// Solves the LAP *minimizing* total cost with the JV algorithm; returns
    /// `out[row] = col`. Requires a square matrix (pad rectangular problems or
    /// use [`crate::hungarian`], which handles `rows < cols` directly).
    ///
    /// # Panics
    /// Panics if the matrix is not square or contains NaN.
    // The passes below transcribe the 1987 paper's index-coupled loops; explicit
    // indices preserve the correspondence with the reference formulation.
    #[allow(clippy::needless_range_loop)]
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
        let mut v = vec![0.0; n]; // column potentials

        // --- Column reduction (scan columns right-to-left). ---
        for j in (0..n).rev() {
            // Row with minimal cost in column j.
            let mut imin = 0;
            let mut min = cost.get(0, j);
            for i in 1..n {
                let c = cost.get(i, j);
                if c < min {
                    min = c;
                    imin = i;
                }
            }
            v[j] = min;
            if x[imin].is_none() {
                x[imin] = Some(j);
                y[j] = Some(imin);
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
                for j in 0..n {
                    let r = cost.get(i, j) - v[j];
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
        for &f in &free {
            let mut d: Vec<f64> = (0..n).map(|j| cost.get(f, j) - v[j]).collect();
            let mut pred = vec![f; n];
            let mut scanned = vec![false; n];
            let mut ready: Vec<usize> = Vec::new();
            let endpoint;
            loop {
                // Pick the unscanned column with minimal d.
                let mut jmin = usize::MAX;
                let mut dmin = inf;
                for j in 0..n {
                    if !scanned[j] && d[j] < dmin {
                        dmin = d[j];
                        jmin = j;
                    }
                }
                assert!(jmin != usize::MAX, "jv: augmentation failed (disconnected problem)");
                scanned[jmin] = true;
                ready.push(jmin);
                match y[jmin] {
                    None => {
                        endpoint = jmin;
                        break;
                    }
                    Some(i) => {
                        // Relax columns through row i.
                        for j in 0..n {
                            if scanned[j] {
                                continue;
                            }
                            let nd = dmin + (cost.get(i, j) - v[j]) - (cost.get(i, jmin) - v[jmin]);
                            if nd < d[j] {
                                d[j] = nd;
                                pred[j] = i;
                            }
                        }
                    }
                }
            }
            // Update potentials for scanned columns.
            let dend = d[endpoint];
            for &j in &ready {
                if j != endpoint {
                    v[j] += d[j] - dend;
                }
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

        x.into_iter().map(|c| c.expect("JV matches every row")).collect()
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
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![inf; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = inf;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost.get(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
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

    /// Maximum-weight one-to-one matching on a sparse similarity matrix with the
    /// default ε-scaling schedule; entries absent from the matrix are treated as
    /// zero-similarity fallbacks. Returns `out[row] = col`.
    ///
    /// # Panics
    /// Panics if `rows > cols`.
    pub fn auction_max(sim: &CsrMatrix) -> Vec<usize> {
        auction_max_with(sim, &AuctionParams::default())
    }

    /// [`auction_max`] with an explicit parameter schedule.
    ///
    /// # Panics
    /// Panics if `rows > cols`.
    pub fn auction_max_with(sim: &CsrMatrix, params: &AuctionParams) -> Vec<usize> {
        let (n, m) = (sim.rows(), sim.cols());
        assert!(n <= m, "auction: need rows ≤ cols (got {n} × {m})");
        if n == 0 {
            return Vec::new();
        }
        // Scale ε to the similarity magnitude so the schedule is unitless.
        let max_abs = sim.frobenius_norm().max(1.0);
        let range = (0..n)
            .flat_map(|i| sim.row_values(i).iter().copied())
            .fold(0.0_f64, |acc, v| acc.max(v.abs()))
            .max(max_abs / (n as f64).sqrt().max(1.0))
            .max(1e-12);

        let mut price = vec![0.0; m];
        let mut row_of: Vec<Option<usize>> = vec![None; m];
        let mut col_of: Vec<Option<usize>> = vec![None; n];

        let mut eps = params.epsilon_start * range;
        let eps_end = params.epsilon_end * range;
        let bid_cap = if params.max_bids_per_phase == 0 {
            // Default: generous but finite (auction is O(n² · range/ε) bids).
            100 * n * m + 10_000
        } else {
            params.max_bids_per_phase
        };

        // Budget polls are amortized over batches of bids: one `Instant::now()`
        // per bid would dominate the cheap sparse bidding work.
        const BUDGET_POLL_INTERVAL: usize = 256;
        let mut interrupted = false;
        loop {
            // Phase: reset the matching (standard ε-scaling restarts assignments
            // but keeps prices, which is what accelerates later phases).
            row_of.iter_mut().for_each(|r| *r = None);
            col_of.iter_mut().for_each(|c| *c = None);
            let mut free: Vec<usize> = (0..n).rev().collect();
            let mut bids = 0usize;
            while let Some(i) = free.pop() {
                bids += 1;
                if bids > bid_cap {
                    break;
                }
                if bids.is_multiple_of(BUDGET_POLL_INTERVAL) && graphalign_par::budget::exceeded() {
                    interrupted = true;
                    break;
                }
                // Best and second-best net value over stored candidates plus the
                // zero-similarity fallback on the cheapest column.
                let mut best_j = usize::MAX;
                let mut best_v = f64::NEG_INFINITY;
                let mut second_v = f64::NEG_INFINITY;
                for (j, s) in sim.row_iter(i) {
                    let v = s - price[j];
                    if v > best_v {
                        second_v = best_v;
                        best_v = v;
                        best_j = j;
                    } else if v > second_v {
                        second_v = v;
                    }
                }
                // Zero-similarity fallback: the cheapest column *not stored* in
                // this row (absent entries mean similarity 0; stored entries —
                // including negative ones — must keep their true value).
                let stored = sim.row_cols(i);
                let fallback = price
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| stored.binary_search(j).is_err())
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("prices are finite"));
                if let Some((cheap_j, cheap_p)) = fallback {
                    let fallback_v = 0.0 - cheap_p;
                    if fallback_v > best_v {
                        second_v = best_v;
                        best_v = fallback_v;
                        best_j = cheap_j;
                    } else if fallback_v > second_v && cheap_j != best_j {
                        second_v = fallback_v;
                    }
                }
                debug_assert!(best_j != usize::MAX);
                // Bid: raise the price so the row is indifferent at second_v − ε.
                let increment = if second_v.is_finite() { best_v - second_v + eps } else { eps };
                price[best_j] += increment;
                // Assign, evicting any current owner.
                if let Some(prev) = row_of[best_j] {
                    col_of[prev] = None;
                    free.push(prev);
                }
                row_of[best_j] = Some(i);
                col_of[i] = Some(best_j);
            }
            graphalign_par::telemetry::count_auction_bids(bids as u64);
            if interrupted || eps <= eps_end {
                break;
            }
            eps = (eps * params.scaling).max(eps_end);
        }

        // Complete any rows the bid cap left unmatched (degenerate inputs only).
        let mut free_cols: Vec<usize> = (0..m).filter(|&j| row_of[j].is_none()).collect();
        let out: Vec<usize> = col_of
            .into_iter()
            .map(|c| c.unwrap_or_else(|| free_cols.pop().expect("cols ≥ rows")))
            .collect();
        out
    }
}

/// Entries of one value class:
/// * 0 — tie-heavy: 2 to 5 distinct values, multiples of 0.1 or 1/3;
/// * 1 — specials: `±0`, `±1e300`, subnormals and a few ordinary values;
/// * 2 — sparse: mostly `±0`, the rest tie-heavy;
/// * 3 — uniform in `[-1, 1)`.
fn entries(class: u32, count: usize, rng: &mut StdRng) -> Vec<f64> {
    let distinct = rng.random_range(2..=5usize);
    let step = if rng.random_range(0..2) == 0 { 0.1 } else { 1.0 / 3.0 };
    let palette: Vec<f64> = (0..distinct).map(|_| rng.random_range(-4..=6) as f64 * step).collect();
    const SPECIAL: [f64; 10] = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1e-310, 0.3, -0.7, 1.0];
    (0..count)
        .map(|_| match class {
            0 => palette[rng.random_range(0..distinct)],
            1 => SPECIAL[rng.random_range(0..SPECIAL.len())],
            2 => match rng.random_range(0..10) {
                0..=2 => palette[rng.random_range(0..distinct)],
                3..=6 => 0.0,
                _ => -0.0,
            },
            _ => rng.random_range(-1.0..1.0),
        })
        .collect()
}

fn matrix(rows: usize, cols: usize, class: u32, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::from_vec(rows, cols, entries(class, rows * cols, &mut rng))
}

/// A CSR similarity whose rows miss some columns: each entry of a class
/// matrix is kept with probability `keep`, stored zeros included; with
/// `strip` the exact zeros are dropped, as the densified auction route does.
/// Auction's ε is scaled by the Frobenius norm, so the specials are capped at
/// `±1e150` here: a norm that overflows makes every price non-finite.
fn sparse(rows: usize, cols: usize, class: u32, keep: f64, strip: bool, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let dense = matrix(rows, cols, class, seed);
    let mut trips = Vec::new();
    for i in 0..rows {
        for j in 0..cols {
            let v = dense.get(i, j).clamp(-1e150, 1e150);
            if rng.random_range(0.0..1.0) < keep && !(strip && v == 0.0) {
                trips.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &trips)
}

/// Every solver against its reference on one `rows × cols` similarity
/// (JV's minimizing entry only when square).
fn check_dense(sim: &DenseMatrix) -> Result<(), String> {
    let (n, m) = sim.shape();
    let what = |name: &str| format!("{name} on {n}x{m}: {:?}", sim.as_slice());
    if n == m && jv_min(sim) != reference::jv_min(sim) {
        return Err(what("jv_min"));
    }
    if jv_max(sim) != reference::jv_max(sim) {
        return Err(what("jv_max"));
    }
    if hungarian_min(sim) != reference::hungarian_min(sim) {
        return Err(what("hungarian_min"));
    }
    if hungarian_max(sim) != reference::hungarian_max(sim) {
        return Err(what("hungarian_max"));
    }
    Ok(())
}

fn check_auction(sim: &CsrMatrix) -> Result<(), String> {
    let coarse = AuctionParams { epsilon_end: 1e-2, ..AuctionParams::default() };
    if auction_max(sim) != reference::auction_max(sim) {
        return Err(format!("auction on {}x{} (nnz {})", sim.rows(), sim.cols(), sim.nnz()));
    }
    let got = graphalign_assignment::auction::auction_max_with(sim, &coarse);
    if got != reference::auction_max_with(sim, &coarse) {
        return Err(format!("coarse auction on {}x{}", sim.rows(), sim.cols()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// JV and Hungarian, square and `rows < cols`, in every value class.
    #[test]
    fn lap_solvers_match_reference(
        n in 1usize..40,
        extra in 0usize..6,
        class in 0u32..4,
        seed in any::<u64>(),
    ) {
        let square = matrix(n, n, class, seed);
        prop_assert!(check_dense(&square).is_ok(), "{:?}", check_dense(&square));
        let wide = matrix(n, n + extra, class, seed ^ 1);
        prop_assert!(check_dense(&wide).is_ok(), "{:?}", check_dense(&wide));
    }

    /// The auction on CSR rows that miss columns, with stored or stripped
    /// zeros, and on full rows (where the fallback never runs).
    #[test]
    fn auction_matches_reference(
        n in 1usize..32,
        extra in 0usize..6,
        class in 0u32..4,
        keep in 0.0f64..1.0,
        strip in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let missing = sparse(n, n + extra, class, keep, strip, seed);
        prop_assert!(check_auction(&missing).is_ok(), "{:?}", check_auction(&missing));
        let full = sparse(n, n + extra, class, 1.0, false, seed ^ 2);
        prop_assert!(check_auction(&full).is_ok(), "{:?}", check_auction(&full));
    }
}

/// A fixed sweep of tie-heavy and special matrices large enough that JV's
/// augmentation runs long Dijkstra searches and Hungarian's unused list
/// loses many columns.
#[test]
fn seeded_sweep_matches_reference() {
    for seed in 0..240u64 {
        let class = (seed % 4) as u32;
        let n = 1 + (seed as usize * 7) % 40;
        let extra = if seed % 3 == 0 { (seed as usize) % 5 + 1 } else { 0 };
        check_dense(&matrix(n, n + extra, class, seed)).unwrap();
        let keep = (seed % 5) as f64 / 4.0;
        check_auction(&sparse(n, n + extra, class, keep, seed % 2 == 0, seed)).unwrap();
    }
}

/// The shapes and fills the random ranges rarely reach: 0×0, 1×1, 1×m,
/// all-equal matrices (every entry a tie) of each sign of zero and of a
/// huge or subnormal value, and a serve-sized flat matrix.
#[test]
fn pinned_shapes_match_reference() {
    for (rows, cols) in [(0, 0), (1, 1), (1, 7), (3, 3), (4, 9), (16, 16)] {
        for fill in [0.0, -0.0, 1.0, -0.3, 1e300, -1e300, 5e-324] {
            check_dense(&DenseMatrix::filled(rows, cols, fill)).unwrap();
            let capped = fill.clamp(-1e150, 1e150);
            check_auction(&CsrMatrix::from_dense(&DenseMatrix::filled(rows, cols, capped)))
                .unwrap();
        }
    }
    for cols in 1..6 {
        check_dense(&matrix(1, cols, 0, cols as u64)).unwrap();
        check_auction(&sparse(1, cols, 2, 0.5, false, cols as u64)).unwrap();
    }
    // At n = 128 the tie-heavy matrix leaves many rows to JV's
    // augmentation, as the flat IsoRank similarities of the serving
    // workload do.
    check_dense(&matrix(128, 128, 0, 128)).unwrap();
    check_auction(&sparse(128, 128, 0, 0.9, true, 128)).unwrap();
}
