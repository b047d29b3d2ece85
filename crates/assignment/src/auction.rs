//! Auction algorithm for sparse maximum-weight matching (MWM).
//!
//! LREA (paper §6.2) extracts its alignment by running a sparse
//! maximum-weight-matching solver over a "union of matchings" candidate
//! list. We implement Bertsekas' forward auction with ε-scaling: rows bid
//! for their best column at a premium of ε, prices rise, and the process
//! provably terminates with a matching within `n · ε_final` of optimal. With
//! the default scaling schedule the result matches JV on the benchmark
//! similarity matrices ("MWM produces results similar to those of JV").
//!
//! Rows whose stored candidates are exhausted fall back to zero-similarity
//! bids on any free column (the similarity floor of the alignment problem),
//! so a complete one-to-one matching is always returned.
//!
//! The bidding loop also polls the cooperative cell budget
//! ([`graphalign_par::budget`]) periodically: when the budget expires the
//! auction stops bidding and completes the matching with the free-column
//! fallback. The result is still a valid one-to-one matching, but possibly
//! far from optimal; the pipeline reports a matching returned after the
//! budget expired as interrupted (`graphalign::assign_within_budget`).

use graphalign_linalg::CsrMatrix;

/// Configuration of the ε-scaling schedule.
#[derive(Debug, Clone, Copy)]
pub struct AuctionParams {
    /// Initial bidding increment, as a fraction of the similarity range.
    pub epsilon_start: f64,
    /// Final bidding increment (controls optimality gap `n · ε`).
    pub epsilon_end: f64,
    /// Multiplicative decrease per scaling phase.
    pub scaling: f64,
    /// Safety cap on total bids per phase.
    pub max_bids_per_phase: usize,
}

impl Default for AuctionParams {
    fn default() -> Self {
        Self { epsilon_start: 0.25, epsilon_end: 1e-4, scaling: 0.25, max_bids_per_phase: 0 }
    }
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
            if let Some((cheap_j, cheap_p)) = cheapest_unstored(&price, sim.row_cols(i)) {
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

/// The first column of least price among those absent from `stored` (a CSR
/// row's strictly increasing columns), found in one pass over the gaps
/// between them; `None` when the row stores every column, as the dense and
/// densified similarities of IsoRank, NSD, REGAL and GRASP do.
fn cheapest_unstored(price: &[f64], stored: &[usize]) -> Option<(usize, f64)> {
    if stored.len() == price.len() {
        return None;
    }
    let mut cheapest: Option<(usize, f64)> = None;
    let mut start = 0;
    for end in stored.iter().copied().chain([price.len()]) {
        for (j, &p) in price.iter().enumerate().take(end).skip(start) {
            if cheapest.is_none_or(|(_, c)| p < c) {
                cheapest = Some((j, p));
            }
        }
        start = end + 1;
    }
    cheapest
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_linalg::DenseMatrix;

    fn value(sim: &DenseMatrix, a: &[usize]) -> f64 {
        a.iter().enumerate().map(|(i, &j)| sim.get(i, j)).sum()
    }

    #[test]
    fn matches_optimal_on_random_dense_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(321);
        for trial in 0..20 {
            let n = rng.random_range(2..=8);
            let sim_dense = DenseMatrix::from_fn(n, n, |_, _| rng.random_range(0.0..1.0));
            let sparse = CsrMatrix::from_dense(&sim_dense);
            let a = auction_max(&sparse);
            let opt = value(&sim_dense, &crate::hungarian::hungarian_max(&sim_dense));
            let got = value(&sim_dense, &a);
            assert!(got >= opt - 0.01 * n as f64, "trial {trial}: auction {got} vs optimal {opt}");
            // One-to-one.
            let mut seen = vec![false; n];
            for &j in &a {
                assert!(!seen[j]);
                seen[j] = true;
            }
        }
    }

    #[test]
    fn sparse_candidates_complete_to_full_matching() {
        // Only a diagonal of candidates on a 5×5 problem.
        let sparse = CsrMatrix::from_triplets(5, 5, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let a = auction_max(&sparse);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 1);
        assert_eq!(a[2], 2);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prefers_heavy_edges() {
        let sparse =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 10.0), (0, 1, 9.0), (1, 0, 9.0), (1, 1, 0.0)]);
        // Optimal is the anti-diagonal: 9 + 9 > 10 + 0.
        let a = auction_max(&sparse);
        assert_eq!(a, vec![1, 0]);
    }

    #[test]
    fn rectangular_problem_leaves_columns_free() {
        let sparse = CsrMatrix::from_triplets(2, 4, &[(0, 3, 1.0), (1, 2, 1.0)]);
        let a = auction_max(&sparse);
        assert_eq!(a, vec![3, 2]);
    }

    #[test]
    fn empty_matrix() {
        assert!(auction_max(&CsrMatrix::zeros(0, 0)).is_empty());
    }

    #[test]
    fn expired_budget_still_yields_valid_matching() {
        // With a dead budget the auction gives up bidding early but must
        // still return a complete one-to-one matching via the fallback.
        let n = 20;
        let dense = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64);
        let sparse = CsrMatrix::from_dense(&dense);
        let _g = graphalign_par::budget::install(Some(std::time::Duration::ZERO));
        let a = auction_max(&sparse);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod param_tests {
    use super::*;
    use graphalign_linalg::DenseMatrix;

    #[test]
    fn coarser_epsilon_trades_quality_for_speed() {
        let mut rng = StdRngCompat::seed(77);
        let n = 12;
        let dense = DenseMatrix::from_fn(n, n, |_, _| rng.next());
        let sparse = CsrMatrix::from_dense(&dense);
        let value =
            |a: &[usize]| -> f64 { a.iter().enumerate().map(|(i, &j)| dense.get(i, j)).sum() };
        let fine = AuctionParams { epsilon_end: 1e-6, ..AuctionParams::default() };
        let coarse = AuctionParams {
            epsilon_start: 0.5,
            epsilon_end: 0.5,
            scaling: 1.0,
            max_bids_per_phase: 0,
        };
        let v_fine = value(&auction_max_with(&sparse, &fine));
        let v_coarse = value(&auction_max_with(&sparse, &coarse));
        // Fine ε is at least as good; both are valid matchings.
        assert!(v_fine >= v_coarse - 1e-9, "fine {v_fine} vs coarse {v_coarse}");
    }

    /// Deterministic tiny RNG for this module (keeps the test self-contained).
    struct StdRngCompat(u64);
    impl StdRngCompat {
        fn seed(s: u64) -> Self {
            Self(s.wrapping_mul(0x9e3779b97f4a7c15) | 1)
        }
        fn next(&mut self) -> f64 {
            // xorshift64*
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}
