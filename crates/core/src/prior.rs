//! The degree-similarity prior of paper §6.1.
//!
//! IsoRank assumes an external similarity matrix (Blast scores in its
//! original biological setting). For unrestricted alignment the study
//! substitutes "*our own* weight schema that takes into account node
//! degrees": `sim(u, v) = 1 − |deg(u) − deg(v)| / max(deg(u), deg(v))`.
//! The paper credits this choice for making IsoRank "among the most
//! competitive algorithms, as opposed to previous comparisons". NSD uses
//! the same prior; `isorank::tests::degree_prior_beats_uniform_on_noisy_graphs`
//! checks its effect on IsoRank.

use graphalign_graph::Graph;
use graphalign_linalg::DenseMatrix;

/// Degree similarity of two degrees: `1 − |d_u − d_v| / max(d_u, d_v)`,
/// with the convention that two isolated nodes are perfectly similar.
#[inline]
pub fn degree_similarity(du: usize, dv: usize) -> f64 {
    let max = du.max(dv);
    if max == 0 {
        return 1.0;
    }
    1.0 - (du.abs_diff(dv)) as f64 / max as f64
}

/// The full prior matrix `E` with `E[u][v] = degree_similarity(deg_A(u),
/// deg_B(v))`, normalized to sum 1 (IsoRank treats `E` as a probability-like
/// mass that the `(1 − α)` term injects each iteration).
pub fn degree_prior(source: &Graph, target: &Graph) -> DenseMatrix {
    let n = source.node_count();
    let m = target.node_count();
    let deg_a: Vec<usize> = source.degrees();
    let deg_b: Vec<usize> = target.degrees();
    let mut e = DenseMatrix::par_from_fn(n, m, |u, v| degree_similarity(deg_a[u], deg_b[v]));
    let total = e.sum();
    if total > 0.0 {
        e.scale_inplace(1.0 / total);
    }
    e
}

/// A uniform prior of the same shape (what IsoRank degrades to when no
/// side information exists) — the baseline of the IsoRank prior ablation.
pub fn uniform_prior(source: &Graph, target: &Graph) -> DenseMatrix {
    let n = source.node_count();
    let m = target.node_count();
    DenseMatrix::filled(n, m, 1.0 / (n * m).max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_degrees_are_perfectly_similar() {
        assert_eq!(degree_similarity(5, 5), 1.0);
        assert_eq!(degree_similarity(0, 0), 1.0);
    }

    #[test]
    fn distant_degrees_are_dissimilar() {
        assert_eq!(degree_similarity(1, 2), 0.5);
        assert!((degree_similarity(1, 10) - 0.1).abs() < 1e-12);
        assert_eq!(degree_similarity(0, 7), 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        for du in 0..6 {
            for dv in 0..6 {
                assert_eq!(degree_similarity(du, dv), degree_similarity(dv, du));
            }
        }
    }

    #[test]
    fn prior_matrix_sums_to_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let e = degree_prior(&g, &g);
        assert!((e.sum() - 1.0).abs() < 1e-12);
        // Matching degrees (nodes 1 and 2 have degree 2) score highest.
        assert!(e.get(1, 2) > e.get(1, 0));
    }

    #[test]
    fn uniform_prior_is_flat() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let e = uniform_prior(&g, &g);
        assert!((e.get(0, 0) - 1.0 / 9.0).abs() < 1e-15);
        assert!((e.sum() - 1.0).abs() < 1e-12);
    }
}
