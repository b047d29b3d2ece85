//! IsoRank (Singh, Xu, Berger 2008) — paper §3.1.
//!
//! IsoRank scores a node pair `(i, j)` by the recursive principle that good
//! matches have neighbors that are good matches (Equation 1):
//!
//! ```text
//! R[i][j] = Σ_{u ∈ N(i)} Σ_{v ∈ N(j)} R[u][v] / (deg(u) · deg(v))
//! ```
//!
//! which in matrix form is `R ← (A D_A⁻¹) R (D_B⁻¹ B)` — a power iteration
//! on the Kronecker topology operator, blended with a prior similarity `E`
//! as `R = α·M(R) + (1 − α)·E`. The study supplies the degree prior of §6.1
//! in place of the original Blast scores, and lets the iteration "return a
//! similarity matrix after 100 iterations even if it has not converged"
//! (§6.6).

use crate::prior::{degree_prior, uniform_prior};
use crate::{check_sizes, AlignError, Aligner};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::{spectral, Graph};
use graphalign_linalg::{CsrMatrix, DenseMatrix, Similarity, Workspace};
use graphalign_par::telemetry::{self, Convergence};

/// Which prior similarity matrix `E` to blend in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorKind {
    /// The study's degree-similarity schema (§6.1) — the default.
    Degree,
    /// A flat prior (ablation baseline; also the honest "no side
    /// information" configuration).
    Uniform,
}

/// IsoRank with the study's tuned hyperparameters (Table 1: `α = 0.9`,
/// SortGreedy native assignment, 100-iteration cap).
#[derive(Debug, Clone)]
pub struct IsoRank {
    /// Weight of topological similarity vs the prior (`α` in Equation 1).
    pub alpha: f64,
    /// Iteration cap (the paper uses 100).
    pub max_iter: usize,
    /// Convergence tolerance on the L1 change of `R` between iterations.
    pub tol: f64,
    /// Prior matrix choice.
    pub prior: PriorKind,
}

impl Default for IsoRank {
    fn default() -> Self {
        Self { alpha: 0.9, max_iter: 100, tol: 1e-9, prior: PriorKind::Degree }
    }
}

impl IsoRank {
    /// The ablation configuration without the §6.1 degree prior.
    pub fn without_degree_prior() -> Self {
        Self { prior: PriorKind::Uniform, ..Self::default() }
    }

    fn prior_matrix(&self, source: &Graph, target: &Graph) -> DenseMatrix {
        match self.prior {
            PriorKind::Degree => degree_prior(source, target),
            PriorKind::Uniform => uniform_prior(source, target),
        }
    }
}

/// One IsoRank iteration, `R ↦ α·M(R) + (1 − α)·E` scaled to unit mass, as
/// an operator holding what every iteration reuses: `P_A = A·D_A⁻¹`, the
/// transpose of `D_B⁻¹·B` (hoisted out of the loop), the prior `E`, `α` and
/// the scratch buffers. [`IsoRank::similarity`] runs it to convergence;
/// `kernel_bench` times it against a naive twin.
pub struct IsoRankStep<'a> {
    pa: &'a CsrMatrix,
    pbt: CsrMatrix,
    e: &'a DenseMatrix,
    alpha: f64,
    left: DenseMatrix,
    ws: Workspace,
}

impl<'a> IsoRankStep<'a> {
    /// The operator over `pa = A·D_A⁻¹`, `pb = D_B⁻¹·B` and the prior `e`
    /// (`|V_A| × |V_B|`), blending with weight `alpha`.
    pub fn new(pa: &'a CsrMatrix, pb: &CsrMatrix, e: &'a DenseMatrix, alpha: f64) -> Self {
        let (rows, cols) = e.shape();
        Self {
            pa,
            pbt: pb.transpose(),
            e,
            alpha,
            left: DenseMatrix::zeros(rows, cols),
            ws: Workspace::new(),
        }
    }

    /// Writes the iterate after `r` into `next` (both shaped like the
    /// prior). The right product gathers over the hoisted transpose at large
    /// n and takes the row-axpy form below the measured crossover; the two
    /// are bit-identical, so the cutoff never shows in the similarity.
    pub fn apply(&mut self, r: &DenseMatrix, next: &mut DenseMatrix) {
        self.pa.mul_dense_into(r, &mut self.left);
        self.left.mul_csr_tr_into_auto(&self.pbt, next, &mut self.ws);
        next.scale_inplace(self.alpha);
        next.add_scaled(1.0 - self.alpha, self.e);
        // Normalize total mass to 1 for numerical stability (scaling does
        // not affect the assignment step).
        let total = next.sum();
        if total > 0.0 {
            next.scale_inplace(1.0 / total);
        }
    }
}

impl Aligner for IsoRank {
    fn name(&self) -> &'static str {
        "IsoRank"
    }

    fn native_assignment(&self) -> AssignmentMethod {
        AssignmentMethod::SortGreedy
    }

    fn similarity(&self, source: &Graph, target: &Graph) -> Result<Similarity, AlignError> {
        check_sizes(source, target)?;
        // Column-normalized adjacencies: A·D_A⁻¹ = (D_A⁻¹·A)ᵀ.
        let pa: CsrMatrix = spectral::row_normalized_adjacency(source).transpose();
        let pb: CsrMatrix = spectral::row_normalized_adjacency(target);
        let e = self.prior_matrix(source, target);
        let mut step = IsoRankStep::new(&pa, &pb, &e, self.alpha);
        let mut r = e.clone();
        let (rows, cols) = e.shape();
        let mut next = DenseMatrix::zeros(rows, cols);
        let mut iterations = 0;
        let mut last_delta = 0.0;
        let mut hit_tol = false;
        for it in 0..self.max_iter {
            crate::check_budget("isorank", it)?;
            iterations = it + 1;
            step.apply(&r, &mut next);
            let delta = {
                let (a, b) = (next.as_slice(), r.as_slice());
                graphalign_par::sum_indexed(a.len(), 1, |i| (a[i] - b[i]).abs())
            };
            last_delta = delta;
            telemetry::record_residual("isorank", delta);
            std::mem::swap(&mut r, &mut next);
            if delta < self.tol {
                hit_tol = true;
                break;
            }
        }
        // The paper accepts the truncated matrix after 100 iterations "even
        // if it has not converged" — the stop reason records which case this
        // run was instead of discarding it.
        telemetry::record(
            "isorank",
            if hit_tol {
                Convergence::tolerance(iterations, last_delta)
            } else {
                Convergence::max_iter(iterations, last_delta)
            },
        );
        Ok(Similarity::Dense(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::permuted_instance;
    use graphalign_metrics::accuracy;

    #[test]
    fn defaults_match_table1() {
        let iso = IsoRank::default();
        assert_eq!(iso.alpha, 0.9);
        assert_eq!(iso.max_iter, 100);
        assert_eq!(iso.prior, PriorKind::Degree);
        assert_eq!(iso.native_assignment(), AssignmentMethod::SortGreedy);
    }

    #[test]
    fn similarity_matrix_is_a_distribution() {
        let inst = permuted_instance(5, 1);
        let sim = IsoRank::default().similarity(&inst.source, &inst.target).unwrap().into_dense();
        assert!((sim.sum() - 1.0).abs() < 1e-9);
        assert!(sim.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn recovers_permuted_isomorphic_graph() {
        let inst = permuted_instance(6, 3);
        let aligned = IsoRank::default()
            .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
            .unwrap();
        let acc = accuracy(&aligned, &inst.ground_truth);
        assert!(acc > 0.8, "IsoRank accuracy on isomorphic graphs: {acc}");
    }

    #[test]
    fn jv_at_least_matches_native_sortgreedy() {
        // The §6.2 observation: IsoRank benefits from JV over SG.
        let inst = permuted_instance(6, 11);
        let iso = IsoRank::default();
        let sg = iso.align(&inst.source, &inst.target).unwrap();
        let jv =
            iso.align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant).unwrap();
        assert!(
            accuracy(&jv, &inst.ground_truth) >= accuracy(&sg, &inst.ground_truth) - 0.1,
            "JV should not be much worse than SG"
        );
    }

    #[test]
    fn degree_prior_beats_uniform_on_noisy_graphs() {
        // The §6.1 claim, at miniature scale: with a bit of noise the degree
        // prior gives IsoRank an edge over the uniform prior.
        use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
        let g = crate::test_support::distinctive_graph(8);
        let cfg = NoiseConfig::new(NoiseModel::OneWay, 0.04);
        let mut with_prior = 0.0;
        let mut without = 0.0;
        for seed in 0..3 {
            let inst = make_instance(&g, &cfg, seed);
            let a1 = IsoRank::default()
                .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
                .unwrap();
            let a2 = IsoRank::without_degree_prior()
                .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
                .unwrap();
            with_prior += accuracy(&a1, &inst.ground_truth);
            without += accuracy(&a2, &inst.ground_truth);
        }
        assert!(with_prior >= without, "degree prior should help: {with_prior} vs {without}");
    }

    #[test]
    fn formulation_cutoff_is_invisible_in_mappings() {
        // At test sizes the production loop sits below the SPMM cutoff and
        // runs the hoisted row-axpy formulation; replaying the identical
        // iteration with the plain gather kernel (the above-cutoff form)
        // must reproduce the similarity bit for bit, so the mapping — a
        // deterministic function of the similarity — cannot change across
        // the cutoff. Asserted on both the matrix bits and the extracted
        // mappings.
        let inst = permuted_instance(7, 9);
        let iso = IsoRank::default();
        let sim = iso.similarity(&inst.source, &inst.target).unwrap().into_dense();

        let pa: CsrMatrix = spectral::row_normalized_adjacency(&inst.source).transpose();
        let pb: CsrMatrix = spectral::row_normalized_adjacency(&inst.target);
        let pbt = pb.transpose();
        let e = degree_prior(&inst.source, &inst.target);
        let mut r = e.clone();
        let (rows, cols) = e.shape();
        let mut left = DenseMatrix::zeros(rows, cols);
        let mut next = DenseMatrix::zeros(rows, cols);
        for _ in 0..iso.max_iter {
            pa.mul_dense_into(&r, &mut left);
            left.mul_csr_tr_into(&pbt, &mut next);
            next.scale_inplace(iso.alpha);
            next.add_scaled(1.0 - iso.alpha, &e);
            let total = next.sum();
            if total > 0.0 {
                next.scale_inplace(1.0 / total);
            }
            let delta = {
                let (a, b) = (next.as_slice(), r.as_slice());
                graphalign_par::sum_indexed(a.len(), 1, |i| (a[i] - b[i]).abs())
            };
            std::mem::swap(&mut r, &mut next);
            if delta < iso.tol {
                break;
            }
        }
        let (a, b) = (sim.as_slice(), r.as_slice());
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "gather-form replay diverged bitwise from the production similarity"
        );
        let m1 = graphalign_assignment::assign(
            &Similarity::Dense(sim),
            AssignmentMethod::JonkerVolgenant,
        );
        let m2 =
            graphalign_assignment::assign(&Similarity::Dense(r), AssignmentMethod::JonkerVolgenant);
        assert_eq!(m1, m2, "mappings changed across the SPMM formulation cutoff");
    }

    #[test]
    fn expired_budget_interrupts() {
        let inst = permuted_instance(5, 1);
        let _g = graphalign_par::budget::install(Some(std::time::Duration::ZERO));
        let err = IsoRank::default().similarity(&inst.source, &inst.target).unwrap_err();
        assert!(err.is_interrupted(), "got {err}");
    }

    #[test]
    fn empty_source_is_rejected() {
        let empty = Graph::from_edges(0, &[]);
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert!(IsoRank::default().similarity(&empty, &g).is_err());
    }
}
