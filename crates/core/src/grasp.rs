//! GRASP — Graph Alignment through Spectral Signatures (Hermanns, Tsitsulin,
//! Munkhoeva, Bronstein, Mottin, Karras 2021), paper §3.8.
//!
//! GRASP treats alignment as a functional-map problem on the graphs'
//! normalized-Laplacian eigenbases:
//!
//! 1. compute the bottom-`k` eigenpairs `(Λ, Φ)` and `(Λ₂, Ψ)` of the two
//!    normalized Laplacians;
//! 2. build *corresponding functions*: the diagonals of the heat kernels
//!    `H_t = Φ e^{−tΛ} Φᵀ` at `q` time steps (Equation 13) — a
//!    permutation-invariant, perturbation-robust node descriptor;
//! 3. align the eigenbases with a base-alignment matrix `M` minimizing
//!    Equation 14: an off-diagonality penalty on `MᵀΛ₂M` plus the
//!    corresponding-function mismatch `‖FᵀΦ − GᵀΨM‖²` (we optimize by
//!    projected gradient on the orthogonal group, which also resolves
//!    eigenvector sign/rotation ambiguity; each step is projected back by a
//!    Newton–Schulz polar iteration, [`graphalign_linalg::svd::polar`],
//!    since a step leaves `M` close to orthogonal);
//! 4. estimate a diagonal mapping `C` of Fourier coefficients and match the
//!    spectral node descriptors by a LAP — JV, as the GRASP authors chose.

use crate::{check_sizes, AlignError, Aligner};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::{spectral, Graph};
use graphalign_linalg::lanczos::{lanczos, Which};
use graphalign_linalg::svd::{polar, procrustes};
use graphalign_linalg::{
    DenseMatrix, LinearOp, LowRankKernel, LowRankSim, ShiftedOp, Similarity, Workspace,
};

/// GRASP with the study's tuned hyperparameters (Table 1: `q = 100`,
/// `k = 20`, JV native assignment) — except `k`, which defaults to 40 here:
/// the Lanczos-based spectral descriptors of this implementation need twice
/// the paper's eigenpair count to reach the same node discriminativity
/// (`k = 20` leaves descriptor collisions on larger graphs; the
/// `ablation_grasp_k` bench and DESIGN.md §3 item 11 record the trade-off).
#[derive(Debug, Clone)]
pub struct Grasp {
    /// Number of eigenpairs `k`.
    pub k: usize,
    /// Number of heat-kernel time steps `q`.
    pub q: usize,
    /// Smallest and largest diffusion times (log-spaced grid).
    pub t_range: (f64, f64),
    /// Weight `μ` of the corresponding-function term in Equation 14.
    pub mu: f64,
    /// Projected-gradient iterations for the base alignment `M`.
    pub base_align_iters: usize,
    /// Gradient step size.
    pub lr: f64,
    /// Seed for the Lanczos starting vectors.
    pub seed: u64,
    /// L2-normalize each corresponding function (heat-kernel diagonal per
    /// time step) before fitting the base alignment. On power-law graphs the
    /// raw diagonals are dominated by hub entries, which otherwise drowns
    /// the least-squares terms of Equation 14.
    pub normalize_functions: bool,
    /// Disable the Equation 14 base alignment (use `M = I`): the "raw
    /// eigenvector" ablation. Without `M`, eigenvector sign flips and
    /// rotations within near-degenerate eigenspaces go uncorrected, so this
    /// variant collapses on permuted inputs — which is precisely what the
    /// ablation bench demonstrates.
    pub skip_base_alignment: bool,
}

impl Default for Grasp {
    fn default() -> Self {
        Self {
            k: 40,
            q: 100,
            t_range: (0.1, 50.0),
            mu: 0.5,
            base_align_iters: 150,
            lr: 0.05,
            seed: 0x6a457,
            normalize_functions: true,
            skip_base_alignment: false,
        }
    }
}

impl Grasp {
    /// Bottom-`k` eigenpairs of the normalized Laplacian of `g`, computed
    /// via Lanczos on `2I − L` (the spectrum lives in `[0, 2]`, so the
    /// bottom of `L` is the top of `2I − L`, where Lanczos converges fast).
    fn spectrum(&self, g: &Graph, k: usize) -> Result<(Vec<f64>, DenseMatrix), AlignError> {
        let l = spectral::normalized_laplacian(g);
        let flipped = ShiftedOp::new(&l, -1.0, 2.0);
        let krylov = (4 * k + 20).min(l.dim());
        let res = lanczos(&flipped, k, Which::Largest, krylov, self.seed)?;
        let values: Vec<f64> = res.values.iter().map(|v| 2.0 - v).collect();
        Ok((values, res.vectors))
    }

    /// Heat-kernel diagonals at the `q` log-spaced times: an `n × q` matrix
    /// `F[i][s] = Σ_j e^{−t_s λ_j} φ_j[i]²`.
    fn heat_diagonals(&self, values: &[f64], vectors: &DenseMatrix, times: &[f64]) -> DenseMatrix {
        let n = vectors.rows();
        let k = values.len();
        let weights: Vec<Vec<f64>> =
            times.iter().map(|&t| values.iter().map(|&l| (-t * l).exp()).collect()).collect();
        // Parallel over node rows; the j-accumulation order is unchanged, so
        // the entries are bit-identical to the sequential double loop.
        DenseMatrix::par_from_fn(n, times.len(), |i, s| {
            let w = &weights[s];
            let mut acc = 0.0;
            for (j, wj) in w.iter().enumerate().take(k) {
                let phi = vectors.get(i, j);
                acc += wj * phi * phi;
            }
            acc
        })
    }

    fn time_grid(&self) -> Vec<f64> {
        let (lo, hi) = self.t_range;
        let q = self.q.max(2);
        (0..q)
            .map(|s| {
                let frac = s as f64 / (q - 1) as f64;
                lo * (hi / lo).powf(frac)
            })
            .collect()
    }

    /// Optimizes the base-alignment matrix `M` of Equation 14.
    ///
    /// The fit term `μ‖A − BM‖²` has a closed-form orthogonal minimizer —
    /// the Procrustes rotation from the SVD of `BᵀA` — which we use as the
    /// starting point; the off-diagonality term `off(MᵀΛ₂M)` is then
    /// refined by projected gradient steps on the orthogonal group, keeping
    /// the best-objective iterate (a diverging step never degrades the
    /// result, which makes the optimization robust to the scale of the
    /// heat-kernel coefficients).
    fn base_align(
        &self,
        a_coef: &DenseMatrix, // FᵀΦ  (q × k)
        b_coef: &DenseMatrix, // GᵀΨ  (q × k)
        lambda2: &[f64],
    ) -> Result<DenseMatrix, AlignError> {
        let k = a_coef.cols();
        // Scale-normalize the coefficients once; the Procrustes solution is
        // scale-invariant, and this keeps the refinement gradients O(1).
        let sa = a_coef.frobenius_norm().max(1e-300);
        let a = a_coef.scaled(1.0 / sa);
        let sb = b_coef.frobenius_norm().max(1e-300);
        let b = b_coef.scaled(1.0 / sb);

        // Two candidate starting points: the identity (the "no rotation"
        // prior favoured by the off-diagonality term) and the closed-form
        // fit optimum (Procrustes). Refine whichever scores better.
        let mut ws = Workspace::new();
        let mut objective = Objective::new(&a, &b, lambda2, self.mu);
        let procrustes_start = procrustes(&b, &a)?;
        let identity = DenseMatrix::identity(k);
        let mut m =
            if objective.eval(&identity, &mut ws) <= objective.eval(&procrustes_start, &mut ws) {
                identity
            } else {
                procrustes_start
            };
        // From here on `objective` holds the products of the current `m`.
        let mut best_obj = objective.eval(&m, &mut ws);
        let mut best = m.clone();
        let mut off = DenseMatrix::zeros(k, k);
        let mut grad = DenseMatrix::zeros(k, k);
        let mut btres = DenseMatrix::zeros(k, k);
        let mut m_next = DenseMatrix::zeros(k, k);
        for _ in 0..self.base_align_iters {
            // Gradient of ½‖off(D)‖² with D = MᵀΛ₂M is 2·Λ₂·M·off(D);
            // gradient of μ‖A − BM‖² is −2μ·Bᵀ(A − BM).
            off.copy_from(&objective.d);
            for i in 0..k {
                off.set(i, i, 0.0);
            }
            objective.l2m.matmul_into(&off, &mut grad, &mut ws);
            grad.scale_inplace(2.0);
            b.tr_matmul_into(&objective.residual, &mut btres, &mut ws);
            grad.add_scaled(-2.0 * self.mu, &btres);
            m.add_scaled(-self.lr, &grad);
            // Project back to the orthogonal group: M ← the polar factor
            // U Vᵀ of M, by Newton–Schulz since a step leaves M close to
            // orthogonal.
            polar(&m, &mut m_next, &mut ws)?;
            std::mem::swap(&mut m, &mut m_next);
            let obj = objective.eval(&m, &mut ws);
            if obj < best_obj {
                best_obj = obj;
                best.copy_from(&m);
            }
        }
        Ok(best)
    }
}

/// Equation 14's objective `‖off(MᵀΛ₂M)‖² + μ‖A − BM‖²`, holding the
/// products of the last iterate it evaluated — `Λ₂M`, `D = MᵀΛ₂M`, `BM` and
/// the residual `A − BM` — which the next gradient step reads instead of
/// computing them again.
struct Objective<'a> {
    a: &'a DenseMatrix,
    b: &'a DenseMatrix,
    lambda2: &'a [f64],
    mu: f64,
    l2m: DenseMatrix,
    d: DenseMatrix,
    bm: DenseMatrix,
    residual: DenseMatrix,
}

impl<'a> Objective<'a> {
    fn new(a: &'a DenseMatrix, b: &'a DenseMatrix, lambda2: &'a [f64], mu: f64) -> Self {
        let (q, k) = a.shape();
        Self {
            a,
            b,
            lambda2,
            mu,
            l2m: DenseMatrix::zeros(k, k),
            d: DenseMatrix::zeros(k, k),
            bm: DenseMatrix::zeros(q, k),
            residual: DenseMatrix::zeros(q, k),
        }
    }

    /// The objective at `m`, keeping `m`'s products.
    fn eval(&mut self, m: &DenseMatrix, ws: &mut Workspace) -> f64 {
        scale_rows_into(self.lambda2, m, &mut self.l2m);
        m.tr_matmul_into(&self.l2m, &mut self.d, ws);
        let k = self.d.rows();
        let mut off_sq = 0.0;
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    off_sq += self.d.get(i, j) * self.d.get(i, j);
                }
            }
        }
        self.b.matmul_into(m, &mut self.bm, ws);
        self.a.add_scaled_into(-1.0, &self.bm, &mut self.residual);
        off_sq + self.mu * self.residual.frobenius_norm().powi(2)
    }
}

/// `out ← diag(λ)·m` as the row scaling `0.0 + λᵢ·mᵢⱼ`. For finite `m`
/// this is the dense diagonal GEMM bit for bit: its accumulator starts at
/// `+0` and every term but `λᵢ·mᵢⱼ` is a signed zero, which can only turn a
/// `−0` product into `+0` — exactly what the leading `0.0 +` does.
fn scale_rows_into(lambda: &[f64], m: &DenseMatrix, out: &mut DenseMatrix) {
    assert_eq!(lambda.len(), m.rows(), "scale_rows_into: one λ per row");
    assert_eq!(out.shape(), m.shape(), "scale_rows_into: output shape mismatch");
    for (i, &l) in lambda.iter().enumerate() {
        for (o, &x) in out.row_mut(i).iter_mut().zip(m.row(i)) {
            *o = 0.0 + l * x;
        }
    }
}

impl Aligner for Grasp {
    fn name(&self) -> &'static str {
        "GRASP"
    }

    fn native_assignment(&self) -> AssignmentMethod {
        AssignmentMethod::JonkerVolgenant
    }

    fn similarity(&self, source: &Graph, target: &Graph) -> Result<Similarity, AlignError> {
        check_sizes(source, target)?;
        let k = self.k.min(source.node_count()).min(target.node_count()).max(1);
        let (la, phi) = self.spectrum(source, k)?;
        let (lb, psi) = self.spectrum(target, k)?;
        let times = self.time_grid();
        let mut f = self.heat_diagonals(&la, &phi, &times); // n_A × q
        let mut g = self.heat_diagonals(&lb, &psi, &times); // n_B × q
        if self.normalize_functions {
            for m in [&mut f, &mut g] {
                for s in 0..m.cols() {
                    let norm = graphalign_linalg::vec_ops::norm2(&m.col(s));
                    if norm > 0.0 {
                        for i in 0..m.rows() {
                            m.set(i, s, m.get(i, s) / norm);
                        }
                    }
                }
            }
        }

        let a_coef = f.tr_matmul(&phi); // q × k
        let b_coef = g.tr_matmul(&psi); // q × k
        let m = if self.skip_base_alignment {
            DenseMatrix::identity(k)
        } else {
            // Rescale the coefficient matrices to Frobenius norm √k so the
            // fit term of Equation 14 (‖A − BM‖² ≈ O(k) at this scale) stays
            // commensurate with the off-diagonality term (also O(k) for a
            // spectrum in [0, 2]) regardless of the functions' raw scale.
            let target = (k as f64).sqrt();
            let sa = target / a_coef.frobenius_norm().max(1e-300);
            let sb = target / b_coef.frobenius_norm().max(1e-300);
            self.base_align(&a_coef.scaled(sa), &b_coef.scaled(sb), &lb)?
        };
        let psi_aligned = psi.matmul(&m); // n_B × k

        // Diagonal coefficient map C: per-column least squares between the
        // corresponding-function coefficients.
        let b_aligned = g.tr_matmul(&psi_aligned); // q × k
        let mut c = vec![0.0; k];
        for j in 0..k {
            let mut num = 0.0;
            let mut den = 0.0;
            for s in 0..a_coef.rows() {
                num += a_coef.get(s, j) * b_aligned.get(s, j);
                den += a_coef.get(s, j) * a_coef.get(s, j);
            }
            c[j] = if den > 1e-300 { num / den } else { 1.0 };
        }

        // Node descriptors: rows of Φ·diag(C) vs rows of Ψ·M; similarity is
        // the negated squared distance, carried factored (`O(n · k)` instead
        // of `n × n`) — the assignment layer densifies only for the LAP
        // solvers.
        let mut phi_c = phi.clone();
        for j in 0..k {
            for i in 0..phi_c.rows() {
                phi_c.set(i, j, phi_c.get(i, j) * c[j]);
            }
        }
        Ok(Similarity::LowRank(LowRankSim::new(phi_c, psi_aligned, LowRankKernel::NegSqDist)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::permuted_instance;
    use graphalign_metrics::accuracy;

    fn fast_grasp() -> Grasp {
        Grasp { q: 30, base_align_iters: 60, ..Grasp::default() }
    }

    #[test]
    fn defaults_match_table1() {
        let g = Grasp::default();
        // k deviates from Table 1 deliberately (see the struct docs).
        assert_eq!(g.k, 40);
        assert_eq!(g.q, 100);
        assert_eq!(g.native_assignment(), AssignmentMethod::JonkerVolgenant);
    }

    #[test]
    fn time_grid_is_log_spaced_and_increasing() {
        let g = Grasp::default();
        let t = g.time_grid();
        assert_eq!(t.len(), 100);
        assert!((t[0] - 0.1).abs() < 1e-12);
        assert!((t[99] - 50.0).abs() < 1e-9);
        for w in t.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn recovers_permuted_isomorphic_graph() {
        let inst = permuted_instance(6, 21);
        let aligned = fast_grasp().align(&inst.source, &inst.target).unwrap();
        let acc = accuracy(&aligned, &inst.ground_truth);
        assert!(acc > 0.85, "GRASP accuracy on isomorphic graphs: {acc}");
    }

    #[test]
    fn survives_low_noise() {
        use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
        let g = crate::test_support::distinctive_graph(8);
        let cfg = NoiseConfig::new(NoiseModel::OneWay, 0.03);
        let inst = make_instance(&g, &cfg, 5);
        let aligned = fast_grasp().align(&inst.source, &inst.target).unwrap();
        let acc = accuracy(&aligned, &inst.ground_truth);
        assert!(acc > 0.4, "GRASP accuracy under 3% noise: {acc}");
    }

    #[test]
    fn base_alignment_matrix_is_orthogonal() {
        let g = fast_grasp();
        let a = DenseMatrix::from_fn(10, 4, |i, j| ((i + j) as f64 * 0.37).sin());
        let b = DenseMatrix::from_fn(10, 4, |i, j| ((i * j) as f64 * 0.21).cos());
        let m = g.base_align(&a, &b, &[0.0, 0.5, 1.0, 1.5]).unwrap();
        let gram = m.tr_matmul(&m);
        assert!(gram.sub(&DenseMatrix::identity(4)).max_abs() < 1e-8);
    }

    #[test]
    fn row_scaling_matches_the_dense_diagonal_gemm_bitwise() {
        // λ = 0 and negative λ against negative entries, +0 and −0: every
        // product that comes out −0 must be +0, as the GEMM leaves it.
        let lambda = [0.0, -1.5, 0.75, -0.0, 2.0];
        let vals = [-0.0, 0.0, -2.5, 1.25, -1e-300, 3.0];
        let m = DenseMatrix::from_fn(5, 6, |i, j| vals[(i + j) % vals.len()]);
        let diag = DenseMatrix::from_fn(5, 5, |i, j| if i == j { lambda[i] } else { 0.0 });
        let mut scaled = DenseMatrix::zeros(5, 6);
        scale_rows_into(&lambda, &m, &mut scaled);
        let bits = |x: &DenseMatrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scaled), bits(&diag.matmul(&m)));
    }

    #[test]
    fn base_alignment_leaving_the_newton_schulz_region_stays_orthogonal() {
        use graphalign_par::telemetry::{self, StopReason};
        // A step size 400× the default throws iterates far off the
        // orthogonal group, so the projection must take the SVD route.
        let g = Grasp { lr: 20.0, ..fast_grasp() };
        let a = DenseMatrix::from_fn(10, 4, |i, j| ((i + j) as f64 * 0.37).sin());
        let b = DenseMatrix::from_fn(10, 4, |i, j| ((i * j) as f64 * 0.21).cos());
        let _sink = telemetry::install(false);
        let m = g.base_align(&a, &b, &[0.0, 0.5, 1.0, 1.5]).unwrap();
        let polar: Vec<_> =
            telemetry::drain().events.into_iter().filter(|e| e.routine == "polar").collect();
        assert_eq!(polar.len(), g.base_align_iters);
        let fallbacks =
            polar.iter().filter(|e| e.convergence.stop == StopReason::Breakdown).count();
        assert!(fallbacks > 0, "lr = 20 never left the Newton–Schulz region");
        let gram = m.tr_matmul(&m);
        assert!(gram.sub(&DenseMatrix::identity(4)).max_abs() < 1e-12);
    }

    #[test]
    fn base_alignment_ablation_is_no_worse_on_average() {
        // The Equation 14 ablation. Pure sign flips are already absorbed by
        // the diagonal coefficient map C (its per-column least squares can
        // go negative), so on easy instances M = I can tie; averaged over
        // noisy instances — where rotations inside near-degenerate
        // eigenspaces matter — the learned M must not lose.
        // Per-instance the comparison is noisy (either side can win on a
        // single noise draw), so the claim is averaged over 12 instances —
        // enough that the 0.2 slack reflects the method, not the draw.
        use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
        let g = crate::test_support::distinctive_graph(8);
        let cfg = NoiseConfig::new(NoiseModel::OneWay, 0.03);
        let mut with_m = 0.0;
        let mut without_m = 0.0;
        for seed in 0..12 {
            let inst = make_instance(&g, &cfg, seed);
            let a = fast_grasp().align(&inst.source, &inst.target).unwrap();
            with_m += accuracy(&a, &inst.ground_truth);
            let a = Grasp { skip_base_alignment: true, ..fast_grasp() }
                .align(&inst.source, &inst.target)
                .unwrap();
            without_m += accuracy(&a, &inst.ground_truth);
        }
        assert!(
            with_m >= without_m - 0.2,
            "base alignment lost badly: {with_m} vs {without_m} (sum over 12 seeds)"
        );
    }

    #[test]
    fn k_is_clamped_to_graph_size() {
        // A 5-node graph with k=20 must not panic.
        let inst = permuted_instance(1, 2); // 6 nodes
        let aligned = fast_grasp().align(&inst.source, &inst.target).unwrap();
        assert_eq!(aligned.len(), inst.source.node_count());
    }
}
