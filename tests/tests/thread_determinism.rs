//! Bit-reproducibility across thread counts: the promise of the
//! `graphalign-par` execution layer, checked end-to-end through the real
//! pipeline (generate → perturb → similarity → assignment) and directly
//! against the blocked/fused linear-algebra kernels.
//!
//! The helpers in `graphalign-par` split work at chunk boundaries chosen
//! from the problem size alone and combine partial results in chunk order,
//! and the blocked GEMM accumulates every output element in ascending
//! shared-index order regardless of the row-block schedule — so similarity
//! matrices, alignments, and telemetry operation counts must be
//! *bit-identical* whether the process uses one worker thread or many, and
//! identical again when the crate is built with `--no-default-features`
//! (no `parallel`), which runs the same chunk schedule inline. This file is
//! that contract's regression test.
//!
//! Everything lives in a single `#[test]` because `set_max_threads` is a
//! process-global override and the libtest harness runs tests in the same
//! binary concurrently.

use graphalign::registry;
use graphalign_assignment::AssignmentMethod;
use graphalign_gen as gen;
use graphalign_linalg::lanczos::{lanczos, Which};
use graphalign_linalg::qr::thin_qr;
use graphalign_linalg::sinkhorn::{sinkhorn, uniform_marginal, SinkhornParams};
use graphalign_linalg::svd::thin_svd;
use graphalign_linalg::{CsrMatrix, DenseMatrix, Similarity, Workspace};
use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
use graphalign_par::telemetry;

/// The op counters that must not depend on the thread count.
type OpCounts = (u64, u64, u64, u64);

/// One algorithm's output: name, flattened similarity matrix, alignment.
type AlgoOutput = (String, Vec<f64>, Vec<usize>);

fn op_counts(t: &telemetry::RepTelemetry) -> OpCounts {
    (t.matmuls, t.sinkhorn_sweeps, t.allocs_saved, t.alloc_bytes_saved)
}

/// Flattens whichever representation the algorithm emitted into its raw
/// f64 payload, without densifying: factored similarities are compared by
/// their factor bits — a strictly stronger check than comparing the
/// materialized product, since the kernel closure is deterministic given
/// the factors.
fn flatten_sim(sim: &Similarity) -> Vec<f64> {
    match sim {
        Similarity::Dense(m) => m.as_slice().to_vec(),
        Similarity::LowRank(lr) => {
            let mut out = lr.ya().as_slice().to_vec();
            out.extend_from_slice(lr.yb().as_slice());
            if let Some(off) = lr.row_offsets() {
                out.extend_from_slice(off);
            }
            out
        }
        Similarity::Sparse(s) => {
            (0..s.rows()).flat_map(|i| s.row_values(i).iter().copied()).collect()
        }
    }
}

fn assert_bits_eq(name: &str, threads: usize, base: &[f64], other: &[f64]) {
    assert_eq!(base.len(), other.len(), "{name}: length differs at {threads} threads");
    let first_diff = base.iter().zip(other).position(|(x, y)| x.to_bits() != y.to_bits());
    assert_eq!(
        first_diff, None,
        "{name}: result differs between 1 and {threads} threads at flat index {first_diff:?}"
    );
}

#[test]
fn alignments_are_bit_identical_across_thread_counts() {
    // Large enough that the dense kernels exceed MIN_PAR_WORK and genuinely
    // fork on the multi-threaded pass (150² rows × ~150-flop rows ≫ 2¹⁷).
    let graph = gen::powerlaw_cluster(150, 5, 0.5, 19);
    let noise = NoiseConfig::new(NoiseModel::OneWay, 0.03);
    let instance = make_instance(&graph, &noise, 7);

    // The hot-path algorithms the parallel layer routes through chunked
    // kernels (dense products, Sinkhorn, power iterations, embeddings) —
    // all of them now on workspace-reuse inner loops.
    let names = ["IsoRank", "LREA", "REGAL", "CONE", "GRASP"];

    let run_all = |threads: usize| -> (Vec<AlgoOutput>, OpCounts) {
        graphalign_par::set_max_threads(threads);
        // Without the `parallel` feature the layer is pinned to one inline
        // "thread" — the chunk schedule is identical either way.
        if cfg!(feature = "parallel") {
            assert_eq!(graphalign_par::max_threads(), threads);
        } else {
            assert_eq!(graphalign_par::max_threads(), 1);
        }
        let _guard = telemetry::install(false);
        let results = registry()
            .iter()
            .filter(|a| names.contains(&a.name()))
            .map(|a| {
                let sim = a.similarity(&instance.source, &instance.target).unwrap();
                let alignment =
                    graphalign_assignment::assign(&sim, AssignmentMethod::JonkerVolgenant);
                (a.name().to_string(), flatten_sim(&sim), alignment)
            })
            .collect();
        (results, op_counts(&telemetry::drain()))
    };

    // Direct probe of the blocked GEMM family, the fused CSR kernel, and
    // the workspace-backed Sinkhorn loop at sizes that cross both the
    // packed-path threshold and MIN_PAR_WORK (200³ = 8M multiply-adds).
    let kernel_probe = |threads: usize| -> (Vec<Vec<f64>>, OpCounts) {
        graphalign_par::set_max_threads(threads);
        let _guard = telemetry::install(false);
        let a = DenseMatrix::from_fn(200, 200, |i, j| ((i * 31 + j * 7) as f64).sin());
        let b = DenseMatrix::from_fn(200, 200, |i, j| ((i * 13 + j * 3) as f64).cos());
        let mut sparse_src = a.clone();
        sparse_src.map_inplace(|v| if v.abs() < 0.8 { 0.0 } else { v });
        let s = CsrMatrix::from_dense(&sparse_src);

        let mut ws = Workspace::new();
        let mut prod = DenseMatrix::zeros(200, 200);
        a.matmul_into(&b, &mut prod, &mut ws);
        let mut prod2 = DenseMatrix::zeros(200, 200);
        // Second product through the warm workspace: exercises buffer reuse.
        a.matmul_into(&b, &mut prod2, &mut ws);
        let trm = a.tr_matmul(&b);
        let mtr = a.matmul_tr(&b);
        let fused = b.mul_csr_tr(&s);
        // The tiled sparse kernels added for the SpMM-scaling pass: the
        // counting-sort transpose-multiply, the scatter right-multiply, the
        // column-tiled dense·CSRᵀ product, and the form-selecting kernel
        // whose hoist/gather choice depends on the size, never the threads.
        let tr_tiled = s.tr_mul_dense(&a);
        let scatter = b.mul_csr(&s);
        let dense_tr = s.mul_dense_tr(&b);
        let mut auto_out = DenseMatrix::zeros(200, 200);
        b.mul_csr_tr_into_auto(&s, &mut auto_out, &mut ws);
        let cost = DenseMatrix::from_fn(64, 64, |i, j| ((i + j) % 17) as f64 / 17.0);
        let mu = uniform_marginal(64);
        let params = SinkhornParams { epsilon: 0.05, max_iter: 40, tol: 0.0 };
        let (plan, _) = sinkhorn(&cost, &mu, &mu, &params).unwrap();
        // The factorizations: a tall QR large enough that its reflector dots
        // split over parallel column blocks, a rank-deficient SVD whose
        // null columns go through the orthonormal completion, and a Lanczos
        // run whose Ritz vectors come from a parallel blocked GEMM.
        let tall = DenseMatrix::from_fn(1200, 120, |i, j| ((i * 7 + j * 5) as f64).sin());
        let qr = thin_qr(&tall);
        let deficient = DenseMatrix::from_fn(96, 96, |i, j| {
            if i < 3 || j < 3 {
                0.0
            } else {
                ((i % 40) as f64 * 0.1).sin() * ((j % 40) as f64 * 0.2).cos()
            }
        });
        let svd = thin_svd(&deficient).unwrap();
        let ring = CsrMatrix::from_triplets(
            900,
            900,
            &(0..900)
                .flat_map(|i| [(i, (i + 1) % 900, 1.0), ((i + 1) % 900, i, 1.0), (i, i, i as f64)])
                .collect::<Vec<_>>(),
        );
        let krylov = lanczos(&ring, 20, Which::Largest, 150, 11).unwrap();

        let ops = op_counts(&telemetry::drain());

        // Graphlet signatures come out of per-worker exact counters summed
        // in worker order; flatten them through f64 bits for the comparison
        // (u64 orbit counts of ESU-countable subgraphs fit f64 exactly
        // here). The *results* must be thread-invariant, but each worker
        // keeps its own ESU scratch whose first root allocates cold, so the
        // scratch-reuse telemetry legitimately depends on the worker count —
        // it is drained after the op-count snapshot and only asserted
        // nonzero.
        let gd =
            graphalign_graph::graphlets::graphlet_degrees(&gen::powerlaw_cluster(120, 6, 0.4, 23));
        let gd_flat: Vec<f64> =
            gd.counts.iter().flat_map(|c| c.iter().map(|&v| v as f64)).collect();
        assert!(telemetry::drain().allocs_saved > 0, "graphlet scratch reuse went uncounted");

        let outputs = vec![
            prod.as_slice().to_vec(),
            prod2.as_slice().to_vec(),
            trm.as_slice().to_vec(),
            mtr.as_slice().to_vec(),
            fused.as_slice().to_vec(),
            tr_tiled.as_slice().to_vec(),
            scatter.as_slice().to_vec(),
            dense_tr.as_slice().to_vec(),
            auto_out.as_slice().to_vec(),
            gd_flat,
            plan.as_slice().to_vec(),
            [qr.q.as_slice(), qr.r.as_slice()].concat(),
            [svd.u.as_slice(), &svd.sigma, svd.v.as_slice()].concat(),
            [&krylov.values, krylov.vectors.as_slice()].concat(),
        ];
        (outputs, ops)
    };

    // The first JV on a factored similarity charges the assignment layer's
    // thread-local densify pool with its initial allocation; run once
    // untimed so every measured pass below sees the same warm pool and
    // identical workspace-reuse counters.
    run_all(1);
    let (seq, seq_ops) = run_all(1);
    let (kseq, kseq_ops) = kernel_probe(1);
    for threads in [2, 8] {
        let (par, par_ops) = run_all(threads);
        for ((name, sim1, a1), (_, simn, an)) in seq.iter().zip(&par) {
            // Bit-exact similarity matrices: compare raw f64 bits, not
            // within a tolerance — reassociating a single reduction would
            // fail this.
            assert_bits_eq(name, threads, sim1, simn);
            assert_eq!(a1, an, "{name}: alignment differs between 1 and {threads} threads");
        }
        assert_eq!(seq_ops, par_ops, "telemetry op counts differ between 1 and {threads} threads");

        let (kpar, kpar_ops) = kernel_probe(threads);
        for (i, (k1, kn)) in kseq.iter().zip(&kpar).enumerate() {
            assert_bits_eq(&format!("kernel probe #{i}"), threads, k1, kn);
        }
        assert_eq!(
            kseq_ops, kpar_ops,
            "kernel-probe telemetry op counts differ between 1 and {threads} threads"
        );
    }
    graphalign_par::set_max_threads(0); // clear the override
}
