//! GRASP's noise robustness on power-law graphs, and its accuracy on
//! noiseless WS/BA/NW graphs, held to floors.
//!
//! Each floor sits [`MARGIN`] below the accuracy these instances scored
//! when the floors were set (JV assignment, `Grasp::default()`, k = 40). A
//! change that moves GRASP's similarity only at rounding level keeps every
//! case far above its floor; one that costs noisy-instance quality fails.

use graphalign::grasp::Grasp;
use graphalign::Aligner;
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::Graph;
use graphalign_metrics::accuracy;
use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};

/// How far below the recorded accuracy each floor sits.
const MARGIN: f64 = 0.05;

fn grasp_accuracy(g: &Graph, level: f64, seed: u64) -> f64 {
    let inst = make_instance(g, &NoiseConfig::new(NoiseModel::OneWay, level), seed);
    let a = Grasp::default()
        .align_with(&inst.source, &inst.target, AssignmentMethod::JonkerVolgenant)
        .unwrap();
    accuracy(&a, &inst.ground_truth)
}

#[test]
fn grasp_noise_profile_on_pl() {
    let g = graphalign_gen::powerlaw_cluster(400, 5, 0.5, 42);
    // (one-way noise level, recorded mean accuracy over instance seeds 7, 8)
    for (level, recorded) in [(0.0, 0.96), (0.01, 0.2425), (0.02, 0.095), (0.05, 0.08125)] {
        let acc = (grasp_accuracy(&g, level, 7) + grasp_accuracy(&g, level, 8)) / 2.0;
        println!("GRASP PL400 level {level}: {acc:.4} (recorded {recorded})");
        assert!(
            acc >= recorded - MARGIN,
            "GRASP on PL400 at {level}: {acc} < {recorded} - {MARGIN}"
        );
    }
}

#[test]
fn grasp_noiseless_profile_on_ws_ba_nw() {
    for (name, h, recorded) in [
        ("WS", graphalign_gen::watts_strogatz(300, 10, 0.5, 3), 1.0),
        ("BA", graphalign_gen::barabasi_albert(300, 5, 2023 ^ 0x9e3779b97f4a7c15), 1.0),
        ("NW", graphalign_gen::newman_watts(300, 7, 0.5, 4), 1.0),
    ] {
        let acc = grasp_accuracy(&h, 0.0, 9);
        println!("GRASP {name}300 noiseless: {acc:.4} (recorded {recorded})");
        assert!(
            acc >= recorded - MARGIN,
            "GRASP on noiseless {name}: {acc} < {recorded} - {MARGIN}"
        );
    }
}
