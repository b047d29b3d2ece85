//! `paper-grid`: the paper's quality grid through the library, on one
//! compute thread — every registry algorithm × ER/BA/WS/PL × one-way noise
//! 0/2/5 %, each through `precompute_similarity` → `assign_precomputed`
//! (JV, the study's common assignment) → `metrics::evaluate`.
//!
//! Similarity dominates the pass, working sets fit in L2 and nothing is
//! cached, so core and linalg changes show here while the parallel, serve
//! and stream layers are bypassed. It is also the single-threaded baseline.

use crate::run::{self, Ledger, Opts, Outcome, Requests, Timed};
use crate::trace::{SpanId, Trace};
use graphalign::Aligner;
use graphalign_assignment::AssignmentMethod;
use graphalign_bench::telemetry::CellTelemetry;
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_json::Json;
use graphalign_noise::{NoiseConfig, NoiseModel};
use std::time::Instant;

/// Graph model and its fixed node count. Sizes do not depend on the seed,
/// so that the cost of a pass does not either.
const MODELS: [(&str, usize); 4] = [("ER", 128), ("BA", 128), ("WS", 128), ("PL", 128)];
/// One-way noise levels.
const NOISE: [f64; 3] = [0.0, 0.02, 0.05];
const METHOD: AssignmentMethod = AssignmentMethod::JonkerVolgenant;
const MIN_ROUNDS: usize = 2;
/// Set-up repeats between timed rounds. A set-up takes a few
/// milliseconds, so many repeats cost little and give a steady fastest.
const SETUP_REPEATS: usize = 20;

fn generate(model: &str, n: usize, seed: u64) -> graphalign_graph::Graph {
    use graphalign_gen as gen;
    // The figure 2–6 generators, with ER's p set for average degree 10.
    match model {
        "ER" => gen::erdos_renyi(n, 10.0 / (n as f64 - 1.0), seed),
        "BA" => gen::barabasi_albert(n, 5, seed),
        "WS" => gen::watts_strogatz(n, 10, 0.5, seed),
        _ => gen::powerlaw_cluster(n, 5, 0.5, seed),
    }
}

/// The twelve instances, model-major then noise level.
fn instances(
    seed: u64,
    trace: &Trace,
    parent: Option<SpanId>,
    request: u64,
) -> Vec<AlignmentInstance> {
    let mut out = Vec::new();
    for (m, &(model, n)) in MODELS.iter().enumerate() {
        let gseed = seed.wrapping_mul(31).wrapping_add(m as u64);
        let g = trace.span("gen.graph", parent, request, |_| generate(model, n, gseed));
        for (l, &level) in NOISE.iter().enumerate() {
            let config = NoiseConfig::new(NoiseModel::OneWay, level);
            let iseed = gseed.wrapping_mul(7).wrapping_add(l as u64 + 1);
            out.push(trace.span("noise.instance", parent, request, |_| {
                graphalign_noise::make_instance(&g, &config, iseed)
            }));
        }
    }
    out
}

struct Class {
    algo: usize,
    instance: usize,
    sim_span: String,
}

/// One class repeat; returns the mapping and its accuracy.
fn execute(
    aligner: &dyn Aligner,
    class: &Class,
    inst: &AlignmentInstance,
    trace: &Trace,
    request: u64,
) -> Result<(Vec<usize>, f64), String> {
    trace.span("class", None, request, |parent| {
        let sim = trace
            .span(&class.sim_span, parent, request, |_| {
                graphalign::precompute_similarity(aligner, &inst.source, &inst.target, METHOD)
            })
            .map_err(|e| format!("{}: {e}", class.sim_span))?;
        let mapping = trace.span("assignment.jv", parent, request, |_| {
            graphalign::assign_precomputed(&sim, METHOD)
        });
        let report = trace.span("metrics.score", parent, request, |_| {
            graphalign_metrics::evaluate(&inst.source, &inst.target, &mapping, &inst.ground_truth)
        });
        Ok((mapping, report.accuracy))
    })
}

pub fn run(opts: &Opts, trace: &Trace, ledger: &Ledger) -> Outcome {
    graphalign_par::set_max_threads(1);
    let requests = Requests::default();
    let mut setup = run::Setup::new(|req, parent| instances(opts.seed, trace, parent, req));
    let insts = setup.run(trace, &requests);
    let aligners = graphalign::registry();
    let classes: Vec<Class> = (0..aligners.len())
        .flat_map(|algo| (0..insts.len()).map(move |instance| (algo, instance)))
        .map(|(algo, instance)| Class {
            algo,
            instance,
            sim_span: format!("core.{}.similarity", aligners[algo].name()),
        })
        .collect();

    // Warm-up round: every class once under a telemetry sink. It checks
    // the one-to-one gate, fixes the reference mappings the timed repeats
    // must reproduce, and yields the deterministic counts.
    let warmup_start = Instant::now();
    let off = Trace::new(false);
    let mut reps = Vec::with_capacity(classes.len());
    let mut reference: Vec<Option<Vec<usize>>> = Vec::with_capacity(classes.len());
    let mut accuracy = 0.0;
    for c in &classes {
        let inst = &insts[c.instance];
        let (result, rep) = run::with_sink(|| execute(&*aligners[c.algo], c, inst, &off, 0));
        reps.push(rep);
        let checked = result.and_then(|(mapping, acc)| {
            run::injective(&mapping, inst.source.node_count(), inst.target.node_count())
                .map(|()| (mapping, acc))
        });
        reference.push(ledger.check(checked).map(|(mapping, acc)| {
            accuracy += acc;
            mapping
        }));
    }
    accuracy /= classes.len() as f64;
    let telemetry = CellTelemetry::aggregate(&reps);
    let warmup_s = warmup_start.elapsed().as_secs_f64();

    let mut timed = Timed::new(classes.len(), opts.trace);
    let phase = run::round_robin(
        opts,
        MIN_ROUNDS,
        usize::MAX,
        |_, traced| {
            for (ci, c) in classes.iter().enumerate() {
                run::visit(run::MIN_VISIT_S, || {
                    let request = requests.next();
                    let tracer = if traced { trace } else { &off };
                    let t0 = Instant::now();
                    let result =
                        execute(&*aligners[c.algo], c, &insts[c.instance], tracer, request);
                    let secs = t0.elapsed().as_secs_f64();
                    let same = match (&result, &reference[ci]) {
                        (Ok((mapping, _)), Some(want)) if mapping == want => Ok(()),
                        (Err(e), _) => Err(e.clone()),
                        _ => Err(format!("{}: mapping differs from the warm-up run", c.sim_span)),
                    };
                    let ok = ledger.check(same).is_some();
                    if ok {
                        timed.record(traced, ci, secs, request);
                    }
                    ok
                });
            }
        },
        || {
            for _ in 0..SETUP_REPEATS {
                drop(setup.run(trace, &requests));
            }
        },
    );

    let (setup_s, setup_request) = setup.fastest();
    let layers = match &timed.traced {
        Some(traced) => {
            run::traced_layers(trace, &timed.plain, traced, setup_request, [&telemetry])
        }
        None => Default::default(),
    };
    let (k_lo, k_hi) = timed.plain.k_range();
    let context = vec![
        ("classes".into(), Json::Num(classes.len() as f64)),
        ("algorithms".into(), Json::Num(aligners.len() as f64)),
        (
            "sizes".into(),
            Json::Arr(MODELS.iter().map(|&(m, n)| Json::Str(format!("{m}:{n}"))).collect()),
        ),
        ("noise_levels".into(), Json::Arr(NOISE.iter().map(|&l| Json::Num(l)).collect())),
        ("assignment".into(), Json::Str(METHOD.label().into())),
        ("setup_repeats".into(), Json::Num(f64::from(setup.repeats()))),
        ("rounds".into(), Json::Num(phase.rounds as f64)),
        ("k_min".into(), Json::Num(k_lo as f64)),
        ("k_max".into(), Json::Num(k_hi as f64)),
        ("warmup_s".into(), Json::Num(warmup_s)),
    ];
    Outcome {
        setup_s,
        jobs_per_s: classes.len() as f64 / timed.plain.pass(),
        classes: timed.plain,
        accuracy,
        layers,
        context,
    }
}
