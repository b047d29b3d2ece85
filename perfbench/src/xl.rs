//! `xl-factored`: the streamed, never-densify tier at n = 2¹⁵, d ≈ 10, on
//! all cores. Set-up writes a packed edge stream and builds both CSR graphs
//! from it (`graphalign_datasets::stream`); each round computes the XL
//! roster's factored similarities (REGAL, CONE, FPROP with their XL
//! configurations) and probes every one with the sharded top-k over row
//! slices against all target columns.
//!
//! It is the only workload whose working set is far beyond L2 and the only
//! one that runs the stream, propagation, landmark and top-k layers and the
//! parallel kernels, so peak RSS means something here.

use crate::run::{self, Ledger, Opts, Outcome, Requests, Timed};
use crate::trace::{SpanId, Trace};
use graphalign_assignment::topk::{self, TopKConfig};
use graphalign_assignment::AssignmentMethod;
use graphalign_bench::telemetry::CellTelemetry;
use graphalign_bench::xl::XlAlgo;
use graphalign_datasets::stream::{EdgeStream, EdgeStreamWriter};
use graphalign_graph::{Graph, Permutation};
use graphalign_json::Json;
use graphalign_linalg::{LowRankSim, Similarity};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

const NODES: usize = 1 << 15;
const AVG_DEGREE: usize = 10;
/// Row slices probed per algorithm; with the three similarity classes this
/// gives more than 100 classes, so `job_s.p90` has ten classes beyond it.
const SLICES: usize = 34;
const SLICE_ROWS: usize = 32;
const TILE_COLS: usize = 2048;
const MIN_ROUNDS: usize = 2;
/// Set-up repeats between timed rounds.
const SETUP_REPEATS: usize = 5;

/// The edge-stream directory, removed when the run ends however it ends.
struct StreamDir(PathBuf);

impl Drop for StreamDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Instance {
    source: Graph,
    target: Graph,
    truth: Vec<usize>,
}

/// A ring (no isolated nodes) plus uniform random chords up to the average
/// degree, written as a packed edge stream.
fn write_stream(path: &Path, seed: u64) -> std::io::Result<EdgeStream> {
    let mut w = EdgeStreamWriter::create(path, NODES)?;
    for u in 0..NODES {
        w.push(u, (u + 1) % NODES)?;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chords = NODES * AVG_DEGREE / 2 - NODES;
    while chords > 0 {
        let (u, v) = (rng.random_range(0..NODES), rng.random_range(0..NODES));
        if u != v {
            w.push(u, v)?;
            chords -= 1;
        }
    }
    w.finish()
}

fn build(
    dir: &Path,
    seed: u64,
    trace: &Trace,
    parent: Option<SpanId>,
    request: u64,
) -> std::io::Result<Instance> {
    let path = dir.join("xl.edges");
    let stream =
        trace.span("datasets.stream_write", parent, request, |_| write_stream(&path, seed))?;
    let source = trace.span("datasets.csr_build", parent, request, |_| stream.build_graph())?;
    let perm = Permutation::random(NODES, seed ^ 0x5eed);
    let target = trace.span("datasets.csr_build", parent, request, |_| {
        stream.build_graph_with(|v| perm.apply(v))
    })?;
    Ok(Instance { source, target, truth: perm.as_slice().to_vec() })
}

#[derive(Clone, Copy)]
enum Kind {
    Similarity,
    Slice(usize),
}

struct Class {
    algo: usize,
    kind: Kind,
}

/// The similarity the slices of the current algorithm probe.
type Current = Option<(usize, LowRankSim)>;

fn similarity(
    algo: XlAlgo,
    inst: &Instance,
    trace: &Trace,
    request: u64,
    span: &str,
) -> Result<(LowRankSim, f64), String> {
    let aligner = algo.make();
    let t0 = Instant::now();
    let sim = trace.span("class", None, request, |p| {
        trace.span(span, p, request, |_| {
            graphalign::precompute_similarity(
                &*aligner,
                &inst.source,
                &inst.target,
                AssignmentMethod::NearestNeighbor,
            )
        })
    });
    let secs = t0.elapsed().as_secs_f64();
    match sim {
        Ok(Similarity::LowRank(lr)) => Ok((lr, secs)),
        Ok(other) => {
            Err(format!("{}: {} similarity is not factored", algo.name(), other.repr_kind()))
        }
        Err(e) => Err(format!("{}: {e}", algo.name())),
    }
}

/// Rows `slice·SLICE_ROWS ..` of `lr` against every target column.
fn slice_of(lr: &LowRankSim, slice: usize) -> LowRankSim {
    let rows: Vec<usize> = (slice * SLICE_ROWS..(slice + 1) * SLICE_ROWS).collect();
    let sliced = LowRankSim::new(lr.ya().select_rows(&rows), lr.yb().clone(), lr.kernel());
    match lr.row_offsets() {
        Some(off) => sliced.with_row_offsets(rows.iter().map(|&r| off[r]).collect()),
        None => sliced,
    }
}

/// What every class repeat shares.
struct Ctx {
    inst: Instance,
    /// One `core.<algo>.similarity` span name per roster entry.
    spans: Vec<String>,
    /// One shard per compute thread, so a slice's probe uses every core.
    topk: TopKConfig,
}

/// One class repeat: returns its time and, for a slice, the top-1 columns.
fn execute(
    class: &Class,
    ctx: &Ctx,
    current: &mut Current,
    trace: &Trace,
    request: u64,
) -> Result<(f64, Option<Vec<usize>>), String> {
    let algo = XlAlgo::ALL[class.algo];
    match class.kind {
        Kind::Similarity => {
            *current = None;
            let (lr, secs) = similarity(algo, &ctx.inst, trace, request, &ctx.spans[class.algo])?;
            *current = Some((class.algo, lr));
            Ok((secs, None))
        }
        Kind::Slice(s) => {
            let lr = match current {
                Some((a, lr)) if *a == class.algo => lr,
                _ => return Err(format!("{}: no similarity to probe", algo.name())),
            };
            let sliced = slice_of(lr, s);
            let t0 = Instant::now();
            let nn = trace.span("class", None, request, |p| {
                trace.span("assignment.topk", p, request, |_| {
                    topk::nearest_neighbor_sharded(&sliced, &ctx.topk)
                })
            });
            Ok((t0.elapsed().as_secs_f64(), Some(nn)))
        }
    }
}

pub fn run(opts: &Opts, trace: &Trace, ledger: &Ledger) -> Outcome {
    let requests = Requests::default();
    let dir = StreamDir(crate::out_dir().join(format!("xl-stream-{}", std::process::id())));
    let mut setup = run::Setup::new(|req, parent| {
        std::fs::create_dir_all(&dir.0)
            .and_then(|()| build(&dir.0, opts.seed, trace, parent, req))
            .map_err(|e| format!("XL stream set-up: {e}"))
    });
    let Some(inst) = ledger.check(setup.run(trace, &requests)) else {
        return Outcome::failed(setup.fastest().0);
    };
    let ctx = Ctx {
        inst,
        spans: XlAlgo::ALL.iter().map(|a| format!("core.{}.similarity", a.name())).collect(),
        topk: TopKConfig {
            shard_rows: SLICE_ROWS.div_ceil(graphalign_par::max_threads()),
            tile_cols: TILE_COLS,
        },
    };
    let classes: Vec<Class> = (0..XlAlgo::ALL.len())
        .flat_map(|algo| {
            std::iter::once(Kind::Similarity)
                .chain((0..SLICES).map(Kind::Slice))
                .map(move |kind| Class { algo, kind })
        })
        .collect();

    // Warm-up round under telemetry sinks: the never-densify gate, the
    // reference top-1 columns, accuracy, counts and (traced) RSS deltas.
    let warmup_start = Instant::now();
    let off = Trace::new(false);
    let mut current: Current = None;
    let mut reps = Vec::with_capacity(classes.len());
    let mut reference: Vec<Option<Vec<usize>>> = Vec::with_capacity(classes.len());
    let mut rss_delta = [0.0; 3];
    let mut hits = 0usize;
    let mut scored = 0usize;
    for c in &classes {
        let probe = (opts.trace && matches!(c.kind, Kind::Similarity)).then(|| {
            // Free the previous algorithm's factors first, so that every
            // delta starts from the same floor: the instance alone.
            current = None;
            graphalign_bench::memprobe::CellRssProbe::begin()
        });
        let (result, rep) = run::with_sink(|| execute(c, &ctx, &mut current, &off, 0));
        if let Some(delta) = probe.and_then(|p| p.delta_bytes()) {
            rss_delta[c.algo] = delta as f64 / (1024.0 * 1024.0);
        }
        let name = XlAlgo::ALL[c.algo].name();
        let checked = result.and_then(|(_, nn)| match rep.densifications {
            0 => Ok(nn),
            d => Err(format!("{name}: {d} densifications in a never-densify cell")),
        });
        reps.push(rep);
        let nn = ledger.check(checked).flatten();
        if let (Kind::Slice(s), Some(nn)) = (c.kind, &nn) {
            let truth = &ctx.inst.truth[s * SLICE_ROWS..(s + 1) * SLICE_ROWS];
            hits += nn.iter().zip(truth).filter(|(a, b)| a == b).count();
            scored += SLICE_ROWS;
        }
        reference.push(nn);
    }
    let accuracy = hits as f64 / scored.max(1) as f64;
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
                    let result = execute(c, &ctx, &mut current, tracer, request);
                    let checked = result.and_then(|(secs, nn)| match nn == reference[ci] {
                        true => Ok(secs),
                        false => Err(format!(
                            "{}: top-1 columns differ from the warm-up run",
                            XlAlgo::ALL[c.algo].name()
                        )),
                    });
                    let secs = ledger.check(checked);
                    if let Some(secs) = secs {
                        timed.record(traced, ci, secs, request);
                    }
                    secs.is_some()
                });
            }
        },
        || {
            for _ in 0..SETUP_REPEATS {
                ledger.check(setup.run(trace, &requests).map(drop));
            }
        },
    );
    drop(current);
    let (setup_s, setup_request) = setup.fastest();

    let mut layers = std::collections::BTreeMap::new();
    if let Some(traced) = &timed.traced {
        layers = run::traced_layers(trace, &timed.plain, traced, setup_request, [&telemetry]);
        for (a, algo) in XlAlgo::ALL.iter().enumerate() {
            layers.insert(format!("core.{}.rss_delta_mib", algo.name()), rss_delta[a]);
        }
    }
    let (k_lo, k_hi) = timed.plain.k_range();
    let context = vec![
        ("classes".into(), Json::Num(classes.len() as f64)),
        ("nodes".into(), Json::Num(NODES as f64)),
        ("avg_degree".into(), Json::Num(AVG_DEGREE as f64)),
        ("edges".into(), Json::Num(ctx.inst.source.edge_count() as f64)),
        (
            "roster".into(),
            Json::Arr(XlAlgo::ALL.iter().map(|a| Json::Str(a.name().into())).collect()),
        ),
        ("probe_rows_per_algorithm".into(), Json::Num((SLICES * SLICE_ROWS) as f64)),
        ("slice_rows".into(), Json::Num(SLICE_ROWS as f64)),
        ("topk_shard_rows".into(), Json::Num(ctx.topk.shard_rows as f64)),
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
