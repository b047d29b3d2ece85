//! `serve-warm`: an in-process `graphalign_serve` server with the default
//! configuration, driven over HTTP by two closed-loop clients. Each client
//! holds one connection at a time and polls a job at a fixed interval.
//!
//! Warm classes are four uploaded pairs × {IsoRank, NSD, LREA, REGAL,
//! GRASP} × all five assignment methods (dense, low-rank and sparse
//! similarities). An untimed fill round puts their similarities in the
//! cache, so a timed warm repeat costs HTTP + queue + cache lookup +
//! assignment. A minority of cold classes, one per algorithm, uploads in
//! every round a freshly relabeled copy of its target, which the server has
//! not seen before, so uploads, similarity and cache inserts run beside the
//! hits.
//!
//! Every mapping the server returns is checked bit for bit against
//! `generic_align_with` on the uploaded graphs, and scored in the
//! uploader's node ids.

use crate::run::{self, Ledger, Opts, Outcome, Requests, Timed};
use crate::trace::{SpanId, Trace};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::io::parse_edge_list;
use graphalign_graph::permutation::AlignmentInstance;
use graphalign_graph::Graph;
use graphalign_json::Json;
use graphalign_noise::{NoiseConfig, NoiseModel};
use graphalign_serve::{http, ResponseTelemetry, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NODES: usize = 256;
const WARM_PAIRS: usize = 4;
const ALGOS: [&str; 5] = ["IsoRank", "NSD", "LREA", "REGAL", "GRASP"];
/// Cold classes: one per algorithm, each with its own assignment method.
const COLD: [(&str, AssignmentMethod); 5] = [
    ("IsoRank", AssignmentMethod::JonkerVolgenant),
    ("NSD", AssignmentMethod::SortGreedy),
    ("LREA", AssignmentMethod::Auction),
    ("REGAL", AssignmentMethod::NearestNeighbor),
    ("GRASP", AssignmentMethod::Hungarian),
];
/// Closed-loop clients, one per core of the reference host.
const CLIENTS: usize = 2;
/// Fixed poll interval, well below the median job time.
const POLL: Duration = Duration::from_millis(1);
/// A job that has not finished after this long counts as timed out.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// Timed rounds at most. Every round's cold similarities stay in the
/// server's cache, about 2 MiB a round, so a fixed count keeps
/// `peak_rss_mib` from growing with host or program speed. On a 2-vCPU
/// host most 30-s runs reach it; a slow host phase stops some at 13 or 14.
const MAX_TIMED_ROUNDS: usize = 15;
const MIN_ROUNDS: usize = 2;
/// Set-up repeats between timed rounds.
const SETUP_REPEATS: usize = 3;

/// A generated graph pair as the uploader sees it.
struct Pair {
    source_text: String,
    target_text: String,
    truth: Vec<usize>,
}

fn edge_list(g: &Graph) -> String {
    let mut out = Vec::new();
    graphalign_graph::io::write_edge_list(g, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("edge lists are ASCII")
}

fn base_graph(i: usize, seed: u64) -> Graph {
    use graphalign_gen as gen;
    // Generators without isolated nodes, so one-to-one methods always see
    // a target at least as large as the source.
    match i % 4 {
        0 => gen::powerlaw_cluster(NODES, 4, 0.3, seed),
        1 => gen::barabasi_albert(NODES, 4, seed),
        2 => gen::watts_strogatz(NODES, 8, 0.3, seed),
        _ => gen::powerlaw_cluster(NODES, 6, 0.5, seed),
    }
}

fn pair(inst: &AlignmentInstance) -> Pair {
    Pair {
        source_text: edge_list(&inst.source),
        target_text: edge_list(&inst.target),
        truth: inst.ground_truth.clone(),
    }
}

/// Every input: the warm pairs and, per cold class, one pair per round
/// whose target is a fresh relabeling of a fixed noisy target.
struct Inputs {
    warm: Vec<Pair>,
    cold: Vec<Vec<Pair>>,
}

fn inputs(seed: u64, trace: &Trace, parent: Option<SpanId>, request: u64) -> Inputs {
    let noisy = |i: usize| {
        let gseed = seed.wrapping_mul(131).wrapping_add(i as u64);
        let g = trace.span("gen.graph", parent, request, |_| base_graph(i, gseed));
        let config =
            NoiseConfig { keep_connected: true, ..NoiseConfig::new(NoiseModel::OneWay, 0.02) };
        let inst = trace.span("noise.instance", parent, request, |_| {
            graphalign_noise::make_instance(&g, &config, gseed ^ 1)
        });
        (gseed, inst)
    };
    let warm = (0..WARM_PAIRS).map(|p| pair(&noisy(p).1)).collect();
    // A noise-free instance of the target is a relabeled copy: new content
    // to the server (its digest differs), the same work to align.
    let relabel = NoiseConfig::new(NoiseModel::OneWay, 0.0);
    let cold = (0..COLD.len())
        .map(|c| {
            let (gseed, base) = noisy(WARM_PAIRS + c);
            let source_text = edge_list(&base.source);
            (0..=MAX_TIMED_ROUNDS)
                .map(|r| {
                    let copy = trace.span("noise.instance", parent, request, |_| {
                        let rseed = gseed.wrapping_add(1000 * (r as u64 + 1));
                        graphalign_noise::make_instance(&base.target, &relabel, rseed)
                    });
                    Pair {
                        source_text: source_text.clone(),
                        target_text: edge_list(&copy.target),
                        truth: base.ground_truth.iter().map(|&t| copy.ground_truth[t]).collect(),
                    }
                })
                .collect()
        })
        .collect();
    Inputs { warm, cold }
}

/// A running server that is shut down and joined when dropped.
struct Server(Option<ServerHandle>);

impl Server {
    fn addr(&self) -> String {
        self.0.as_ref().expect("server is running").addr().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
            h.wait();
        }
    }
}

fn upload(
    addr: &str,
    text: &str,
    trace: &Trace,
    parent: Option<SpanId>,
    request: u64,
) -> Result<String, String> {
    let resp = trace.span("serve.upload", parent, request, |_| {
        http::request(addr, "POST", "/graphs", text.as_bytes())
    })?;
    if resp.status != 200 {
        return Err(format!("POST /graphs answered {}: {}", resp.status, resp.body));
    }
    let id = graphalign_json::from_str(&resp.body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_str).map(String::from));
    id.ok_or_else(|| format!("POST /graphs: no id in {}", resp.body))
}

/// Scores a server mapping in the uploader's node ids. The server relabels
/// nodes in first-appearance order of the uploaded edge list and drops
/// isolated ones, so its mapping is translated through each side's
/// `original_ids`; nodes the server never saw count as misses.
pub fn uploader_accuracy(
    mapping: &[usize],
    source_ids: &[u64],
    target_ids: &[u64],
    truth: &[usize],
) -> f64 {
    let hits = mapping
        .iter()
        .enumerate()
        .filter(|&(i, &j)| truth[source_ids[i] as usize] as u64 == target_ids[j])
        .count();
    hits as f64 / truth.len() as f64
}

#[derive(Clone, Copy)]
enum Kind {
    Warm(usize),
    Cold(usize),
}

struct Class {
    kind: Kind,
    algo: &'static str,
    method: AssignmentMethod,
}

/// One completed job, as a client saw it.
struct Record {
    class: usize,
    round: usize,
    request: u64,
    traced: bool,
    secs: f64,
    upload_s: f64,
    polls: u32,
    poll_bytes: usize,
    telemetry: ResponseTelemetry,
}

/// Seconds the server spent in phase `name` of a job.
fn phase_s(telemetry: &ResponseTelemetry, name: &str) -> f64 {
    telemetry.phases.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, secs)| secs)
}

struct Ctx<'a> {
    addr: String,
    classes: &'a [Class],
    inputs: &'a Inputs,
    warm_ids: &'a [(String, String)],
}

/// Runs one class repeat: uploads (cold classes), submits, polls until
/// done. Returns the record and the mapping.
fn job(
    ctx: &Ctx,
    ci: usize,
    round: usize,
    trace: &Trace,
    parent: Option<SpanId>,
    request: u64,
) -> Result<(Record, Vec<usize>), String> {
    let class = &ctx.classes[ci];
    let addr = ctx.addr.as_str();
    let t0 = Instant::now();
    trace.span("class", parent, request, |p| {
        let (ids, upload_s) = match class.kind {
            Kind::Warm(w) => (ctx.warm_ids[w].clone(), 0.0),
            Kind::Cold(c) => {
                let pair = &ctx.inputs.cold[c][round];
                let ids = (
                    upload(addr, &pair.source_text, trace, p, request)?,
                    upload(addr, &pair.target_text, trace, p, request)?,
                );
                (ids, t0.elapsed().as_secs_f64())
            }
        };
        let body = format!(
            "{{\"source\":\"{}\",\"target\":\"{}\",\"algorithm\":\"{}\",\"assignment\":\"{}\"}}",
            ids.0,
            ids.1,
            class.algo,
            class.method.label()
        );
        let resp = trace.span("serve.submit", p, request, |_| {
            http::request(addr, "POST", "/jobs", body.as_bytes())
        })?;
        if resp.status != 200 {
            return Err(format!("POST /jobs answered {}: {}", resp.status, resp.body));
        }
        let id = graphalign_json::from_str(&resp.body)
            .ok()
            .and_then(|j| j.get("job").and_then(Json::as_f64))
            .ok_or_else(|| format!("POST /jobs: no job id in {}", resp.body))?
            as usize;
        let path = format!("/jobs/{id}");
        let mut polls = 0;
        loop {
            std::thread::sleep(POLL);
            let resp =
                trace.span("serve.poll", p, request, |_| http::request(addr, "GET", &path, b""))?;
            polls += 1;
            let body =
                graphalign_json::from_str(&resp.body).map_err(|e| format!("poll body: {e:?}"))?;
            match body.get("status").and_then(Json::as_str) {
                Some("queued" | "running") if t0.elapsed() < JOB_DEADLINE => continue,
                Some("done") => {
                    let secs = t0.elapsed().as_secs_f64();
                    let mapping: Option<Vec<usize>> = body
                        .get("mapping")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_f64).map(|v| v as usize).collect());
                    let mapping = mapping.ok_or("done job without a mapping")?;
                    let telemetry = body
                        .get("telemetry")
                        .and_then(ResponseTelemetry::from_json)
                        .ok_or("done job without a telemetry block")?;
                    let record = Record {
                        class: ci,
                        round,
                        request,
                        traced: trace.on(),
                        secs,
                        upload_s,
                        polls,
                        poll_bytes: resp.body.len(),
                        telemetry,
                    };
                    return Ok((record, mapping));
                }
                other => {
                    return Err(format!(
                        "{} {} job ended as {:?}: {}",
                        class.algo,
                        class.method.label(),
                        other.unwrap_or("timeout"),
                        resp.body
                    ))
                }
            }
        }
    })
}

/// One round: both clients pull classes in order until none are left.
/// Returns the records, and the mappings by class.
fn round(
    ctx: &Ctx,
    round: usize,
    trace: &Trace,
    requests: &Requests,
    ledger: &Ledger,
    check: impl Fn(usize, &[usize]) -> Result<(), String> + Sync,
) -> (Vec<Record>, Vec<Option<Vec<usize>>>) {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new((Vec::new(), vec![None; ctx.classes.len()]));
    trace.span("round", None, requests.next(), |rid| {
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let ci = cursor.fetch_add(1, Ordering::Relaxed);
                    if ci >= ctx.classes.len() {
                        break;
                    }
                    let result = job(ctx, ci, round, trace, rid, requests.next())
                        .and_then(|(rec, mapping)| check(ci, &mapping).map(|()| (rec, mapping)));
                    if let Some((rec, mapping)) = ledger.check(result) {
                        let mut o = out.lock().expect("round output lock");
                        o.0.push(rec);
                        o.1[ci] = Some(mapping);
                    }
                });
            }
        });
    });
    out.into_inner().expect("round output lock")
}

/// One server mapping to check against the library.
struct Check<'a> {
    algo: &'static str,
    method: AssignmentMethod,
    pair: &'a Pair,
    mapping: &'a [usize],
    scored: bool,
}

/// Checks that a one-to-one method's mapping is injective, runs
/// `generic_align_with` on the graphs as the server parsed them and compares
/// bit for bit; returns the mapping's accuracy in uploader ids.
fn verify(check: &Check) -> Result<f64, String> {
    let parse = |text: &str| parse_edge_list(text).map_err(|e| format!("uploaded edge list: {e}"));
    let (s, t) = (parse(&check.pair.source_text)?, parse(&check.pair.target_text)?);
    let aligner = graphalign::registry()
        .into_iter()
        .find(|a| a.name() == check.algo)
        .ok_or_else(|| format!("{} is not registered", check.algo))?;
    if check.method != AssignmentMethod::NearestNeighbor {
        run::injective(check.mapping, s.graph.node_count(), t.graph.node_count())
            .map_err(|e| format!("{} {}: {e}", check.algo, check.method.label()))?;
    }
    let want = graphalign::generic_align_with(&*aligner, &s.graph, &t.graph, check.method)
        .map_err(|e| format!("library {}: {e}", check.algo))?;
    if want != check.mapping {
        return Err(format!(
            "{} {}: serve mapping differs from generic_align_with",
            check.algo,
            check.method.label()
        ));
    }
    Ok(uploader_accuracy(check.mapping, &s.original_ids, &t.original_ids, &check.pair.truth))
}

/// [`verify`] on every check, spread over one thread per client.
fn verify_all(checks: &[Check]) -> Vec<Result<f64, String>> {
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(vec![Err("not checked".to_string()); checks.len()]);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(check) = checks.get(i) else { break };
                let r = verify(check);
                results.lock().expect("check results lock")[i] = r;
            });
        }
    });
    results.into_inner().expect("check results lock")
}

pub fn run(opts: &Opts, trace: &Trace, ledger: &Ledger) -> Outcome {
    let requests = Requests::default();
    let mut setup = run::Setup::new(|req, parent| {
        let inputs = inputs(opts.seed, trace, parent, req);
        let server = Server(Some(
            graphalign_serve::start(ServeConfig::default())
                .map_err(|e| format!("start server: {e}"))?,
        ));
        let addr = server.addr();
        let ids = inputs
            .warm
            .iter()
            .map(|p| {
                Ok((
                    upload(&addr, &p.source_text, trace, parent, req)?,
                    upload(&addr, &p.target_text, trace, parent, req)?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok::<_, String>((inputs, server, ids))
    });
    let Some((inputs, server, warm_ids)) = ledger.check(setup.run(trace, &requests)) else {
        return Outcome::failed(setup.fastest().0);
    };
    let mut classes: Vec<Class> = Vec::new();
    for w in 0..WARM_PAIRS {
        for algo in ALGOS {
            for method in AssignmentMethod::ALL {
                classes.push(Class { kind: Kind::Warm(w), algo, method });
            }
        }
    }
    for (c, &(algo, method)) in COLD.iter().enumerate() {
        classes.push(Class { kind: Kind::Cold(c), algo, method });
    }
    let ctx = Ctx { addr: server.addr(), classes: &classes, inputs: &inputs, warm_ids: &warm_ids };

    // Fill round: every warm similarity enters the cache. Its mappings are
    // the ones every timed warm repeat must reproduce.
    let off = Trace::new(false);
    let fill_start = Instant::now();
    let (_, fill) = round(&ctx, 0, &off, &requests, ledger, |_, _| Ok(()));
    let fill_s = fill_start.elapsed().as_secs_f64();

    // Timed rounds; cold mappings are kept for the library check.
    let mut cold = BTreeMap::new();
    let check = |ci: usize, mapping: &[usize]| -> Result<(), String> {
        match classes[ci].kind {
            Kind::Warm(_) if fill[ci].as_deref() == Some(mapping) => Ok(()),
            Kind::Warm(_) => Err(format!(
                "{} {}: warm mapping differs from the fill round",
                classes[ci].algo,
                classes[ci].method.label()
            )),
            Kind::Cold(_) => Ok(()),
        }
    };
    let mut records = Vec::new();
    let phase = run::round_robin(
        opts,
        MIN_ROUNDS,
        MAX_TIMED_ROUNDS,
        |r, traced| {
            let tracer = if traced { trace } else { &off };
            let (recs, mappings) = round(&ctx, r, tracer, &requests, ledger, check);
            for (ci, m) in mappings.into_iter().enumerate() {
                if let (Kind::Cold(c), Some(m)) = (classes[ci].kind, m) {
                    cold.insert((c, r), m);
                }
            }
            records.extend(recs);
        },
        || {
            for _ in 0..SETUP_REPEATS {
                ledger.check(setup.run(trace, &requests).map(drop));
            }
        },
    );
    let (setup_s, setup_request) = setup.fastest();

    let stats = http::request(&ctx.addr, "GET", "/stats", b"")
        .ok()
        .and_then(|r| graphalign_json::from_str(&r.body).ok());
    drop(server);

    // Library check of every mapping, and accuracy of the fill round in
    // the uploader's ids.
    let mut checks = Vec::new();
    for (ci, c) in classes.iter().enumerate() {
        let pair = match c.kind {
            Kind::Warm(w) => &inputs.warm[w],
            Kind::Cold(k) => &inputs.cold[k][0],
        };
        if let Some(m) = &fill[ci] {
            checks.push(Check { algo: c.algo, method: c.method, pair, mapping: m, scored: true });
        }
    }
    for ((k, r), m) in &cold {
        let (algo, method) = COLD[*k];
        checks.push(Check { algo, method, pair: &inputs.cold[*k][*r], mapping: m, scored: false });
    }
    let mut accuracy = 0.0;
    let verify_start = Instant::now();
    let verified = verify_all(&checks);
    let verify_s = verify_start.elapsed().as_secs_f64();
    for (check, result) in checks.iter().zip(verified) {
        if let (true, Some(acc)) = (check.scored, ledger.check(result)) {
            accuracy += acc;
        }
    }
    accuracy /= classes.len() as f64;

    let mut timed = Timed::new(classes.len(), opts.trace);
    for r in &records {
        timed.record(r.traced, r.class, r.secs, r.request);
    }
    let mut layers = BTreeMap::new();
    if let Some(traced) = &timed.traced {
        // Counts from the first timed round, where every class ran once.
        let first: Vec<&Record> = records.iter().filter(|r| r.round == 1).collect();
        let cells = first.iter().map(|r| &r.telemetry);
        layers = run::traced_layers(trace, &timed.plain, traced, setup_request, cells.clone());
        let (hits, misses) = cells.fold((0, 0), |(h, m), t| (h + t.cache_hits, m + t.cache_misses));
        let best = traced.best_requests();
        for r in records.iter().filter(|r| r.traced && best[r.class] == r.request) {
            let c = &classes[r.class];
            let (sim, asg) =
                (phase_s(&r.telemetry, "similarity"), phase_s(&r.telemetry, "assignment"));
            for (name, v) in [
                ("serve.similarity_s".to_string(), sim),
                ("serve.assignment_s".to_string(), asg),
                ("serve.queue_s".to_string(), r.secs - r.upload_s - sim - asg),
                (format!("core.{}.similarity_s", c.algo), sim),
                (format!("assignment.{}_s", c.method.label().to_ascii_lowercase()), asg),
            ] {
                *layers.entry(name).or_insert(0.0) += v;
            }
        }
        layers.insert("serve.cache_misses".into(), misses as f64);
        layers.insert("serve.cache_hit_ratio".into(), hits as f64 / (hits + misses).max(1) as f64);
        layers.insert("json.poll_bytes".into(), first.iter().map(|r| r.poll_bytes as f64).sum());
        layers.insert(
            "serve.polls_per_job".into(),
            first.iter().map(|r| f64::from(r.polls)).sum::<f64>() / first.len().max(1) as f64,
        );
        let stat = |group: &str, name: &str| {
            stats
                .as_ref()
                .and_then(|s| s.get(group))
                .and_then(|g| g.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        layers.insert("serve.cache_evictions".into(), stat("cache", "evictions"));
        layers.insert("serve.retries".into(), stat("resilience", "retries"));
        layers.insert("serve.rejected_429".into(), stat("resilience", "rejected_429"));
    }
    let timed_jobs = records.len();
    let (k_lo, k_hi) = timed.plain.k_range();
    let context = vec![
        ("classes".into(), Json::Num(classes.len() as f64)),
        ("cold_classes".into(), Json::Num(COLD.len() as f64)),
        ("nodes".into(), Json::Num(NODES as f64)),
        ("clients".into(), Json::Num(CLIENTS as f64)),
        ("server_workers".into(), Json::Num(ServeConfig::default().workers as f64)),
        ("poll_interval_s".into(), Json::Num(POLL.as_secs_f64())),
        ("setup_repeats".into(), Json::Num(f64::from(setup.repeats()))),
        ("rounds".into(), Json::Num(phase.rounds as f64)),
        ("k_min".into(), Json::Num(k_lo as f64)),
        ("k_max".into(), Json::Num(k_hi as f64)),
        ("timed_jobs".into(), Json::Num(timed_jobs as f64)),
        ("fill_round_s".into(), Json::Num(fill_s)),
        ("library_check_s".into(), Json::Num(verify_s)),
    ];
    Outcome {
        setup_s,
        jobs_per_s: timed_jobs as f64 / phase.elapsed,
        classes: timed.plain,
        accuracy,
        layers,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_scores_in_uploader_ids_with_an_isolated_node() {
        // Node 4 is isolated: the upload drops it.
        let source = Graph::from_edges(5, &[(0, 3), (1, 2), (1, 3), (2, 3)]);
        let truth = vec![2, 4, 0, 1, 3];
        let perm = graphalign_graph::Permutation::from_vec(truth.clone());
        let target = perm.apply_to_graph(&source);
        let (s, t) = (
            parse_edge_list(&edge_list(&source)).unwrap(),
            parse_edge_list(&edge_list(&target)).unwrap(),
        );
        assert_eq!(s.graph.node_count(), 4, "the isolated node is not uploaded");
        assert_ne!(s.original_ids, vec![0, 1, 2, 3], "ids are relabeled in first-appearance order");
        // The correct mapping in the server's ids.
        let right: Vec<usize> = s
            .original_ids
            .iter()
            .map(|&u| t.original_ids.iter().position(|&v| v == truth[u as usize] as u64).unwrap())
            .collect();
        assert_eq!(uploader_accuracy(&right, &s.original_ids, &t.original_ids, &truth), 4.0 / 5.0);
        // Scored without translation, the same mapping looks wrong.
        let untranslated = right.iter().enumerate().filter(|&(i, &j)| truth[i] == j).count();
        assert!(untranslated < 4);
        // A mapping that swaps two nodes loses both.
        let mut wrong = right.clone();
        wrong.swap(0, 1);
        assert_eq!(uploader_accuracy(&wrong, &s.original_ids, &t.original_ids, &truth), 2.0 / 5.0);
    }
}
