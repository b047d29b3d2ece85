//! End-to-end benchmark of graphalign.
//!
//! ```text
//! perfbench --workload <paper-grid|serve-warm|xl-factored> --seed <n>
//!           --seconds <s> --trace <0|1> [--steady <runs>]
//! ```
//!
//! Prints every metric with its unit, the run context, and as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced
//! run (`--trace 1`) reports the per-layer metrics and writes the span
//! file. It exits 1 on any failed operation or correctness check and 2 on
//! a usage error. `--steady <runs>` runs the workload that many times, one
//! seed each, and prints each metric's median and quartile spread.
//! See `README.md` beside this package for the workloads and metrics.

mod grid;
mod run;
mod serve;
mod stats;
mod trace;
mod xl;

use graphalign_json::Json;
use run::{Ledger, Opts, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["paper-grid", "serve-warm", "xl-factored"];

/// End-to-end metrics, with units; the untraced run prints all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("jobs_per_s", "1/s"),
    ("accuracy", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, with units; the traced run prints all of them, and a
/// layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("gen.graph_s", "s"),
    ("noise.instance_s", "s"),
    ("core.IsoRank.similarity_s", "s"),
    ("core.GRAAL.similarity_s", "s"),
    ("core.NSD.similarity_s", "s"),
    ("core.LREA.similarity_s", "s"),
    ("core.REGAL.similarity_s", "s"),
    ("core.GWL.similarity_s", "s"),
    ("core.S-GWL.similarity_s", "s"),
    ("core.CONE.similarity_s", "s"),
    ("core.GRASP.similarity_s", "s"),
    ("core.FPROP.similarity_s", "s"),
    ("core.solver_iterations", "count"),
    ("core.nonconverged", "count"),
    ("core.REGAL.rss_delta_mib", "MiB"),
    ("core.CONE.rss_delta_mib", "MiB"),
    ("core.FPROP.rss_delta_mib", "MiB"),
    ("linalg.matmuls", "count"),
    ("linalg.sinkhorn_sweeps", "count"),
    ("linalg.alloc_bytes_saved", "bytes"),
    ("linalg.densifications", "count"),
    ("linalg.densified_bytes", "bytes"),
    ("assignment.nn_s", "s"),
    ("assignment.sg_s", "s"),
    ("assignment.jv_s", "s"),
    ("assignment.hun_s", "s"),
    ("assignment.mwm_s", "s"),
    ("assignment.auction_bids", "count"),
    ("assignment.topk_s", "s"),
    ("metrics.score_s", "s"),
    ("serve.upload_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.poll_s", "s"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_s", "s"),
    ("serve.similarity_s", "s"),
    ("serve.assignment_s", "s"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.retries", "count"),
    ("serve.rejected_429", "count"),
    ("json.poll_bytes", "bytes"),
    ("datasets.stream_write_s", "s"),
    ("datasets.csr_build_s", "s"),
    ("par.threads", "count"),
    ("bench.class_self_s", "s"),
    ("bench.setup_self_s", "s"),
    ("trace.overhead", "fraction"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|serve-warm|xl-factored> \
                     --seed <n> --seconds <s> --trace <0|1> [--steady <runs>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--steady" => {
                let n: usize = value()?.parse().map_err(|_| "--steady takes a run count")?;
                if n < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                steady = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        steady,
    })
}

/// Where span files and the XL edge stream go: inside the package, so a
/// run reads and writes only inside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let times = o.classes.times();
    let pct = |p| stats::percentile(times, p).unwrap_or(f64::NAN);
    let values = [
        o.setup_s,
        o.classes.pass(),
        pct(50),
        pct(90),
        o.jobs_per_s,
        o.accuracy,
        graphalign_bench::memprobe::peak_rss_bytes()
            .map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, _), v)| (name, v)).collect()
}

fn run_once(args: &Args) -> ExitCode {
    let opts = Opts { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let trace = trace::Trace::new(args.trace);
    let ledger = Ledger::default();
    let outcome = match args.workload.as_str() {
        "paper-grid" => grid::run(&opts, &trace, &ledger),
        "serve-warm" => serve::run(&opts, &trace, &ledger),
        _ => xl::run(&opts, &trace, &ledger),
    };

    let mut context = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("simd_active".into(), Json::Bool(graphalign_linalg::simd::simd_active())),
        ("threads".into(), Json::Num(graphalign_par::max_threads() as f64)),
    ];
    let n = outcome.classes.times().len();
    for p in [50, 90] {
        let rank = (p * n).div_ceil(100).max(1);
        context.push((format!("p{p}_classes_beyond"), Json::Num(n.saturating_sub(rank) as f64)));
    }
    context.extend(outcome.context.iter().cloned());

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = outcome.layers.clone();
        layers.insert("par.threads".into(), graphalign_par::max_threads() as f64);
        let spans = trace.spans();
        layers.insert("trace.spans".into(), spans.len() as f64);
        layers.insert("bench.class_self_s".into(), layers.get("class_s").copied().unwrap_or(0.0));
        layers.insert("bench.setup_self_s".into(), layers.get("setup_s").copied().unwrap_or(0.0));
        for (name, unit) in PER_LAYER {
            metrics.push((name.to_string(), layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = out_dir().join(format!("spans-{}-{}.json", args.workload, args.seed));
        let file = trace::to_json(&spans, Json::Obj(context.clone())).to_string_compact();
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, file));
        ledger.check(written.map_err(|e| format!("write {}: {e}", path.display())));
        println!("span file: {}", path.display());
    } else {
        for ((name, value), (_, unit)) in end_to_end(&outcome).into_iter().zip(END_TO_END) {
            metrics.push((name.to_string(), value, unit));
        }
    }

    let (attempted, failed) = ledger.totals();
    let nonfinite: Vec<&str> =
        metrics.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.as_str()).collect();
    let correct = failed == 0 && attempted > 0 && nonfinite.is_empty();
    println!(
        "perfbench {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("  attempted {attempted}, failed {failed}");
    for note in ledger.notes() {
        println!("  failure: {note}");
    }
    if !nonfinite.is_empty() {
        println!("  not measured: {}", nonfinite.join(", "));
    }
    println!("context {}", Json::Obj(context).to_string_compact());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        let value = Json::Num(if v.is_finite() { *v } else { 0.0 });
                        let unit = Json::Str(u.to_string());
                        (n.clone(), Json::Obj(vec![("value".into(), value), ("unit".into(), unit)]))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload `runs` times in child processes, one seed each, and
/// prints each metric's median and quartile spread.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = out.ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let last = text.lines().last()?.to_string();
            Some((o.status.success(), graphalign_json::from_str(&last).ok()?))
        });
        let Some((success, json)) = parsed else {
            println!("run {i} (seed {seed}): no result");
            ok = false;
            continue;
        };
        ok &= success;
        let Some(Json::Obj(metrics)) = json.get("metrics") else { continue };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            match series.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => series.push((name.clone(), unit, vec![value])),
            }
        }
        println!("run {i} (seed {seed}): {}", if success { "ok" } else { "FAILED" });
    }
    println!("{:<28} {:>14} {:>14} {:>14} {:>8}  unit", "metric", "q1", "median", "q3", "spread");
    for (name, unit, values) in &series {
        if values.len() < 2 {
            continue;
        }
        let (q1, med, q3) = stats::quartiles(values);
        println!(
            "{name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>7.2}%  {unit}",
            100.0 * stats::spread(values)
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.steady {
        Some(runs) => steady(&args, runs),
        None => run_once(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let ok = parse_args(&strings(&[
            "--workload",
            "serve-warm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve-warm", 3, 10.0, true)
        );
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
            &["--workload", "paper-grid", "--seed", "x", "--seconds", "1", "--trace", "0"],
            &["--workload", "paper-grid", "--seed", "1", "--seconds", "0", "--trace", "0"],
            &["--workload", "paper-grid", "--seed", "1", "--seconds", "1", "--trace", "2"],
            &["--workload", "paper-grid", "--seed", "1", "--seconds", "1"],
            &["--workload", "paper-grid", "--seed", "1", "--seconds", "1", "--trace", "0", "--x"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = graphalign_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
