//! Implementation of the `graphalign` command-line tool.
//!
//! Subcommands:
//!
//! * `align` — align two edge-list graphs with any of the nine algorithms
//!   and any assignment method, writing a `source target` mapping file;
//! * `generate` — emit a synthetic benchmark graph (ER/BA/WS/NW/PL);
//! * `perturb` — apply the benchmark protocol (permute + noise) to a graph,
//!   writing the target graph and the ground-truth mapping;
//! * `score` — evaluate a mapping file against a ground truth and/or the
//!   structural measures.
//!
//! The argument grammar is deliberately tiny (`--flag value` pairs), so the
//! tool has no dependency beyond the workspace crates.

use graphalign::{registry, Aligner};
use graphalign_assignment::AssignmentMethod;
use graphalign_graph::{io, Graph};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Write};

/// A parsed `--flag value` argument list.
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs; returns an error message on stray tokens.
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {tok:?}"))?;
            let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.to_string();
            flags.insert(key.to_string(), value);
        }
        Ok(Self { flags })
    }

    /// Required flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.flags.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing --{key}"))
    }

    /// Optional flag with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Optional numeric flag.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

/// Looks up an aligner by case-insensitive name.
pub fn find_aligner(name: &str) -> Result<Box<dyn Aligner + Send + Sync>, String> {
    registry().into_iter().find(|a| a.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        let names: Vec<&str> = registry_names();
        format!("unknown algorithm {name:?}; available: {}", names.join(", "))
    })
}

/// The canonical algorithm names.
pub fn registry_names() -> Vec<&'static str> {
    registry().iter().map(|a| a.name()).collect()
}

/// Parses an assignment method label.
pub fn parse_assignment(label: &str) -> Result<AssignmentMethod, String> {
    AssignmentMethod::parse_label(label)
}

/// Reads an edge-list graph from a path.
pub fn read_graph(path: &str) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    io::read_edge_list(BufReader::new(file)).map(|p| p.graph).map_err(|e| format!("{path}: {e}"))
}

/// `align` subcommand.
pub fn cmd_align(args: &Args) -> Result<String, String> {
    let aligner = find_aligner(args.require("algorithm")?)?;
    let source = read_graph(args.require("source")?)?;
    let target = read_graph(args.require("target")?)?;
    let method = parse_assignment(args.get_or("assignment", "jv"))?;
    let timeout: f64 = args.get_parse("timeout", 0.0)?;
    if timeout < 0.0 || !timeout.is_finite() {
        return Err("--timeout needs a non-negative number of seconds".into());
    }
    // A cooperative deadline: the iterative solvers poll it at iteration
    // boundaries, so an oversized instance fails cleanly instead of hanging.
    let _budget = (timeout > 0.0).then(|| {
        graphalign_par::budget::install(Some(std::time::Duration::from_secs_f64(timeout)))
    });
    let alignment = aligner.align_with(&source, &target, method).map_err(|e| {
        if e.is_interrupted() {
            format!("alignment exceeded --timeout {timeout}s: {e}")
        } else {
            format!("alignment failed: {e}")
        }
    })?;
    let mut out = String::new();
    for (u, &v) in alignment.iter().enumerate() {
        out.push_str(&format!("{u} {v}\n"));
    }
    if let Some(path) = args.flags.get("out") {
        let mut f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        f.write_all(out.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
        Ok(format!(
            "aligned {} nodes with {} + {}; mapping written to {path}",
            alignment.len(),
            aligner.name(),
            method.label()
        ))
    } else {
        Ok(out)
    }
}

/// `generate` subcommand.
pub fn cmd_generate(args: &Args) -> Result<String, String> {
    let model = args.require("model")?;
    let n: usize = args.get_parse("n", 1000)?;
    let seed: u64 = args.get_parse("seed", 2023)?;
    let graph = match model.to_ascii_lowercase().as_str() {
        "er" => graphalign_gen::erdos_renyi(n, args.get_parse("p", 0.009)?, seed),
        "ba" => graphalign_gen::barabasi_albert(n, args.get_parse("m", 5)?, seed),
        "ws" => graphalign_gen::watts_strogatz(
            n,
            args.get_parse("k", 10)?,
            args.get_parse("p", 0.5)?,
            seed,
        ),
        "nw" => graphalign_gen::newman_watts(
            n,
            args.get_parse("k", 7)?,
            args.get_parse("p", 0.5)?,
            seed,
        ),
        "pl" => graphalign_gen::powerlaw_cluster(
            n,
            args.get_parse("m", 5)?,
            args.get_parse("p", 0.5)?,
            seed,
        ),
        other => return Err(format!("unknown model {other:?}; use er|ba|ws|nw|pl")),
    };
    let path = args.require("out")?;
    let mut f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    io::write_edge_list(&graph, &mut f).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!(
        "wrote {model} graph: {} nodes, {} edges -> {path}",
        graph.node_count(),
        graph.edge_count()
    ))
}

/// `perturb` subcommand.
pub fn cmd_perturb(args: &Args) -> Result<String, String> {
    use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
    let graph = read_graph(args.require("input")?)?;
    let model = match args.get_or("noise", "one-way").to_ascii_lowercase().as_str() {
        "one-way" => NoiseModel::OneWay,
        "multi-modal" => NoiseModel::MultiModal,
        "two-way" => NoiseModel::TwoWay,
        other => return Err(format!("unknown noise {other:?}")),
    };
    let level: f64 = args.get_parse("level", 0.05)?;
    let seed: u64 = args.get_parse("seed", 2023)?;
    let instance = make_instance(&graph, &NoiseConfig::new(model, level), seed);
    let target_path = args.require("out-target")?;
    let mut f = File::create(target_path).map_err(|e| format!("{target_path}: {e}"))?;
    io::write_edge_list(&instance.target, &mut f).map_err(|e| e.to_string())?;
    let truth_path = args.require("out-truth")?;
    let mut f = File::create(truth_path).map_err(|e| format!("{truth_path}: {e}"))?;
    for (u, &v) in instance.ground_truth.iter().enumerate() {
        writeln!(f, "{u} {v}").map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "perturbed ({} at {level}): target -> {target_path}, truth -> {truth_path}",
        model.label()
    ))
}

/// Reads a `source target` mapping file.
pub fn read_mapping(path: &str, n: usize) -> Result<Vec<usize>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut map = vec![usize::MAX; n];
    for (lineno, line) in text.lines().enumerate() {
        let mut parts = line.split_whitespace();
        let u: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("{path}:{}: bad mapping line", lineno + 1))?;
        let v: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("{path}:{}: bad mapping line", lineno + 1))?;
        if u >= n {
            return Err(format!("{path}:{}: node {u} out of range", lineno + 1));
        }
        map[u] = v;
    }
    if map.contains(&usize::MAX) {
        return Err(format!("{path}: mapping does not cover all {n} source nodes"));
    }
    Ok(map)
}

/// `score` subcommand.
pub fn cmd_score(args: &Args) -> Result<String, String> {
    let source = read_graph(args.require("source")?)?;
    let target = read_graph(args.require("target")?)?;
    let mapping = read_mapping(args.require("mapping")?, source.node_count())?;
    let mut out = String::new();
    if let Some(truth_path) = args.flags.get("truth") {
        let truth = read_mapping(truth_path, source.node_count())?;
        out.push_str(&format!("accuracy: {:.4}\n", graphalign_metrics::accuracy(&mapping, &truth)));
    }
    out.push_str(&format!("MNC: {:.4}\n", graphalign_metrics::mnc(&source, &target, &mapping)));
    out.push_str(&format!(
        "EC: {:.4}\n",
        graphalign_metrics::edge_correctness(&source, &target, &mapping)
    ));
    out.push_str(&format!(
        "ICS: {:.4}\n",
        graphalign_metrics::induced_conserved_structure(&source, &target, &mapping)
    ));
    out.push_str(&format!("S3: {:.4}\n", graphalign_metrics::s3(&source, &target, &mapping)));
    Ok(out)
}

/// `serve` subcommand: runs the resident alignment server until it is shut
/// down over the protocol (`POST /shutdown`).
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    let timeout: f64 = args.get_parse("timeout", 0.0)?;
    if timeout < 0.0 || !timeout.is_finite() {
        return Err("--timeout needs a non-negative number of seconds".into());
    }
    let io_timeout: f64 = args.get_parse("io-timeout", 10.0)?;
    if io_timeout < 0.0 || !io_timeout.is_finite() {
        return Err("--io-timeout needs a non-negative number of seconds".into());
    }
    let defaults = graphalign_serve::ServeConfig::default();
    let config = graphalign_serve::ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:7464").to_string(),
        workers: args.get_parse("workers", 2)?,
        cache_bytes: args.get_parse("cache-bytes", 256u64 << 20)?,
        cache_dir: args.flags.get("cache-dir").map(std::path::PathBuf::from),
        default_timeout: (timeout > 0.0).then(|| std::time::Duration::from_secs_f64(timeout)),
        max_queued: args.get_parse("max-queued", defaults.max_queued)?,
        max_inflight_bytes: args.get_parse("max-inflight-bytes", defaults.max_inflight_bytes)?,
        job_retries: args.get_parse("job-retries", defaults.job_retries)?,
        io_timeout: (io_timeout > 0.0).then(|| std::time::Duration::from_secs_f64(io_timeout)),
        max_body_bytes: args.get_parse("max-body-bytes", defaults.max_body_bytes)?,
    };
    let server =
        graphalign_serve::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();
    eprintln!("graphalign serve: listening on {addr} (POST /shutdown to stop)");
    server.wait();
    Ok(format!("graphalign serve: {addr} shut down cleanly"))
}

/// Top-level dispatch; returns the message to print or an error. An `Err`
/// maps to exit code 2, so explicitly requested help returns `Ok`: asking
/// for usage is not a usage error.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (cmd, rest) = argv.split_first().ok_or_else(usage)?;
    if matches!(cmd.as_str(), "--help" | "-h" | "help")
        || rest.iter().any(|a| a == "--help" || a == "-h")
    {
        return Ok(usage());
    }
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "align" => cmd_align(&args),
        "generate" => cmd_generate(&args),
        "perturb" => cmd_perturb(&args),
        "score" => cmd_score(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    format!(
        "graphalign — unrestricted graph alignment (EDBT 2023 study)\n\
         \n\
         usage:\n\
         graphalign align    --algorithm <name> --source <a.txt> --target <b.txt>\n\
         [--assignment nn|sg|hun|jv|mwm] [--out mapping.txt] [--timeout <secs>]\n\
         graphalign generate --model er|ba|ws|nw|pl --n <nodes> --out <g.txt>\n\
         [--p <prob>] [--m <edges>] [--k <neighbors>] [--seed <u64>]\n\
         graphalign perturb  --input <g.txt> --out-target <t.txt> --out-truth <truth.txt>\n\
         [--noise one-way|multi-modal|two-way] [--level <f64>] [--seed <u64>]\n\
         graphalign score    --source <a.txt> --target <b.txt> --mapping <m.txt> [--truth <t.txt>]\n\
         graphalign serve    [--addr 127.0.0.1:7464] [--workers <n>] [--timeout <secs>]\n\
         [--cache-bytes <n>] [--cache-dir <dir>] [--max-queued <n>]\n\
         [--max-inflight-bytes <n>] [--job-retries <n>] [--io-timeout <secs>]\n\
         [--max-body-bytes <n>]\n\
         \n\
         algorithms: {}",
        registry_names().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flag_pairs() {
        let raw: Vec<String> =
            ["--algorithm", "GRASP", "--n", "42"].iter().map(|s| s.to_string()).collect();
        let a = Args::parse(&raw).unwrap();
        assert_eq!(a.require("algorithm").unwrap(), "GRASP");
        assert_eq!(a.get_parse::<usize>("n", 0).unwrap(), 42);
        assert_eq!(a.get_or("missing", "x"), "x");
    }

    #[test]
    fn args_reject_stray_tokens_and_missing_values() {
        assert!(Args::parse(&["stray".to_string()]).is_err());
        assert!(Args::parse(&["--flag".to_string()]).is_err());
    }

    #[test]
    fn aligner_lookup_is_case_insensitive() {
        assert_eq!(find_aligner("grasp").unwrap().name(), "GRASP");
        assert_eq!(find_aligner("s-gwl").unwrap().name(), "S-GWL");
        assert!(find_aligner("nope").is_err());
    }

    #[test]
    fn assignment_labels_parse() {
        assert_eq!(parse_assignment("JV").unwrap(), AssignmentMethod::JonkerVolgenant);
        assert_eq!(parse_assignment("mwm").unwrap(), AssignmentMethod::Auction);
        assert!(parse_assignment("zz").is_err());
    }

    #[test]
    fn end_to_end_generate_perturb_align_score() {
        let dir = std::env::temp_dir().join(format!("graphalign-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().to_string();
        let sv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();

        // generate
        let msg = run(&sv(&[
            "generate",
            "--model",
            "pl",
            "--n",
            "120",
            "--out",
            &p("g.txt"),
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(msg.contains("120 nodes"));
        // perturb
        run(&sv(&[
            "perturb",
            "--input",
            &p("g.txt"),
            "--out-target",
            &p("t.txt"),
            "--out-truth",
            &p("truth.txt"),
            "--level",
            "0.02",
            "--seed",
            "6",
        ]))
        .unwrap();
        // align
        let msg = run(&sv(&[
            "align",
            "--algorithm",
            "GRASP",
            "--source",
            &p("g.txt"),
            "--target",
            &p("t.txt"),
            "--out",
            &p("map.txt"),
        ]))
        .unwrap();
        assert!(msg.contains("GRASP"));
        // score
        let report = run(&sv(&[
            "score",
            "--source",
            &p("g.txt"),
            "--target",
            &p("t.txt"),
            "--mapping",
            &p("map.txt"),
            "--truth",
            &p("truth.txt"),
        ]))
        .unwrap();
        assert!(report.contains("accuracy:"));
        assert!(report.contains("S3:"));
        // The accuracy line parses to a sane value.
        let acc: f64 = report
            .lines()
            .find(|l| l.starts_with("accuracy:"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn align_with_expired_timeout_fails_cleanly() {
        let dir = std::env::temp_dir().join(format!("graphalign-cli-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().to_string();
        let sv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        run(&sv(&["generate", "--model", "ws", "--n", "60", "--k", "6", "--out", &p("g.txt")]))
            .unwrap();
        // IsoRank's power iteration polls the budget; NSD's similarity does
        // not, so only the assignment phase sees it expire, and JV's
        // budget-stopped matching must not be printed as a result.
        for algorithm in ["IsoRank", "NSD"] {
            let err = run(&sv(&[
                "align",
                "--algorithm",
                algorithm,
                "--source",
                &p("g.txt"),
                "--target",
                &p("g.txt"),
                "--timeout",
                "0.000001",
            ]))
            .unwrap_err();
            assert!(err.contains("--timeout"), "{algorithm}: {err}");
        }
        assert!(run(&sv(&[
            "align",
            "--algorithm",
            "IsoRank",
            "--source",
            &p("g.txt"),
            "--target",
            &p("g.txt"),
            "--timeout",
            "-1"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = run(&["bogus".to_string()]).unwrap_err();
        assert!(err.contains("usage"));
    }
}

#[cfg(test)]
mod algorithm_smoke {
    use super::*;

    /// Every registry algorithm survives the CLI align path on a small
    /// generated instance (REGAL/CONE exercise their embedding branches).
    #[test]
    fn cli_align_smoke_for_fast_algorithms() {
        let dir = std::env::temp_dir().join(format!("graphalign-cli-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().to_string();
        let sv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        run(&sv(&["generate", "--model", "ws", "--n", "60", "--k", "6", "--out", &p("g.txt")]))
            .unwrap();
        run(&sv(&[
            "perturb",
            "--input",
            &p("g.txt"),
            "--out-target",
            &p("t.txt"),
            "--out-truth",
            &p("truth.txt"),
            "--level",
            "0.0",
        ]))
        .unwrap();
        for algo in ["NSD", "REGAL", "LREA", "IsoRank"] {
            let msg = run(&sv(&[
                "align",
                "--algorithm",
                algo,
                "--source",
                &p("g.txt"),
                "--target",
                &p("t.txt"),
                "--out",
                &p("map.txt"),
                "--assignment",
                "sg",
            ]))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(msg.contains(algo), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
