//! End-to-end tests of the serving layer: upload a graph pair over HTTP,
//! run the same query cold and warm, and verify the warm run is served from
//! the keyed similarity cache — `cache_hits: 1` in the response telemetry,
//! no `"similarity"` phase span, and a mapping bit-identical to the cold
//! run — then shut the server down cleanly.

use graphalign_json::Json;
use graphalign_serve::{http, start, ServeConfig};
use std::time::Duration;

fn post(addr: &str, path: &str, body: &[u8]) -> Json {
    let resp = http::request(addr, "POST", path, body).expect("request");
    assert_eq!(resp.status, 200, "POST {path}: {}", resp.body);
    resp.json()
}

fn upload(addr: &str, g: &graphalign_graph::Graph) -> String {
    let mut text = Vec::new();
    graphalign_graph::io::write_edge_list(g, &mut text).expect("serialize");
    post(addr, "/graphs", &text).get("id").and_then(Json::as_str).expect("graph id").to_string()
}

/// The statuses of a job that has not ended.
const UNFINISHED: &[&str] = &["queued", "running"];

fn status(job: &Json) -> &str {
    job.get("status").and_then(Json::as_str).expect("status")
}

/// Polls job `id` until its status is none of `pending`; returns the job.
fn poll_job(addr: &str, id: usize, pending: &[&str]) -> Json {
    for _ in 0..60_000 {
        let resp = http::request(addr, "GET", &format!("/jobs/{id}"), b"").expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let job = resp.json();
        if !pending.contains(&status(&job)) {
            return job;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("job {id} stayed {pending:?}");
}

fn wait_done(addr: &str, id: usize) -> Json {
    let job = poll_job(addr, id, UNFINISHED);
    assert_eq!(status(&job), "done", "job {id}: {job:?}");
    job
}

fn submit(addr: &str, src: &str, tgt: &str, algorithm: &str, assignment: &str) -> usize {
    let body = format!(
        "{{\"source\":{src:?},\"target\":{tgt:?},\"algorithm\":{algorithm:?},\"assignment\":{assignment:?}}}"
    );
    post(addr, "/jobs", body.as_bytes()).get("job").and_then(Json::as_f64).expect("job id") as usize
}

fn ops_counter(body: &Json, name: &str) -> u64 {
    body.get("telemetry")
        .and_then(|t| t.get("ops"))
        .and_then(|o| o.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

fn has_phase(body: &Json, name: &str) -> bool {
    body.get("telemetry").and_then(|t| t.get("phases")).and_then(|p| p.get(name)).is_some()
}

fn test_pair() -> (graphalign_graph::Graph, graphalign_graph::Graph) {
    let source = graphalign_gen::powerlaw_cluster(80, 3, 0.3, 11);
    let instance = graphalign_noise::make_instance(
        &source,
        &graphalign_noise::NoiseConfig::new(graphalign_noise::NoiseModel::OneWay, 0.02),
        12,
    );
    (source, instance.target)
}

#[test]
fn warm_queries_skip_the_similarity_phase_for_embedding_algorithms() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &target);

    // The acceptance set: every embedding-family algorithm the issue names.
    for algorithm in ["REGAL", "CONE", "GRASP", "LREA"] {
        let cold = wait_done(&addr, submit(&addr, &src, &tgt, algorithm, "nn"));
        assert_eq!(ops_counter(&cold, "cache_misses"), 1, "{algorithm} cold run misses");
        assert_eq!(ops_counter(&cold, "cache_hits"), 0, "{algorithm}");
        assert!(has_phase(&cold, "similarity"), "{algorithm} cold run computes");

        let warm = wait_done(&addr, submit(&addr, &src, &tgt, algorithm, "nn"));
        assert_eq!(ops_counter(&warm, "cache_hits"), 1, "{algorithm} warm run hits");
        assert_eq!(ops_counter(&warm, "cache_misses"), 0, "{algorithm}");
        assert!(ops_counter(&warm, "cache_bytes") > 0, "{algorithm}");
        assert!(
            !has_phase(&warm, "similarity"),
            "{algorithm} warm run must skip the similarity phase entirely"
        );
        assert!(has_phase(&warm, "assignment"), "{algorithm} still assigns");
        assert_eq!(
            warm.get("mapping"),
            cold.get("mapping"),
            "{algorithm}: warm mapping must be bit-identical to cold"
        );
    }

    let stats = http::request(&addr, "GET", "/stats", b"").expect("stats").json();
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(4.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(4.0));

    server.shutdown();
    server.wait();
}

#[test]
fn warm_hits_survive_across_assignment_methods_and_respect_auction_variant() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &target);

    let cold = wait_done(&addr, submit(&addr, &src, &tgt, "REGAL", "jv"));
    assert_eq!(ops_counter(&cold, "cache_misses"), 1);
    // A different (non-auction) method reuses the same cached similarity.
    let warm = wait_done(&addr, submit(&addr, &src, &tgt, "REGAL", "sg"));
    assert_eq!(ops_counter(&warm, "cache_hits"), 1, "generic methods share one entry");
    // Auction may use a different representation, so it gets its own slot.
    let auction = wait_done(&addr, submit(&addr, &src, &tgt, "REGAL", "mwm"));
    assert_eq!(ops_counter(&auction, "cache_misses"), 1, "auction variant is keyed apart");

    server.shutdown();
    server.wait();
}

#[test]
fn uploading_the_same_structure_twice_reuses_the_graph_id() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let g = graphalign_gen::powerlaw_cluster(40, 3, 0.3, 5);
    let id1 = upload(&addr, &g);
    let id2 = upload(&addr, &g);
    assert_eq!(id1, id2, "content digest collapses identical uploads");
    server.shutdown();
    server.wait();
}

#[test]
fn bad_requests_get_400s_and_unknown_jobs_404() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let bad = http::request(&addr, "POST", "/jobs", b"{\"source\":\"x\"}").expect("request");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let missing = http::request(&addr, "GET", "/jobs/999", b"").expect("request");
    assert_eq!(missing.status, 404);
    let nowhere = http::request(&addr, "GET", "/nope", b"").expect("request");
    assert_eq!(nowhere.status, 404);
    server.shutdown();
    server.wait();
}

#[test]
fn healthz_is_ready_and_clean_jobs_carry_no_error_metadata() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();

    let health = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    let body = health.json();
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(body.get("cache_integrity_ok").and_then(Json::as_bool), Some(true));

    let (source, target) = test_pair();
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &target);
    let done = wait_done(&addr, submit(&addr, &src, &tgt, "REGAL", "nn"));
    // A first-try success is reported without retry or failure metadata.
    assert_eq!(
        done.get("attempts").and_then(Json::as_f64),
        Some(1.0),
        "clean job must succeed on its single attempt"
    );
    assert!(done.get("error_class").is_none(), "clean job must not carry an error class");

    let health = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200, "still ready after serving work: {}", health.body);

    let stats = http::request(&addr, "GET", "/stats", b"").expect("stats").json();
    let resilience = stats.get("resilience").expect("resilience block");
    for counter in ["retries", "panics_contained", "rejected_429"] {
        assert_eq!(
            resilience.get(counter).and_then(Json::as_f64),
            Some(0.0),
            "{counter} must stay zero on a clean run"
        );
    }

    server.shutdown();
    server.wait();
}

#[test]
fn a_tiny_timeout_reports_timeout_not_success() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &target);
    let body = format!(
        "{{\"source\":{src:?},\"target\":{tgt:?},\"algorithm\":\"IsoRank\",\
         \"assignment\":\"nn\",\"timeout\":1e-6}}"
    );
    let id =
        post(&addr, "/jobs", body.as_bytes()).get("job").and_then(Json::as_f64).unwrap() as usize;
    assert_eq!(status(&poll_job(&addr, id, UNFINISHED)), "timeout");
    server.shutdown();
    server.wait();
}

/// A warm job skips the similarity phase, so its budget can only trip
/// during assignment. The auction winds down and completes with its
/// fallback, JV and Hungarian stop at their next augmenting row; either
/// way the mapping may be degraded, and the job must not report `done`.
#[test]
fn a_budget_that_trips_during_assignment_reports_timeout() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &target);
    // Fill both cache variants (auction's and the generic one).
    for method in ["mwm", "jv"] {
        wait_done(&addr, submit(&addr, &src, &tgt, "IsoRank", method));
    }
    for method in ["mwm", "jv", "hun"] {
        let body = format!(
            "{{\"source\":{src:?},\"target\":{tgt:?},\"algorithm\":\"IsoRank\",\
             \"assignment\":{method:?},\"timeout\":1e-6}}"
        );
        let id = post(&addr, "/jobs", body.as_bytes()).get("job").and_then(Json::as_f64).unwrap();
        assert_eq!(status(&poll_job(&addr, id as usize, UNFINISHED)), "timeout", "warm {method}");
    }
    server.shutdown();
    server.wait();
}

/// Hungarian polls the job's budget once per row, so cancelling a warm job
/// that would solve for many seconds ends it `cancelled` within moments.
#[test]
fn cancelling_a_running_warm_hungarian_job_ends_it_promptly() {
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let source = graphalign_gen::powerlaw_cluster(1200, 3, 0.3, 21);
    let instance = graphalign_noise::make_instance(
        &source,
        &graphalign_noise::NoiseConfig::new(graphalign_noise::NoiseModel::OneWay, 0.0),
        22,
    );
    let src = upload(&addr, &source);
    let tgt = upload(&addr, &instance.target);
    // NSD's similarity is dense and quick to compute; a cold NN job caches
    // it, so the warm Hungarian job goes straight to a 1200 × 1200 solve.
    wait_done(&addr, submit(&addr, &src, &tgt, "NSD", "nn"));
    let id = submit(&addr, &src, &tgt, "NSD", "hun");
    assert_eq!(status(&poll_job(&addr, id, &["queued"])), "running", "job {id} ended uncancelled");
    std::thread::sleep(Duration::from_millis(50));
    let cancelled_at = std::time::Instant::now();
    post(&addr, &format!("/jobs/{id}/cancel"), b"");
    assert_eq!(status(&poll_job(&addr, id, UNFINISHED)), "cancelled");
    let waited = cancelled_at.elapsed();
    assert!(waited < Duration::from_secs(2), "cancel took {waited:?} to land");
    server.shutdown();
    server.wait();
}
