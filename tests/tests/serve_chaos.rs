//! Serve-layer chaos suite: every injectable fault class must yield the
//! right status code, a classified job error, the matching telemetry
//! counter — and a server that keeps serving bit-identical results
//! afterwards, at 1 and 8 solver threads alike.
//!
//! Fault arming uses the shared [`graphalign_par::fault`] spec, which is
//! process-global; every test grabs `FAULT_LOCK` so armed faults never
//! leak across concurrently running tests, and disarms before releasing.

use graphalign_json::Json;
use graphalign_par::fault;
use graphalign_serve::{http, start, ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes chaos tests (the fault spec and the solver thread count are
/// process-global).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn submit(addr: &str, src: &str, tgt: &str, algorithm: &str, timeout: Option<f64>) -> usize {
    let timeout = timeout.map_or(String::new(), |t| format!(",\"timeout\":{t}"));
    let body = format!(
        "{{\"source\":{src:?},\"target\":{tgt:?},\"algorithm\":{algorithm:?},\
         \"assignment\":\"nn\"{timeout}}}"
    );
    post(addr, "/jobs", body.as_bytes()).get("job").and_then(Json::as_f64).expect("job id") as usize
}

/// Polls job `id` to any terminal status.
fn wait_terminal(addr: &str, id: usize) -> Json {
    for _ in 0..60_000 {
        let resp = http::request(addr, "GET", &format!("/jobs/{id}"), b"").expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = resp.json();
        match body.get("status").and_then(Json::as_str).expect("status") {
            "queued" | "running" => std::thread::sleep(Duration::from_millis(1)),
            _ => return body,
        }
    }
    panic!("job {id} never reached a terminal status");
}

fn str_field<'a>(body: &'a Json, key: &str) -> &'a str {
    body.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num_field(body: &Json, path: &[&str]) -> f64 {
    let mut v = body;
    for key in path {
        v = v.get(key).unwrap_or(&Json::Null);
    }
    v.as_f64().unwrap_or(f64::NAN)
}

fn stats(addr: &str) -> Json {
    let resp = http::request(addr, "GET", "/stats", b"").expect("stats");
    assert_eq!(resp.status, 200);
    resp.json()
}

fn test_pair() -> (graphalign_graph::Graph, graphalign_graph::Graph) {
    let source = graphalign_gen::powerlaw_cluster(60, 3, 0.3, 21);
    let instance = graphalign_noise::make_instance(
        &source,
        &graphalign_noise::NoiseConfig::new(graphalign_noise::NoiseModel::OneWay, 0.02),
        22,
    );
    (source, instance.target)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphalign-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.wait();
}

/// Runs the same clean query at 1 and 8 solver threads and asserts the
/// mappings agree; returns the mapping. The determinism contract must hold
/// even right after a contained fault.
fn clean_job_bit_identical(addr: &str, src: &str, tgt: &str, algorithm: &str) -> Json {
    graphalign_par::set_max_threads(1);
    let at1 = wait_terminal(addr, submit(addr, src, tgt, algorithm, None));
    assert_eq!(str_field(&at1, "status"), "done", "clean follow-up job must succeed: {at1:?}");
    graphalign_par::set_max_threads(8);
    let at8 = wait_terminal(addr, submit(addr, src, tgt, algorithm, None));
    assert_eq!(str_field(&at8, "status"), "done");
    assert_eq!(
        at1.get("mapping"),
        at8.get("mapping"),
        "{algorithm}: mapping must be bit-identical at 1 and 8 threads"
    );
    at1.get("mapping").expect("mapping present").clone()
}

#[test]
fn injected_worker_panic_is_contained_classified_and_survivable() {
    let _guard = lock();
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));

    fault::set_for_test(Some("serve:worker:REGAL:panic"));
    let failed = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&failed, "status"), "error");
    assert_eq!(str_field(&failed, "error_class"), "panic");
    assert!(str_field(&failed, "error").contains("panicked"), "{failed:?}");
    assert_eq!(num_field(&failed, &["attempts"]), 1.0, "panics never retry");

    fault::set_for_test(None);
    // The pool survived: the counter moved, every worker is alive, and the
    // same query now completes deterministically.
    let s = stats(&addr);
    assert_eq!(num_field(&s, &["resilience", "panics_contained"]), 1.0);
    assert_eq!(num_field(&s, &["resilience", "workers_alive"]), num_field(&s, &["workers"]));
    clean_job_bit_identical(&addr, &src, &tgt, "REGAL");
    stop(server);
}

#[test]
fn injected_solver_stall_becomes_a_timeout_not_a_wedged_worker() {
    let _guard = lock();
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));

    fault::set_for_test(Some("serve:worker:IsoRank:stall"));
    let stalled = wait_terminal(&addr, submit(&addr, &src, &tgt, "IsoRank", Some(0.2)));
    assert_eq!(str_field(&stalled, "status"), "timeout", "{stalled:?}");
    assert_eq!(str_field(&stalled, "error_class"), "timeout");

    fault::set_for_test(None);
    clean_job_bit_identical(&addr, &src, &tgt, "IsoRank");
    stop(server);
}

#[test]
fn injected_numeric_failures_retry_with_backoff_until_exhausted() {
    let _guard = lock();
    let server = start(ServeConfig { job_retries: 2, ..ServeConfig::default() }).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));

    fault::set_for_test(Some("serve:worker:REGAL:numeric"));
    let failed = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&failed, "status"), "error");
    assert_eq!(str_field(&failed, "error_class"), "numeric");
    assert_eq!(num_field(&failed, &["attempts"]), 3.0, "1 try + 2 retries: {failed:?}");
    assert_eq!(num_field(&stats(&addr), &["resilience", "retries"]), 2.0);

    fault::set_for_test(None);
    // A fresh attempt (no fault) succeeds and retries stop accruing.
    let clean = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&clean, "status"), "done");
    assert_eq!(num_field(&clean, &["attempts"]), 1.0);
    assert_eq!(num_field(&stats(&addr), &["resilience", "retries"]), 2.0);
    stop(server);
}

#[test]
fn injected_cache_read_io_error_recomputes_without_quarantining() {
    let _guard = lock();
    let dir = temp_dir("io");
    let (source, target) = test_pair();

    // Warm the persisted cache, then stop the server so the next one must
    // go to disk.
    let first = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
        .expect("start");
    let addr = first.addr().to_string();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let baseline = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&baseline, "status"), "done");
    stop(first);

    let second = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
        .expect("start");
    let addr = second.addr().to_string();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    fault::set_for_test(Some("serve:cache:read:io"));
    let recomputed = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    fault::set_for_test(None);
    // An IO error is not corruption: the job recomputes and succeeds, the
    // io_errors counter moves, and nothing is quarantined.
    assert_eq!(str_field(&recomputed, "status"), "done");
    assert_eq!(recomputed.get("mapping"), baseline.get("mapping"), "recompute is bit-identical");
    let s = stats(&addr);
    assert!(num_field(&s, &["cache", "io_errors"]) >= 1.0, "{s:?}");
    assert_eq!(num_field(&s, &["cache", "quarantined"]), 0.0);
    clean_job_bit_identical(&addr, &src, &tgt, "REGAL");
    stop(second);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_cycles_ready_degraded_ready_across_a_torn_persisted_entry() {
    let _guard = lock();
    let dir = temp_dir("torn");
    let (source, target) = test_pair();

    // Round 1: a torn write (injected at the persist site) leaves half an
    // entry under the final name — exactly what the atomic rename protocol
    // prevents on the real path.
    let first = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
        .expect("start");
    let addr = first.addr().to_string();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let healthz = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(healthz.status, 200, "fresh server is ready: {}", healthz.body);
    fault::set_for_test(Some("serve:cache:persist:truncate"));
    let torn = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    fault::set_for_test(None);
    assert_eq!(str_field(&torn, "status"), "done", "a torn persist never fails the job");
    stop(first);

    // Round 2: a restarted server discovers the damage at startup —
    // degraded, never fatal — then heals by recomputing and re-persisting.
    let second = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
        .expect("start");
    let addr = second.addr().to_string();
    let degraded = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(degraded.status, 503, "startup scan must flag the torn entry: {}", degraded.body);
    let body = degraded.json();
    assert_eq!(str_field(&body, "status"), "degraded");
    assert_eq!(body.get("cache_integrity_ok"), Some(&Json::Bool(false)));
    let s = stats(&addr);
    assert_eq!(num_field(&s, &["cache", "quarantined"]), 1.0);
    assert_eq!(num_field(&s, &["cache", "pending_integrity"]), 1.0);

    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let healed = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&healed, "status"), "done");
    assert_eq!(healed.get("mapping"), torn.get("mapping"), "recompute is bit-identical");
    let ready = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(ready.status, 200, "re-persisting heals the cache: {}", ready.body);
    assert_eq!(num_field(&stats(&addr), &["cache", "pending_integrity"]), 0.0);
    clean_job_bit_identical(&addr, &src, &tgt, "REGAL");
    stop(second);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_answers_429_with_a_retry_after_and_drains() {
    let _guard = lock();
    // One worker and a one-slot queue: stall the worker so the queue holds,
    // then watch the third submission bounce with a Retry-After.
    let server =
        start(ServeConfig { workers: 1, max_queued: 1, ..ServeConfig::default() }).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));

    fault::set_for_test(Some("serve:worker:IsoRank:stall"));
    let running = submit(&addr, &src, &tgt, "IsoRank", Some(2.0));
    // Wait until the worker has picked it up so the next submission is the
    // one queued job.
    for _ in 0..10_000 {
        let body = wait_status(&addr, running);
        if body != "queued" {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = submit(&addr, &src, &tgt, "IsoRank", Some(2.0));

    let body = format!(
        "{{\"source\":{src:?},\"target\":{tgt:?},\"algorithm\":\"IsoRank\",\
         \"assignment\":\"nn\",\"timeout\":2.0}}"
    );
    let refused = http::request(&addr, "POST", "/jobs", body.as_bytes()).expect("submit");
    assert_eq!(refused.status, 429, "{}", refused.body);
    let retry_after: u64 = refused
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is whole seconds");
    assert!(retry_after >= 1);
    assert_eq!(num_field(&stats(&addr), &["resilience", "rejected_429"]), 1.0);

    // The stalled jobs drain as timeouts; afterwards admission reopens.
    fault::set_for_test(None);
    wait_terminal(&addr, running);
    wait_terminal(&addr, queued);
    let clean = wait_terminal(&addr, submit(&addr, &src, &tgt, "IsoRank", None));
    assert_eq!(str_field(&clean, "status"), "done");
    stop(server);
}

fn wait_status(addr: &str, id: usize) -> String {
    let resp = http::request(addr, "GET", &format!("/jobs/{id}"), b"").expect("poll");
    resp.json().get("status").and_then(Json::as_str).unwrap_or("").to_string()
}

#[test]
fn oversized_and_malformed_requests_get_413_and_400() {
    let _guard = lock();
    let server =
        start(ServeConfig { max_body_bytes: 1024, ..ServeConfig::default() }).expect("start");
    let addr = server.addr().to_string();
    let oversized = vec![b'x'; 4096];
    let resp = http::request(&addr, "POST", "/graphs", &oversized).expect("request");
    assert_eq!(resp.status, 413, "{}", resp.body);
    let bad = http::request(&addr, "POST", "/jobs", b"not json").expect("request");
    assert_eq!(bad.status, 400);
    // The server still serves after refusing both.
    let ok = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(ok.status, 200);
    stop(server);
}

#[test]
fn deeply_nested_job_body_gets_400_and_the_server_keeps_serving() {
    let _guard = lock();
    let server = start(ServeConfig::default()).expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let cold = clean_job_bit_identical(&addr, &src, &tgt, "REGAL");

    // 200 000 `[` bytes: 0.2 MB, far under the body cap, yet deep enough to
    // overflow a connection thread's stack if the parser recursed into it.
    let hostile = vec![b'['; 200_000];
    let resp = http::request(&addr, "POST", "/jobs", &hostile).expect("request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting"), "classified parse error: {}", resp.body);

    let healthz = http::request(&addr, "GET", "/healthz", b"").expect("server still up");
    assert_eq!(healthz.status, 200, "{}", healthz.body);
    assert_eq!(str_field(&healthz.json(), "status"), "ready");
    let warm = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    let hits = num_field(&warm, &["telemetry", "ops", "cache_hits"]);
    assert_eq!(hits, 1.0, "the follow-up query is a warm cache hit: {warm:?}");
    assert_eq!(warm.get("mapping"), Some(&cold), "warm mapping is bit-identical");
    assert_eq!(clean_job_bit_identical(&addr, &src, &tgt, "REGAL"), cold);
    stop(server);
}

#[test]
fn slow_loris_connections_get_408_and_release_their_thread() {
    let _guard = lock();
    let server = start(ServeConfig {
        io_timeout: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    })
    .expect("start");
    let addr = server.addr().to_string();

    // Open a connection, send half a request line, and stop.
    use std::io::{Read, Write};
    let mut loris = std::net::TcpStream::connect(&addr).expect("connect");
    loris.write_all(b"POST /graphs HT").expect("trickle");
    loris.flush().expect("flush");
    let mut response = String::new();
    loris.set_read_timeout(Some(Duration::from_secs(5))).expect("client deadline");
    loris.read_to_string(&mut response).expect("server must answer, not hang");
    assert!(response.starts_with("HTTP/1.1 408"), "got: {response:?}");

    // The handler thread is free again; normal traffic proceeds.
    let ok = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
    assert_eq!(ok.status, 200);
    stop(server);
}

/// Sends `bytes` on a fresh connection and returns everything the server
/// answers before closing.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.flush().expect("flush");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("client deadline");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("server must answer, not hang");
    response
}

/// After a refused request: `/healthz` reads `ready` and the warm query
/// still returns `cold`'s mapping, bit for bit at 1 and 8 threads.
fn assert_still_serving(addr: &str, src: &str, tgt: &str, cold: &Json) {
    let healthz = http::request(addr, "GET", "/healthz", b"").expect("server still up");
    assert_eq!(healthz.status, 200, "{}", healthz.body);
    assert_eq!(str_field(&healthz.json(), "status"), "ready");
    assert_eq!(&clean_job_bit_identical(addr, src, tgt, "REGAL"), cold);
}

#[test]
fn overlong_request_line_gets_414_at_the_cap_not_at_the_deadline() {
    let _guard = lock();
    let server =
        start(ServeConfig { io_timeout: Some(Duration::from_secs(2)), ..ServeConfig::default() })
            .expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let cold = clean_job_bit_identical(&addr, &src, &tgt, "REGAL");

    // One byte over the cap and no newline. The server has read every byte
    // it was sent when it answers, so closing its socket does not reset the
    // reply.
    let started = std::time::Instant::now();
    let response = raw_exchange(&addr, &vec![b'G'; http::MAX_LINE_BYTES + 1]);
    assert!(response.starts_with("HTTP/1.1 414 URI Too Long"), "got: {response:?}");
    assert!(started.elapsed() < Duration::from_secs(1), "answered at the cap, not the deadline");
    assert_still_serving(&addr, &src, &tgt, &cold);
    stop(server);
}

#[test]
fn header_flood_gets_431() {
    let _guard = lock();
    let server =
        start(ServeConfig { io_timeout: Some(Duration::from_secs(2)), ..ServeConfig::default() })
            .expect("start");
    let addr = server.addr().to_string();
    let (source, target) = test_pair();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let cold = clean_job_bit_identical(&addr, &src, &tgt, "REGAL");

    // One header line more than the cap, and nothing after it.
    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..=http::MAX_HEADERS {
        flood.extend_from_slice(format!("X-Flood-{i}: 1\r\n").as_bytes());
    }
    let response = raw_exchange(&addr, &flood);
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "got: {response:?}"
    );
    assert_still_serving(&addr, &src, &tgt, &cold);
    stop(server);
}

/// Satellite property test: *any* truncation or single-bit flip of a
/// persisted `similarity/v1` entry, and any crafted entry whose declared
/// shape is not the query's, must be quarantined and recomputed —
/// bit-identical mapping, never an error response, a panic or an abort.
/// Exhaustive prefix truncations are covered at the serialize unit level;
/// here a deterministic spread of corruptions runs through the full server
/// stack.
#[test]
fn any_persisted_corruption_yields_quarantine_and_bit_identical_recompute() {
    let _guard = lock();
    let dir = temp_dir("prop");
    let (source, target) = test_pair();

    // Produce one good persisted entry and a baseline mapping.
    let warm = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
        .expect("start");
    let addr = warm.addr().to_string();
    let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
    let baseline = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
    assert_eq!(str_field(&baseline, "status"), "done");
    stop(warm);

    let entry_path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(".sim.json"))
        .expect("one persisted entry");
    let pristine = std::fs::read(&entry_path).expect("read entry");

    // A deterministic spread of corruptions: truncations at several depths
    // and single-bit flips at several offsets (no RNG — the run must be
    // reproducible).
    let mut corruptions: Vec<Vec<u8>> = Vec::new();
    for frac in [0, 1, 3, 7] {
        corruptions.push(pristine[..pristine.len() * frac / 8].to_vec());
    }
    corruptions.push(pristine[..pristine.len() - 1].to_vec());
    for (i, bit) in [(0usize, 0u8), (pristine.len() / 2, 3), (pristine.len() - 2, 6)] {
        let mut flipped = pristine.clone();
        flipped[i] ^= 1 << bit;
        corruptions.push(flipped);
    }
    // Crafted entries with a valid envelope (right length, right checksum)
    // whose declared shape would size an allocation: 10¹⁸ sparse rows
    // (8·10¹⁸ bytes of offsets), 10³⁰ (saturates, so `rows + 1` wraps) and
    // a 2³² × 2³² dense matrix whose entry count wraps to its empty data.
    let sparse = |rows: &str| {
        format!(
            "{{\"format\":\"similarity/v1\",\"repr\":\"sparse\",\"rows\":{rows},\"cols\":2,\
             \"row_indices\":[],\"col_indices\":[],\"values\":[]}}"
        )
    };
    let dense = "{\"format\":\"similarity/v1\",\"repr\":\"dense\",\"matrix\":\
                 {\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}}";
    for payload in [sparse("1e18"), sparse("1e30"), dense.to_string()] {
        let checksum = graphalign_linalg::serialize::fnv1a_64(payload.as_bytes());
        let entry = format!(
            "{{\"format\":\"similarity/v1\",\"checksum\":\"{checksum:016x}\",\"bytes\":{}}}\n\
             {payload}\n",
            payload.len()
        );
        corruptions.push(entry.into_bytes());
    }

    for (case, corrupt) in corruptions.iter().enumerate() {
        std::fs::write(&entry_path, corrupt).expect("plant corruption");
        let server = start(ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() })
            .expect("start");
        let addr = server.addr().to_string();
        let (src, tgt) = (upload(&addr, &source), upload(&addr, &target));
        let job = wait_terminal(&addr, submit(&addr, &src, &tgt, "REGAL", None));
        assert_eq!(str_field(&job, "status"), "done", "case {case}: corruption must not error");
        assert_eq!(
            job.get("mapping"),
            baseline.get("mapping"),
            "case {case}: recomputed mapping must be bit-identical"
        );
        let s = stats(&addr);
        // Quarantined either by the startup scan (a broken envelope) or by
        // the read path (a well-formed entry of the wrong shape) — and
        // re-persisting healed it.
        assert!(num_field(&s, &["cache", "quarantined"]) >= 1.0, "case {case}: {s:?}");
        assert_eq!(num_field(&s, &["cache", "pending_integrity"]), 0.0, "case {case}");
        let healthz = http::request(&addr, "GET", "/healthz", b"").expect("healthz");
        assert_eq!(healthz.status, 200, "case {case}: healed server is ready");
        stop(server);
        // The healed entry is now pristine again for the next corruption.
    }
    std::fs::remove_dir_all(&dir).ok();
}
