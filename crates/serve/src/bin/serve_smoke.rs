//! `serve-smoke` — end-to-end smoke test: train a tiny model, write a
//! snapshot, load it back, start the server, exercise every endpoint over
//! real sockets (asserting the batching determinism contract), then shut
//! down gracefully. Exits non-zero on any failure.

use std::net::SocketAddr;

use cohortnet::snapshot::load_snapshot;
use cohortnet_serve::client::{
    instance_body, request_with_retry, score_body, Response, RetryPolicy,
};
use cohortnet_serve::{demo, serve, EngineConfig, ServerConfig};

/// Fires one HTTP request through the retrying client (capped backoff on
/// transient 408/429/503).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    request_with_retry(addr, method, path, body, RetryPolicy::default())
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Extracts the rendered prediction objects from a `/score` response body.
fn predictions(body: &str) -> Vec<String> {
    let inner = body
        .strip_prefix("{\"predictions\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .unwrap_or_else(|| panic!("unexpected /score body: {body}"));
    // Predictions are flat objects (no nested braces), so splitting on
    // "},{" is safe.
    inner
        .split("},{")
        .map(|s| {
            let s = s.strip_prefix('{').unwrap_or(s);
            let s = s.strip_suffix('}').unwrap_or(s);
            s.to_string()
        })
        .collect()
}

fn main() {
    let snapshot_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/serve-smoke.cns".to_string());
    // Mirror log lines into memory so we can assert the served request id
    // shows up in the structured log.
    let log_capture = cohortnet_obs::log::capture_start();

    eprintln!("serve-smoke: training demo model...");
    let bundle = demo::demo_bundle();
    std::fs::write(&snapshot_path, &bundle.snapshot).expect("write snapshot");
    let text = std::fs::read_to_string(&snapshot_path).expect("read snapshot back");
    assert_eq!(text, bundle.snapshot, "snapshot drifted through the disk");
    let loaded = load_snapshot(&text).expect("snapshot loads");
    assert!(
        loaded.model.discovery.is_some(),
        "demo model has no cohorts"
    );

    let server = serve(
        loaded,
        ServerConfig {
            port: 0,
            engine: EngineConfig {
                max_batch: 8,
                max_delay_us: 1_000,
                threads: 0,
                queue_cap: 64,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    eprintln!("serve-smoke: serving on {addr}");

    // /healthz
    let Response { status, body, .. } = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {body}");
    assert!(body.contains("\"status\":\"ok\""), "healthz body: {body}");
    assert!(
        body.contains("\"has_cohorts\":true"),
        "healthz body: {body}"
    );

    // /score: one instance alone, then all eight in one request — the
    // determinism contract says each row renders identically either way.
    let solo: Vec<String> = bundle
        .examples
        .iter()
        .map(|e| {
            let Response { status, body, .. } =
                request(addr, "POST", "/score", &score_body(std::slice::from_ref(e)));
            assert_eq!(status, 200, "solo score: {body}");
            predictions(&body).remove(0)
        })
        .collect();
    let batch = request(addr, "POST", "/score", &score_body(&bundle.examples));
    assert_eq!(batch.status, 200, "batch score: {}", batch.body);
    // Every response carries a request id, and the same id appears in the
    // structured request log.
    let rid = batch
        .header("X-Request-Id")
        .unwrap_or_else(|| panic!("no X-Request-Id header in: {}", batch.head))
        .to_string();
    assert!(!rid.is_empty(), "empty X-Request-Id");
    let logged = log_capture.contents();
    assert!(
        logged.contains(&rid),
        "request id {rid} not found in captured log:\n{logged}"
    );
    let batched = predictions(&batch.body);
    assert_eq!(batched.len(), bundle.examples.len());
    for (i, (s, b)) in solo.iter().zip(&batched).enumerate() {
        assert_eq!(s, b, "instance {i} scored differently alone vs batched");
    }

    // /score input validation.
    let Response { status, body, .. } = request(
        addr,
        "POST",
        "/score",
        "{\"instances\":[{\"x\":[1],\"mask\":[1]}]}",
    );
    assert_eq!(status, 400, "short instance must be rejected: {body}");
    let Response { status, .. } = request(addr, "POST", "/score", "not json");
    assert_eq!(status, 400);

    // /explain
    let explain_body = instance_body(&bundle.examples[0]);
    let Response { status, body, .. } = request(addr, "POST", "/explain", &explain_body);
    assert_eq!(status, 200, "explain: {body}");
    assert!(body.contains("\"base_prob\""), "explain body: {body}");
    assert!(body.contains("\"cohorts\""), "explain body: {body}");

    // /cohorts
    let Response { status, body, .. } = request(addr, "GET", "/cohorts", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"has_cohorts\":true"),
        "cohorts body: {body}"
    );

    // 404 and 405 paths.
    let Response { status, .. } = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let Response { status, .. } = request(addr, "GET", "/score", "");
    assert_eq!(status, 405);

    // /metrics: the unified registry exposes request counters plus the
    // stage histograms (queue wait vs batch compute).
    let Response { status, body, .. } = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        "cohortnet_requests_total",
        "cohortnet_batch_size_bucket",
        "cohortnet_queue_wait_us_bucket",
        "cohortnet_batch_compute_us_bucket",
        "cohortnet_queue_depth",
    ] {
        assert!(
            body.contains(family),
            "{family} missing from /metrics: {body}"
        );
    }

    // Graceful shutdown.
    let Response { status, .. } = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join();
    drop(log_capture);
    println!("serve-smoke: ok");
}
