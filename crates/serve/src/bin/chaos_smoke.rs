//! `chaos-smoke` — seeded chaos harness over the full serving stack.
//!
//! One run drives two passes against identical servers (single-threaded
//! engine, sequential requests, so every chaos decision replays):
//!
//! 1. **Reference pass** — no faults; records every `/score` body.
//! 2. **Chaos pass** — installs a seeded [`ChaosPlan`] (worker panic,
//!    injected scoring latency, queue-saturation rejection, snapshot
//!    corruption at load) and additionally mutates client traffic with
//!    the seed-derived [`request_fault`] schedule (truncated bodies,
//!    oversized declarations, malformed JSON, mid-request stalls).
//!
//! Pass criteria, checked with asserts (non-zero exit on violation):
//!
//! * every non-faulted request answers `200` with a body **bit-identical**
//!   to the reference pass;
//! * every faulted request gets its typed degradation answer
//!   (400/408/413) — no hang, no connection left dangling;
//! * the injected snapshot corruption surfaces as a typed load error and
//!   the retry loads clean;
//! * at least five distinct fault kinds were actually injected;
//! * zero unhandled panics (worker panics are absorbed as engine
//!   restarts, visible on `/metrics`), and the whole run finishes inside
//!   a hard wall-clock budget.
//!
//! Usage: `chaos-smoke [seed] [log-path]` (defaults: seed 42,
//! `target/CHAOS_RUN_<seed>.log`). The log file is the CI artifact.

use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cohortnet::snapshot::load_snapshot;
use cohortnet_chaos::{install, request_fault, ChaosPlan, RequestFault, When};
use cohortnet_serve::client::{
    read_response, request, request_with_retry, score_body, RetryPolicy,
};
use cohortnet_serve::http::MAX_BODY_BYTES;
use cohortnet_serve::{demo, serve, EngineConfig, Server, ServerConfig};

/// Requests per pass: a clean warm-up (indices 0..8, so the server-side
/// `At` schedules below are reached for every seed), a seed-varied middle,
/// and one of each client fault kind at the tail.
const N_REQUESTS: u64 = 24;

/// Hard ceiling on the whole run — the "zero hangs" check.
const WALL_BUDGET: Duration = Duration::from_secs(120);

/// Bound on any single raw-socket read, so a server that stops answering
/// fails the run instead of wedging it.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// The per-request fault schedule — pure in `(seed, index)`.
fn fault_for(seed: u64, i: u64) -> RequestFault {
    match i {
        0..=7 => RequestFault::None,
        20 => RequestFault::TruncateBody,
        21 => RequestFault::OversizeBody,
        22 => RequestFault::MalformedJson,
        23 => RequestFault::StallMidRequest,
        _ => request_fault(seed, i, 0.45),
    }
}

/// A fresh single-threaded server over the shared demo snapshot.
fn start_server(snapshot: &str) -> Server {
    let loaded = load_snapshot(snapshot).expect("snapshot loads");
    serve(
        loaded,
        ServerConfig {
            port: 0,
            read_timeout_ms: 300,
            engine: EngineConfig {
                max_batch: 16,
                max_delay_us: 500,
                threads: 1,
                queue_cap: 64,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Reads one counter value from a `/metrics` body (the trailing space on
/// `family` keeps `# HELP` / `# TYPE` lines from matching).
fn metric_value(metrics_body: &str, family: &str) -> f64 {
    metrics_body
        .lines()
        .find_map(|line| line.strip_prefix(family)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Opens a raw connection with a bounded read timeout.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(SOCKET_TIMEOUT))
        .expect("set read timeout");
    stream
}

struct RunLog {
    lines: Vec<String>,
}

impl RunLog {
    fn line(&mut self, text: String) {
        eprintln!("{text}");
        self.lines.push(text);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .get(1)
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(42);
    let log_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| format!("target/CHAOS_RUN_{seed}.log"));
    // The harness owns the fault schedule; an inherited COHORTNET_CHAOS
    // plan would poison the reference pass.
    std::env::remove_var("COHORTNET_CHAOS");

    let t0 = Instant::now();
    let mut log = RunLog { lines: Vec::new() };
    log.line(format!("chaos-smoke: seed={seed} requests={N_REQUESTS}"));

    eprintln!("chaos-smoke: training demo model...");
    let bundle = demo::demo_bundle();
    let bodies: Vec<String> = (0..N_REQUESTS)
        .map(|i| {
            let e = &bundle.examples[(i as usize) % bundle.examples.len()];
            score_body(std::slice::from_ref(e))
        })
        .collect();

    // ---------------------------------------------------- reference pass
    let server = start_server(&bundle.snapshot);
    let reference: Vec<String> = bodies
        .iter()
        .map(|body| {
            let resp = request(server.addr(), "POST", "/score", body).expect("reference request");
            assert_eq!(resp.status, 200, "reference pass: {}", resp.body);
            resp.body
        })
        .collect();
    server.shutdown();
    log.line(format!(
        "reference pass: {} requests, all 200",
        reference.len()
    ));

    // -------------------------------------------------------- chaos pass
    // Server-side faults ride fixed call indices inside the clean warm-up
    // window, so every seed injects all four kinds; the seed only varies
    // the client-side middle of the schedule.
    let plan = ChaosPlan::new(seed)
        .site("snapshot.corrupt", When::At(vec![1]), 191)
        .site("infer.worker", When::At(vec![3]), 0)
        .site("infer.latency", When::At(vec![5]), 15)
        .site("engine.enqueue.reject", When::At(vec![6]), 0);
    let guard = install(plan);
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();

    // Snapshot corruption at load: the first load must fail with a typed
    // error, and the immediate retry (site fired already) must be clean.
    let load_err = load_snapshot(&bundle.snapshot)
        .err()
        .expect("injected snapshot corruption must be rejected");
    log.line(format!(
        "snapshot load rejected (injected corruption): {load_err}"
    ));
    kinds.insert("snapshot.corrupt");
    let server = start_server(&bundle.snapshot);
    let addr = server.addr();

    let retry = RetryPolicy {
        attempts: 4,
        base_ms: 10,
        max_ms: 100,
        seed,
    };
    let mut matched = 0usize;
    for (i, body) in bodies.iter().enumerate() {
        let fault = fault_for(seed, i as u64);
        let status = match fault {
            RequestFault::None => {
                let resp = request_with_retry(addr, "POST", "/score", body, retry)
                    .expect("non-faulted request");
                assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
                assert_eq!(
                    resp.body, reference[i],
                    "request {i} scored differently under chaos"
                );
                matched += 1;
                resp.status
            }
            RequestFault::TruncateBody => {
                // Declare the full length, send half, close the write side:
                // the server sees EOF mid-body and must answer 400.
                let mut c = raw_conn(addr);
                let head = format!(
                    "POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                c.write_all(head.as_bytes()).expect("write head");
                c.write_all(&body.as_bytes()[..body.len() / 2])
                    .expect("write half body");
                c.shutdown(Shutdown::Write).expect("close write side");
                let resp = read_response(&mut c).expect("truncation response");
                assert_eq!(resp.status, 400, "request {i}: {}", resp.body);
                kinds.insert("client.truncate");
                resp.status
            }
            RequestFault::OversizeBody => {
                let mut c = raw_conn(addr);
                let head = format!(
                    "POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    MAX_BODY_BYTES + 1
                );
                c.write_all(head.as_bytes()).expect("write head");
                let resp = read_response(&mut c).expect("oversize response");
                assert_eq!(resp.status, 413, "request {i}: {}", resp.body);
                kinds.insert("client.oversize");
                resp.status
            }
            RequestFault::MalformedJson => {
                let resp =
                    request(addr, "POST", "/score", "!!not-json{{").expect("malformed request");
                assert_eq!(resp.status, 400, "request {i}: {}", resp.body);
                kinds.insert("client.malformed");
                resp.status
            }
            RequestFault::StallMidRequest => {
                // Half a head, then silence: the configured 300ms read
                // timeout must answer 408 instead of pinning the handler.
                let stall_t0 = Instant::now();
                let mut c = raw_conn(addr);
                c.write_all(b"POST /score HTTP/1.1\r\nContent-Le")
                    .expect("partial write");
                let resp = read_response(&mut c).expect("stall response");
                assert_eq!(resp.status, 408, "request {i}: {}", resp.body);
                assert!(
                    stall_t0.elapsed() < Duration::from_secs(5),
                    "stalled request {i} waited {:?}",
                    stall_t0.elapsed()
                );
                kinds.insert("client.stall");
                resp.status
            }
        };
        log.line(format!("req {i:02} fault={fault:?} status={status}"));
    }

    // ------------------------------------------------- metrics + verdict
    let resp = request(addr, "GET", "/metrics", "").expect("/metrics");
    assert_eq!(resp.status, 200);
    let metrics = resp.body;
    server.shutdown();
    drop(guard);

    for (family, kind) in [
        (
            "cohortnet_chaos_injected_infer_worker_total ",
            "worker.panic",
        ),
        (
            "cohortnet_chaos_injected_infer_latency_total ",
            "scoring.latency",
        ),
        (
            "cohortnet_chaos_injected_engine_enqueue_reject_total ",
            "queue.reject",
        ),
    ] {
        let injected = metric_value(&metrics, family);
        assert!(injected >= 1.0, "{family} not injected: {injected}");
        kinds.insert(kind);
    }
    let restarts = metric_value(&metrics, "cohortnet_engine_restarts_total ");
    assert!(
        restarts >= 1.0,
        "worker panic was not absorbed as a restart"
    );
    let total = metric_value(&metrics, "cohortnet_chaos_injected_total ");
    log.line(format!(
        "metrics: chaos_injected_total={total} engine_restarts={restarts}"
    ));

    let non_faulted = (0..N_REQUESTS)
        .filter(|&i| fault_for(seed, i) == RequestFault::None)
        .count();
    assert_eq!(matched, non_faulted, "a non-faulted request went unmatched");
    assert!(
        kinds.len() >= 5,
        "only {} distinct fault kinds injected: {kinds:?}",
        kinds.len()
    );
    assert!(
        t0.elapsed() < WALL_BUDGET,
        "run exceeded the wall-clock budget: {:?}",
        t0.elapsed()
    );

    log.line(format!(
        "fault kinds injected ({}): {}",
        kinds.len(),
        kinds.iter().copied().collect::<Vec<_>>().join(", ")
    ));
    log.line(format!(
        "bit-identical non-faulted responses: {matched}/{non_faulted}"
    ));
    log.line(format!("elapsed: {:.2}s", t0.elapsed().as_secs_f64()));
    log.line(format!("chaos-smoke: ok (seed {seed})"));

    if let Some(dir) = std::path::Path::new(&log_path).parent() {
        std::fs::create_dir_all(dir).expect("create log dir");
    }
    std::fs::write(&log_path, log.lines.join("\n") + "\n").expect("write run log");
    println!("chaos-smoke: ok (seed {seed}, log at {log_path})");
}
