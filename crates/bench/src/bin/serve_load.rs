//! Open-loop serving load harness — drives the event-loop server with
//! Poisson arrivals at a fixed target rate and records what the server
//! actually sustained.
//!
//! Unlike a closed-loop client (each waits for its response before
//! sending again, so a slow server silently slows the offered load), this
//! harness schedules request arrival times up front
//! from a seeded exponential inter-arrival process and measures every
//! latency from the *scheduled* arrival, not from the moment the socket
//! write happened — the coordinated-omission trap. The event loop itself
//! lives in [`cohortnet_bench::openloop`], shared with `fleet_smoke`.
//!
//! Three profiles run against in-process demo servers:
//!
//! * `keepalive_score` — 1000 keep-alive connections POSTing `/score`;
//!   the headline "p50/p99 at >= 1k concurrent connections" numbers.
//! * `keepalive_healthz` / `close_healthz` — the same target rate over
//!   the same 128 connections, once reusing them (HTTP/1.1 keep-alive)
//!   and once paying connect + teardown per request. The ratio is the
//!   keep-alive win at equal concurrency.
//!
//! Results merge into `BENCH_serve.json` under an `"open_loop"` key,
//! preserving the other sections already there. Every run
//! entry is tagged `topology: "single"` / `scheme: "plain"` so the fleet
//! numbers `fleet_smoke` records alongside never overwrite the
//! single-process trajectory.
//!
//! Run: `cargo run --release -p cohortnet-bench --bin serve_load`
//! (`COHORTNET_FAST=1` shrinks rates and durations for smoke runs but
//! keeps the 1000-connection profile — idle sockets are cheap.)

use std::time::Duration;

use cohortnet::snapshot::load_snapshot;
use cohortnet_bench::fast;
use cohortnet_bench::openloop::{self, Mode, Profile, RunResult};
use cohortnet_bench::report::render_table;
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::reactor::raise_nofile_limit;
use cohortnet_serve::{demo, serve, ServerConfig};

/// Seed for the arrival process; fixed so runs are comparable.
const SEED: u64 = 42;

/// Runs one open-loop profile against a fresh in-process demo server.
fn run_profile(profile: &Profile, snapshot: &str) -> RunResult {
    let loaded = load_snapshot(snapshot).expect("snapshot loads");
    let server = serve(
        loaded,
        ServerConfig {
            port: 0,
            max_connections: 0, // connection limiting is under test elsewhere
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let result = openloop::run(profile, server.addr(), SEED);
    server.shutdown();
    result
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Adds/replaces the `"open_loop"` section of `BENCH_serve.json`,
/// keeping whatever else is there (the `fleet` section from `fleet_smoke`,
/// the `stream` section from `stream_smoke`).
fn merge_into_bench_json(results: &[RunResult], rps_ratio: f64, p99_ratio: f64) {
    let runs: Vec<Json> = results.iter().map(openloop::run_json).collect();
    let open_loop = json::obj(vec![
        ("seed", num(SEED as f64)),
        ("fast", Json::Bool(fast())),
        ("runs", Json::Arr(runs)),
        (
            "keepalive_vs_close_rps_ratio",
            num((rps_ratio * 1000.0).round() / 1000.0),
        ),
        (
            "keepalive_vs_close_p99_ratio",
            num((p99_ratio * 1000.0).round() / 1000.0),
        ),
    ]);
    openloop::merge_section("BENCH_serve.json", "open_loop", open_loop);
}

fn main() {
    // Per-request INFO logging costs more than a /healthz request at the
    // rates this harness offers; keep the servers quiet unless the
    // operator explicitly asked for logs.
    if std::env::var_os("COHORTNET_LOG").is_none() {
        std::env::set_var("COHORTNET_LOG", "warn");
    }
    cohortnet_obs::init_from_env();
    let fast_mode = fast();
    raise_nofile_limit(8192);

    eprintln!("[serve_load] training demo model...");
    let bundle = demo::demo_bundle();
    let bodies: Vec<String> = bundle.examples.iter().map(openloop::score_body).collect();

    // The 1000-connection profile stays at 1000 even in FAST mode: idle
    // keep-alive sockets are nearly free under the readiness loop, and
    // "p50/p99 at >= 1k concurrent connections" is the headline number.
    // Close-per-request totals stay well under the ~28k ephemeral-port
    // budget so TIME_WAIT never starves the harness.
    // In an open loop below saturation both modes complete the offered
    // load, so achieved rps alone cannot separate them; the keep-alive
    // win shows up in the latency distribution (close-per-request pays
    // connect + accept + teardown per request, which lands squarely in
    // p99). 20000 rps is high enough to make that gap unmistakable while
    // staying under server capacity on a small host.
    let (score_rps, score_secs) = if fast_mode { (250.0, 4) } else { (800.0, 10) };
    let (cmp_rps, cmp_secs) = if fast_mode {
        (20000.0, 3)
    } else {
        (20000.0, 6)
    };
    let profiles = [
        Profile {
            name: "keepalive_score",
            mode: Mode::KeepAlive,
            conns: 1000,
            target_rps: score_rps,
            duration: Duration::from_secs(score_secs),
            method: "POST",
            path: "/score",
            bodies: bodies.clone(),
            topology: "single",
            scheme: "plain",
        },
        Profile {
            name: "keepalive_healthz",
            mode: Mode::KeepAlive,
            conns: 128,
            target_rps: cmp_rps,
            duration: Duration::from_secs(cmp_secs),
            method: "GET",
            path: "/healthz",
            bodies: Vec::new(),
            topology: "single",
            scheme: "plain",
        },
        Profile {
            name: "close_healthz",
            mode: Mode::ClosePerRequest,
            conns: 128,
            target_rps: cmp_rps,
            duration: Duration::from_secs(cmp_secs),
            method: "GET",
            path: "/healthz",
            bodies: Vec::new(),
            topology: "single",
            scheme: "plain",
        },
    ];

    let mut results = Vec::new();
    for profile in &profiles {
        eprintln!(
            "[serve_load] {}: {} conns, target {:.0} rps for {:?}...",
            profile.name, profile.conns, profile.target_rps, profile.duration
        );
        let r = run_profile(profile, &bundle.snapshot);
        eprintln!(
            "[serve_load] {}: achieved {:.1} rps, p50 {}us, p99 {}us, \
             ok {} rejected {} errors {} dropped {}",
            r.name, r.achieved_rps, r.p50_us, r.p99_us, r.ok, r.rejected, r.errors, r.dropped
        );
        results.push(r);
    }

    println!("== cohortnet-serve open-loop load (seed {SEED}) ==\n");
    let table: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.mode.to_string(),
                r.conns.to_string(),
                format!("{:.0}", r.target_rps),
                format!("{:.1}", r.achieved_rps),
                r.completed.to_string(),
                r.p50_us.to_string(),
                r.p99_us.to_string(),
                (r.rejected + r.errors + r.dropped).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["profile", "mode", "conns", "target", "rps", "done", "p50_us", "p99_us", "bad"],
            &table
        )
    );

    let by_name = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .expect("profile ran")
    };
    let score = by_name("keepalive_score");
    let ka = by_name("keepalive_healthz");
    let close = by_name("close_healthz");
    let ratio = ka.achieved_rps / close.achieved_rps.max(1e-9);
    let p99_ratio = ka.p99_us as f64 / (close.p99_us as f64).max(1.0);
    merge_into_bench_json(&results, ratio, p99_ratio);

    // The 1k-connection scoring profile must actually sustain its offered
    // load and answer cleanly.
    assert!(
        score.ok as f64 >= 0.99 * score.completed as f64 && score.dropped == 0,
        "1k-conn score profile unhealthy: ok {} of {}, dropped {}",
        score.ok,
        score.completed,
        score.dropped
    );
    assert!(
        score.achieved_rps >= 0.9 * score.target_rps,
        "1k-conn score profile fell behind: {:.1} of {:.1} rps",
        score.achieved_rps,
        score.target_rps
    );
    // Keep-alive must beat close-per-request at equal concurrency. Below
    // saturation both modes complete the offered load, so the completion
    // rate only gets a no-regression floor (5% tolerance for noisy shared
    // hosts); the connection-per-request overhead is asserted where it
    // actually shows — the tail of the latency distribution.
    assert!(
        ratio >= 0.95,
        "keep-alive lost to close-per-request at equal concurrency: \
         {:.1} vs {:.1} rps (ratio {ratio:.3})",
        ka.achieved_rps,
        close.achieved_rps
    );
    assert!(
        ka.p99_us <= close.p99_us,
        "keep-alive p99 should beat close-per-request at {:.0} rps: \
         {}us vs {}us",
        ka.target_rps,
        ka.p99_us,
        close.p99_us
    );
    eprintln!(
        "[serve_load] ok (keepalive {:.1} rps / p99 {}us vs close {:.1} rps / p99 {}us)",
        ka.achieved_rps, ka.p99_us, close.achieved_rps, close.p99_us
    );
}
