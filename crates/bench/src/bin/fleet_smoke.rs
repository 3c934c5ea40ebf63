//! Fleet serving smoke — the acceptance harness for `cohortnet-fleet`.
//!
//! Boots a 3-replica fleet on the demo snapshot and proves, in release
//! mode under open-loop load (shared event loop in
//! [`cohortnet_bench::openloop`]):
//!
//! 1. **Bit-identity at rest** — fleet `/score` responses are byte-equal
//!    to a cold single-process server on the same snapshot.
//! 2. **Hot-swap under load** — a `POST /admin/reload` of the same
//!    artifact (with `require_identical`) fired mid-run through a
//!    1000-connection Poisson load completes with **zero dropped and
//!    zero errored requests**, canary bit-identity verified before the
//!    flip, and post-swap scores unchanged.
//! 3. **Poisoned reload is rejected** — the `fleet.reload.corrupt` chaos
//!    site flips a byte of the artifact mid-read; the reload answers 422
//!    and the old model keeps serving.
//! 4. **Replica kill under load** — the `fleet.replica.kill` chaos site
//!    takes one of the 3 replicas down mid-run; the run still completes
//!    with zero drops/errors, p99 stays bounded, and responses stay
//!    bit-identical.
//! 5. **Scheme swap** — reloading the int8 quantized artifact flips the
//!    surviving replicas; post-swap scores are bit-identical to a cold
//!    single server on the quantized snapshot.
//!
//! Results merge into the `"fleet"` section of `BENCH_serve.json`
//! (entries tagged `topology: "fleet:3"` so they never collide with the
//! `serve_load` single-process trajectory) and the full narration is
//! written to `target/FLEET_SMOKE.log` for the CI artifact.
//!
//! Run: `COHORTNET_FAST=1 cargo run --release -p cohortnet-bench --bin
//! fleet_smoke` (drop the env var for the longer local run).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cohortnet::snapshot::{fnv64, load_snapshot, save_snapshot_quant};
use cohortnet_bench::fast;
use cohortnet_bench::openloop::{self, Hook, Mode, Profile, RunResult};
use cohortnet_bench::smoke::{call, SmokeLog};
use cohortnet_chaos::{install, ChaosPlan, When};
use cohortnet_fleet::{serve_fleet, FleetConfig};
use cohortnet_serve::client::score_body;
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::reactor::raise_nofile_limit;
use cohortnet_serve::{demo, serve, ServerConfig, TransportConfig};

/// Seed for the arrival process and the chaos plans.
const SEED: u64 = 42;

/// Replicas in the fleet under test.
const REPLICAS: usize = 3;

/// Where the smoke narration lands for the CI artifact.
const LOG_PATH: &str = "target/FLEET_SMOKE.log";

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fleet_smoke_{}_{name}", std::process::id()))
}

fn score_profile(
    name: &'static str,
    scheme: &'static str,
    rps: f64,
    secs: u64,
    bodies: Vec<String>,
    topology: &'static str,
) -> Profile {
    Profile {
        name,
        mode: Mode::KeepAlive,
        conns: 1000,
        target_rps: rps,
        duration: Duration::from_secs(secs),
        method: "POST",
        path: "/score",
        bodies,
        topology,
        scheme,
    }
}

/// A run through the fleet must answer every request 2xx: backpressure
/// rejections, protocol errors and drops are all failures here — the
/// whole point of the router is that swaps and kills stay invisible.
fn assert_clean(log: &mut SmokeLog, r: &RunResult) {
    log.say(format!(
        "{}: achieved {:.1}/{:.0} rps, p50 {}us, p99 {}us, ok {} of {}, \
         rejected {} errors {} dropped {}",
        r.name,
        r.achieved_rps,
        r.target_rps,
        r.p50_us,
        r.p99_us,
        r.ok,
        r.completed,
        r.rejected,
        r.errors,
        r.dropped
    ));
    assert_eq!(r.dropped, 0, "{}: dropped requests", r.name);
    assert_eq!(
        r.ok, r.completed,
        "{}: non-2xx responses (rejected {}, errors {})",
        r.name, r.rejected, r.errors
    );
    assert!(
        r.achieved_rps >= 0.9 * r.target_rps,
        "{}: fell behind the offered load: {:.1} of {:.1} rps",
        r.name,
        r.achieved_rps,
        r.target_rps
    );
}

fn main() {
    if std::env::var_os("COHORTNET_LOG").is_none() {
        std::env::set_var("COHORTNET_LOG", "warn");
    }
    cohortnet_obs::init_from_env();
    raise_nofile_limit(8192);
    let fast_mode = fast();
    let mut log = SmokeLog::new("fleet_smoke", LOG_PATH);

    log.say("training demo model...");
    let bundle = demo::demo_bundle();
    let bodies: Vec<String> = bundle.examples.iter().map(openloop::score_body).collect();
    let batch = score_body(&bundle.examples);

    let lm = load_snapshot(&bundle.snapshot).expect("snapshot loads");
    let quant_text = save_snapshot_quant(&lm.model, &lm.params, &lm.scaler, lm.time_steps);
    let same_path = scratch_path("same.cns");
    let quant_path = scratch_path("quant.cns");
    std::fs::write(&same_path, &bundle.snapshot).expect("write snapshot");
    std::fs::write(&quant_path, &quant_text).expect("write quant snapshot");

    let fleet = serve_fleet(
        &bundle.snapshot,
        FleetConfig {
            replicas: REPLICAS,
            transport: TransportConfig {
                port: 0,
                max_connections: 0, // limiting is under test elsewhere
                ..TransportConfig::default()
            },
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");
    let addr = fleet.addr();
    log.say(format!("fleet of {REPLICAS} replicas on http://{addr}"));

    // 1. Bit-identity at rest against a cold single server.
    let single = serve(
        load_snapshot(&bundle.snapshot).expect("snapshot loads"),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .expect("single server starts");
    let (status, want_plain) = call(single.addr(), "POST", "/score", &batch);
    assert_eq!(status, 200, "{want_plain}");
    single.shutdown();
    for i in 0..5 {
        let (status, got) = call(addr, "POST", "/score", &batch);
        assert_eq!(status, 200, "{got}");
        assert_eq!(
            got, want_plain,
            "fleet response {i} differs from single server"
        );
    }
    log.say("fleet responses bit-identical to cold single server");

    // 2. Hot-swap under open-loop load: reload the identical artifact
    // (canary bit-identity required) halfway through the run.
    let (rps, secs) = if fast_mode { (250.0, 4) } else { (600.0, 10) };
    let reload_result: Arc<Mutex<Option<(u16, String)>>> = Arc::new(Mutex::new(None));
    let hook = {
        let reload_result = Arc::clone(&reload_result);
        let body = format!(
            "{{\"path\":\"{}\",\"require_identical\":true}}",
            same_path.display()
        );
        Hook {
            after: Duration::from_secs(secs / 2),
            action: Box::new(move || {
                // The reload scores canaries on the new model before the
                // flip; run it off-thread so the harness keeps dispatching.
                std::thread::spawn(move || {
                    let got = call(addr, "POST", "/admin/reload", &body);
                    *reload_result.lock().expect("reload result lock") = Some(got);
                });
            }),
        }
    };
    log.say(format!(
        "swap-under-load: 1000 conns at {rps:.0} rps for {secs}s, reload at t+{}s",
        secs / 2
    ));
    let swap_run = openloop::run_with_hook(
        &score_profile(
            "fleet_swap_under_load",
            "plain",
            rps,
            secs,
            bodies.clone(),
            "fleet:3",
        ),
        addr,
        SEED,
        Some(hook),
    );
    assert_clean(&mut log, &swap_run);
    let (reload_status, reload_body) = reload_result
        .lock()
        .expect("reload result lock")
        .take()
        .expect("mid-run reload completed");
    assert_eq!(reload_status, 200, "mid-run reload failed: {reload_body}");
    let report = json::parse(&reload_body).expect("reload report parses");
    let canaries = report
        .get("canary_requests")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(canaries >= 1.0, "no canaries verified: {reload_body}");
    let swapped = report
        .get("replicas_swapped")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert_eq!(swapped, REPLICAS as f64, "{reload_body}");
    log.say(format!(
        "mid-run reload ok: {canaries:.0} canaries bit-verified, {swapped:.0} replicas swapped"
    ));
    let (status, got) = call(addr, "POST", "/score", &batch);
    assert_eq!(status, 200);
    assert_eq!(got, want_plain, "identical hot-swap changed scores");
    log.say("post-swap scores bit-identical to pre-swap");

    // 3. A poisoned reload (chaos byte flip during the artifact read) is
    // rejected and the old model keeps serving.
    {
        let _guard =
            install(ChaosPlan::new(SEED).site("fleet.reload.corrupt", When::At(vec![1]), 977));
        let body = format!("{{\"path\":\"{}\"}}", same_path.display());
        let (status, resp) = call(addr, "POST", "/admin/reload", &body);
        assert_eq!(status, 422, "poisoned reload must be rejected: {resp}");
        let (status, got) = call(addr, "POST", "/score", &batch);
        assert_eq!(status, 200);
        assert_eq!(got, want_plain, "rejected reload must not change scores");
        log.say("poisoned reload rejected with 422; old model still serving");
    }

    // 4. Replica kill mid-run: a third of the way through the offered
    // load, chaos takes replica 1 down. Dispatch must reroute with zero
    // client-visible damage and a bounded tail.
    let kill_at = ((rps * secs as f64) / 3.0).max(10.0) as u64;
    let kill_run = {
        let _guard =
            install(ChaosPlan::new(SEED).site("fleet.replica.kill", When::At(vec![kill_at]), 1));
        log.say(format!(
            "kill-under-load: same load shape, replica 1 killed on score call {kill_at}"
        ));
        let r = openloop::run(
            &score_profile(
                "fleet_kill_under_load",
                "plain",
                rps,
                secs,
                bodies.clone(),
                "fleet:3",
            ),
            addr,
            SEED,
        );
        assert_clean(&mut log, &r);
        r
    };
    // Bounded tail: generous absolute floor for noisy shared hosts, but
    // the kill must not blow the tail out relative to the swap run.
    let p99_cap = (swap_run.p99_us.saturating_mul(20)).max(2_000_000);
    assert!(
        kill_run.p99_us <= p99_cap,
        "replica kill blew out p99: {}us (cap {}us from swap-run p99 {}us)",
        kill_run.p99_us,
        p99_cap,
        swap_run.p99_us
    );
    let (status, got) = call(addr, "POST", "/score", &batch);
    assert_eq!(status, 200);
    assert_eq!(
        got, want_plain,
        "responses must stay bit-identical after the kill"
    );
    let (status, health) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = json::parse(&health).expect("healthz parses");
    let states: Vec<String> = health
        .get("replicas")
        .and_then(Json::as_arr)
        .expect("replicas listed")
        .iter()
        .map(|r| {
            r.get("state")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        })
        .collect();
    assert_eq!(
        states,
        vec!["healthy", "dead", "healthy"],
        "unexpected replica states after the kill"
    );
    log.say(format!("replica states after kill: {states:?}"));

    // 5. Scheme swap to the int8 quantized artifact on the surviving
    // replicas; post-swap scores must match a cold quant server.
    let body = format!("{{\"path\":\"{}\",\"quant\":true}}", quant_path.display());
    let (status, resp) = call(addr, "POST", "/admin/reload", &body);
    assert_eq!(status, 200, "quant reload failed: {resp}");
    let report = json::parse(&resp).expect("reload report parses");
    assert_eq!(
        report.get("replicas_swapped").and_then(Json::as_f64),
        Some((REPLICAS - 1) as f64),
        "dead replica must be skipped: {resp}"
    );
    let cold = serve(
        load_snapshot(&quant_text).expect("quant snapshot loads"),
        ServerConfig {
            port: 0,
            quant: true,
            ..ServerConfig::default()
        },
    )
    .expect("cold quant server starts");
    let (status, want_quant) = call(cold.addr(), "POST", "/score", &batch);
    assert_eq!(status, 200, "{want_quant}");
    cold.shutdown();
    let (status, got_quant) = call(addr, "POST", "/score", &batch);
    assert_eq!(status, 200);
    assert_eq!(
        got_quant, want_quant,
        "post-swap quant scores must match a cold server on the artifact"
    );
    let (_, health) = call(addr, "GET", "/healthz", "");
    let health = json::parse(&health).expect("healthz parses");
    assert_eq!(health.get("quant").and_then(Json::as_bool), Some(true));
    let want_fp = format!("{:016x}", fnv64(quant_text.as_bytes()));
    assert_eq!(
        health.get("snapshot_fingerprint").and_then(Json::as_str),
        Some(want_fp.as_str())
    );
    log.say(format!(
        "quant hot-swap ok: fingerprint {want_fp}, scores match cold quant server"
    ));

    // 6. Stage attribution: the router's flight recorder must account for
    // where `/score` latency went. The recorded stages (accept + queue + app +
    // batch-wait + compute + handoff + render + write) have to cover the measured
    // total at the tail — if the p99 of stage sums falls under 90% of the
    // p99 of totals, some stage is unattributed and the `/debug` triage
    // surface is lying.
    let (status, dbg) = call(addr, "GET", "/debug/requests?n=1024", "");
    assert_eq!(status, 200, "/debug/requests failed: {dbg}");
    let parsed = json::parse(&dbg).expect("debug requests parses");
    let rows = parsed
        .get("requests")
        .and_then(Json::as_arr)
        .expect("requests array");
    let mut totals: Vec<f64> = Vec::new();
    let mut sums: Vec<f64> = Vec::new();
    let mut replica_seen = false;
    for r in rows {
        if r.get("route").and_then(Json::as_str) != Some("/score")
            || r.get("status").and_then(Json::as_f64) != Some(200.0)
        {
            continue;
        }
        let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let total = f("total_us");
        if total <= 0.0 {
            continue;
        }
        totals.push(total);
        sums.push(
            f("accept_us")
                + f("queue_us")
                + f("app_us")
                + f("batch_wait_us")
                + f("compute_us")
                + f("handoff_us")
                + f("render_us")
                + f("write_us"),
        );
        replica_seen |= f("replica") >= 0.0;
    }
    assert!(
        totals.len() >= 100,
        "flight recorder holds too few scored requests: {}",
        totals.len()
    );
    assert!(replica_seen, "no /score record attributes a replica");
    let p99 = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        v[(v.len() - 1) * 99 / 100]
    };
    let (p99_total, p99_sum) = (p99(&mut totals), p99(&mut sums));
    log.say(format!(
        "stage attribution over {} scored requests: p99 total {:.0}us, \
         p99 stage sum {:.0}us ({:.0}% covered)",
        totals.len(),
        p99_total,
        p99_sum,
        p99_sum / p99_total * 100.0
    ));
    assert!(
        p99_sum >= 0.9 * p99_total,
        "stages account for too little of the tail: stage-sum p99 {p99_sum:.0}us \
         vs total p99 {p99_total:.0}us"
    );
    let _ = std::fs::create_dir_all("target");
    match std::fs::write("target/DEBUG_REQUESTS.json", &dbg) {
        Ok(()) => log.say("wrote target/DEBUG_REQUESTS.json"),
        Err(e) => log.say(format!("could not write target/DEBUG_REQUESTS.json: {e}")),
    }

    fleet.shutdown();
    for p in [&same_path, &quant_path] {
        let _ = std::fs::remove_file(p);
    }

    // Record the fleet trajectory next to (never over) the single-process
    // open_loop section.
    let num = |v: f64| Json::Num(v);
    let section = json::obj(vec![
        ("seed", num(SEED as f64)),
        ("fast", Json::Bool(fast_mode)),
        ("replicas", num(REPLICAS as f64)),
        (
            "runs",
            Json::Arr(vec![
                openloop::run_json(&swap_run),
                openloop::run_json(&kill_run),
            ]),
        ),
        ("canary_requests", num(canaries)),
        ("kill_at_score_call", num(kill_at as f64)),
    ]);
    openloop::merge_section("BENCH_serve.json", "fleet", section);

    log.say("fleet smoke ok: zero drops, zero errors, bit-identity held through swap and kill");
    log.flush();
}
