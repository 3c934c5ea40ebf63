//! Streaming ingestion smoke + replay bench — the acceptance harness for
//! `POST /ingest` online scoring.
//!
//! Boots a `--stream` server on the demo snapshot and proves, in release
//! mode:
//!
//! 1. **Prefix identity over HTTP** — replaying admissions in chunks, the
//!    session's rendered score bytes equal `POST /score` of the
//!    from-scratch batch oracle at every chunk boundary.
//! 2. **Open-loop replay** — Poisson arrivals of `/ingest` bodies (with
//!    inline scoring) across a pool of concurrent sessions complete with
//!    zero drops and zero non-2xx responses, and the
//!    `cohortnet_stream_staleness_us` histogram records the ingest→score
//!    staleness tail.
//! 3. **Incremental probes beat full re-probe** — over the recorded state
//!    grids of a replayed admission, the [`IndexCache`] (re-probing only
//!    anchors whose mask intersects the changed columns) is faster than a
//!    from-scratch linear scan of the cohort index at every prefix, while
//!    returning identical bitmaps.
//!
//! Results merge into the `"stream"` section of `BENCH_serve.json` and the
//! narration is written to `target/STREAM_SMOKE.log` for the CI artifact.
//!
//! Run: `COHORTNET_FAST=1 cargo run --release -p cohortnet-bench --bin
//! stream_smoke` (drop the env var for the longer local run).

use std::time::{Duration, Instant};

use cohortnet::index::{CohortIndex, IndexCache};
use cohortnet::snapshot::load_snapshot;
use cohortnet::stream::{batch_reference, StreamConfig, StreamEvent, StreamSession};
use cohortnet_bench::fast;
use cohortnet_bench::openloop::{self, Mode, Profile};
use cohortnet_bench::smoke::{call, SmokeLog};
use cohortnet_ehr::{generate_event_streams, EventStreamConfig};
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::{demo, serve_stream, ServerConfig, StreamOptions};

/// Seed for the arrival process and the synthetic event streams.
const SEED: u64 = 42;

/// Where the smoke narration lands for the CI artifact.
const LOG_PATH: &str = "target/STREAM_SMOKE.log";

fn ingest_body(session: &str, events: &[StreamEvent], score: bool) -> String {
    let evs: Vec<String> = events
        .iter()
        .map(|e| format!("{{\"f\":{},\"t\":{},\"v\":{}}}", e.feature, e.ts, e.value))
        .collect();
    format!(
        "{{\"session\":\"{session}\",\"events\":[{}],\"score\":{score}}}",
        evs.join(",")
    )
}

fn event_streams(n_admissions: usize, n_features: usize, seed: u64) -> Vec<Vec<StreamEvent>> {
    generate_event_streams(&EventStreamConfig {
        n_admissions,
        n_features,
        events_per_feature: 4,
        seed,
        ..EventStreamConfig::default()
    })
    .into_iter()
    .map(|s| {
        s.events
            .iter()
            .map(|e| StreamEvent {
                feature: e.feature,
                ts: e.ts,
                value: e.value,
            })
            .collect()
    })
    .collect()
}

/// Nearest-rank quantile out of a rendered Prometheus histogram's
/// cumulative `_bucket{le="..."}` lines.
fn histogram_quantile(metrics: &str, family: &str, q: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    let prefix = format!("{family}_bucket{{le=\"");
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let (le, count) = rest.split_once("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            buckets.push((le, count.trim().parse().ok()?));
        }
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bucket bound"));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    buckets
        .iter()
        .find(|(_, count)| *count >= rank)
        .map(|(le, _)| *le)
}

fn main() {
    if std::env::var_os("COHORTNET_LOG").is_none() {
        std::env::set_var("COHORTNET_LOG", "warn");
    }
    cohortnet_obs::init_from_env();
    let fast_mode = fast();
    let mut log = SmokeLog::new("stream_smoke", LOG_PATH);

    log.say("training demo model...");
    let bundle = demo::demo_bundle();
    let loaded = load_snapshot(&bundle.snapshot).expect("snapshot loads");
    let n_features = loaded.scaler.mean.len();
    let stream_cfg = StreamConfig {
        time_steps: loaded.time_steps,
        n_features,
        horizon_hours: 48.0,
    };

    let server = serve_stream(
        load_snapshot(&bundle.snapshot).expect("snapshot loads"),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
        StreamOptions::default(),
    )
    .expect("stream server starts");
    let addr = server.addr();
    log.say(format!("streaming server on http://{addr}"));

    // 1. Prefix identity over HTTP: chunked replay, every chunk boundary
    // byte-compared against the batch oracle rendered by the same server.
    let mut identity_prefixes = 0usize;
    for (a, events) in event_streams(2, n_features, SEED).into_iter().enumerate() {
        let session = format!("adm-{a}");
        let mut sent = 0usize;
        while sent < events.len() {
            let chunk = (events.len() - sent).min(5);
            let (status, body) = call(
                addr,
                "POST",
                "/ingest",
                &ingest_body(&session, &events[sent..sent + chunk], false),
            );
            assert_eq!(status, 200, "ingest failed: {body}");
            sent += chunk;
            let (status, stream_bytes) =
                call(addr, "POST", &format!("/sessions/{session}/score"), "");
            assert_eq!(status, 200, "{stream_bytes}");
            let oracle = batch_reference(&events[..sent], &stream_cfg, &loaded.scaler);
            let batch_body = openloop::score_body(&oracle);
            let (status, batch_bytes) = call(addr, "POST", "/score", &batch_body);
            assert_eq!(status, 200, "{batch_bytes}");
            assert_eq!(
                stream_bytes, batch_bytes,
                "admission {a} prefix {sent}: rendered bytes diverged from the batch oracle"
            );
            identity_prefixes += 1;
        }
    }
    log.say(format!(
        "prefix identity held over HTTP at {identity_prefixes} chunk boundaries"
    ));

    // 2. Open-loop replay: Poisson /ingest arrivals (inline scoring) over a
    // pool of sessions. Bodies cycle round-robin, so each session's chunks
    // arrive interleaved with every other session's — arrival order across
    // sessions is irrelevant by the permutation-invariance contract.
    let (rps, secs, n_sessions) = if fast_mode {
        (150.0, 3u64, 16usize)
    } else {
        (400.0, 8, 32)
    };
    let mut bodies = Vec::new();
    for (a, events) in event_streams(n_sessions, n_features, SEED ^ 0x5e551)
        .into_iter()
        .enumerate()
    {
        for chunk in events.chunks(4) {
            bodies.push(ingest_body(&format!("replay-{a}"), chunk, true));
        }
    }
    log.say(format!(
        "replay: {} conns at {rps:.0} rps for {secs}s over {n_sessions} sessions \
         ({} distinct bodies)",
        128,
        bodies.len()
    ));
    let replay = openloop::run(
        &Profile {
            name: "stream_replay",
            mode: Mode::KeepAlive,
            conns: 128,
            target_rps: rps,
            duration: Duration::from_secs(secs),
            method: "POST",
            path: "/ingest",
            bodies,
            topology: "single",
            scheme: "plain",
        },
        addr,
        SEED,
    );
    log.say(format!(
        "{}: achieved {:.1}/{:.0} rps, p50 {}us, p99 {}us, ok {} of {}, \
         rejected {} errors {} dropped {}",
        replay.name,
        replay.achieved_rps,
        replay.target_rps,
        replay.p50_us,
        replay.p99_us,
        replay.ok,
        replay.completed,
        replay.rejected,
        replay.errors,
        replay.dropped
    ));
    assert_eq!(replay.dropped, 0, "replay dropped requests");
    assert_eq!(
        replay.ok, replay.completed,
        "replay saw non-2xx responses (rejected {}, errors {})",
        replay.rejected, replay.errors
    );
    assert!(
        replay.achieved_rps >= 0.8 * replay.target_rps,
        "replay fell behind the offered load: {:.1} of {:.1} rps",
        replay.achieved_rps,
        replay.target_rps
    );

    // The staleness histogram must have observed every inline score.
    let (status, metrics) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let staleness_p99 = histogram_quantile(&metrics, "cohortnet_stream_staleness_us", 0.99)
        .expect("staleness histogram populated");
    let scrape = |family: &str| -> f64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(family)?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let events_total = scrape("cohortnet_stream_events_total ");
    let scores_total = scrape("cohortnet_stream_scores_total ");
    assert!(events_total > 0.0 && scores_total > 0.0);
    log.say(format!(
        "replay ingested {events_total:.0} events, {scores_total:.0} scores, \
         staleness p99 <= {staleness_p99:.0}us"
    ));
    server.shutdown();

    // 3. Probe micro-bench: record the state grid at every prefix of a
    // replayed admission, then time matching those grids against the
    // cohort index with the incremental cache vs a from-scratch linear
    // scan per prefix. Same bitmaps, less work.
    let inf = loaded.inferencer();
    let pool = &loaded
        .model
        .discovery
        .as_ref()
        .expect("demo has cohorts")
        .pool;
    let index = CohortIndex::compile(pool);
    let events = &event_streams(1, n_features, SEED ^ 0x961d5)[0];
    let mut session = StreamSession::new(stream_cfg, loaded.scaler.clone());
    let mut grids: Vec<Vec<u8>> = Vec::with_capacity(events.len());
    for ev in events {
        session.ingest(*ev).expect("replay event");
        let detail = session.score(&inf);
        grids.push(detail.state_grid.expect("cohort path"));
    }
    let (t_steps, nf) = (stream_cfg.time_steps, stream_cfg.n_features);
    let reps = if fast_mode { 5 } else { 20 };
    let mut incremental_us = u64::MAX;
    let mut full_us = u64::MAX;
    let mut reused = 0u64;
    for _ in 0..reps {
        let mut cache = IndexCache::new();
        let t0 = Instant::now();
        for grid in &grids {
            let words = cache.probe(&index, grid, t_steps, nf);
            std::hint::black_box(words);
        }
        incremental_us = incremental_us.min(t0.elapsed().as_micros() as u64);
        reused = cache.reused_probes;

        let t0 = Instant::now();
        for grid in &grids {
            for i in 0..index.n_features() {
                std::hint::black_box(index.bitmap_words(i, grid, t_steps, nf));
            }
        }
        full_us = full_us.min(t0.elapsed().as_micros() as u64);
    }
    log.say(format!(
        "probe replay over {} prefixes: incremental {incremental_us}us \
         ({reused} probes reused) vs full re-probe {full_us}us ({:.1}x)",
        grids.len(),
        full_us as f64 / incremental_us.max(1) as f64
    ));
    assert!(reused > 0, "the incremental cache never reused a probe");
    assert!(
        incremental_us < full_us,
        "incremental probing ({incremental_us}us) must beat the full \
         re-probe ({full_us}us)"
    );

    // Record the streaming trajectory next to (never over) the other
    // BENCH_serve.json sections.
    let num = |v: f64| Json::Num(v);
    let section = json::obj(vec![
        ("seed", num(SEED as f64)),
        ("fast", Json::Bool(fast_mode)),
        ("identity_prefixes", num(identity_prefixes as f64)),
        ("sessions", num(n_sessions as f64)),
        ("runs", Json::Arr(vec![openloop::run_json(&replay)])),
        ("staleness_p99_us", num(staleness_p99)),
        ("events_total", num(events_total)),
        ("scores_total", num(scores_total)),
        ("probe_prefixes", num(grids.len() as f64)),
        ("probe_incremental_us", num(incremental_us as f64)),
        ("probe_full_us", num(full_us as f64)),
        ("probe_reused", num(reused as f64)),
    ]);
    openloop::merge_section("BENCH_serve.json", "stream", section);

    log.say("stream smoke ok: prefix identity held, replay clean, incremental probes won");
    log.flush();
}
