//! `trace-smoke` — runs the four-step pipeline on a tiny synthetic dataset
//! with span tracing exporting to a file (the `COHORTNET_TRACE` mode), then
//! asserts the file is valid JSON in Chrome trace event format and contains
//! the expected stage spans for all four paper modules (MFLM, CDM, CRLM,
//! CEM) plus the mining/retrieval sub-stages. A second phase boots a small
//! fleet, traces one `/score`, and asserts the export is a single
//! *connected* flame across threads: the router worker's `serve.request`
//! span is an ancestor of the replica batcher's `serve.batch` span even
//! though they ran on different threads. Exits non-zero on any failure.
//!
//! Run: `COHORTNET_TRACE=trace.json cargo run --release -p cohortnet-bench
//! --bin trace_smoke` (the path defaults to `trace.json` when unset).

use cohortnet::config::CohortNetConfig;
use cohortnet::train::train_cohortnet;
use cohortnet_bench::openloop;
use cohortnet_bench::smoke::call;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_fleet::{serve_fleet, FleetConfig};
use cohortnet_models::data::prepare;
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::{demo, TransportConfig};

fn main() {
    let path = std::env::var("COHORTNET_TRACE").unwrap_or_else(|_| "trace.json".to_string());
    // Configure programmatically so the smoke works with or without the env
    // var set (init_from_env would also pick the var up, idempotently).
    cohortnet_obs::trace::set_output(Some(path.clone()));
    cohortnet_obs::trace::enable();

    eprintln!("trace-smoke: training tiny pipeline (trace -> {path})...");
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 96;
    c.time_steps = 5;
    c.healthy_rate = 0.5;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 1500;
    cfg.epochs_pretrain = 2;
    cfg.epochs_exploit = 1;
    cfg.batch_size = 32;
    let prep = prepare(&ds);
    let trained = train_cohortnet(&prep, &cfg);
    assert!(
        trained.model.discovery.is_some(),
        "pipeline found no cohorts"
    );

    // train_cohortnet flushed the trace on exit; validate the file.
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("trace file {path} missing: {e}"));
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has no traceEvents array");
    assert!(!events.is_empty(), "traceEvents is empty");

    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for want in [
        // Pipeline root + the four paper modules.
        "train.pipeline",
        "mflm.pretrain",
        "discover",
        "crlm.represent",
        "cem.exploit",
        // Discovery stages and sub-stages.
        "cdm.collect",
        "cdm.fit",
        "cdm.assign",
        "cdm.mine",
        "cdm.fit.feature",
        "cdm.mine.feature",
        "crlm.retrieve",
        // Trainer + scheduler instrumentation.
        "train.epoch",
        "par.map",
    ] {
        assert!(
            names.contains(&want),
            "span {want} missing from trace; got: {names:?}"
        );
    }
    // Events are well-formed complete events with timing and span ids.
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        assert!(e
            .get("args")
            .and_then(|a| a.get("span_id"))
            .and_then(Json::as_f64)
            .is_some());
    }
    // Nesting survived the export: some discovery stage has the `discover`
    // root as its parent.
    let discover_ids: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("discover"))
        .filter_map(|e| e.get("args")?.get("span_id")?.as_f64())
        .collect();
    let nested = events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("cdm.fit")
            && e.get("args")
                .and_then(|a| a.get("parent_id"))
                .and_then(Json::as_f64)
                .is_some_and(|p| discover_ids.contains(&p))
    });
    assert!(nested, "cdm.fit is not nested under discover");
    let n_pipeline = events.len();

    // Phase 2: request tracing through the fleet. One `/score` through a
    // 2-replica fleet must come out as a single connected flame: the router
    // worker's `serve.request` span an ancestor of the replica batcher's
    // `serve.batch` span, on *different* threads, linked by the explicit
    // `Span::follows` baton rather than the per-thread span stack.
    eprintln!("trace-smoke: tracing one fleet /score...");
    let bundle = demo::demo_bundle();
    cohortnet_obs::trace::clear();
    let fleet = serve_fleet(
        &bundle.snapshot,
        FleetConfig {
            replicas: 2,
            transport: TransportConfig {
                port: 0,
                ..TransportConfig::default()
            },
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");
    let (status, _) = call(
        fleet.addr(),
        "POST",
        "/score",
        &openloop::score_body(&bundle.examples[0]),
    );
    assert_eq!(status, 200, "fleet /score failed");
    fleet.shutdown();

    let spans = cohortnet_obs::trace::snapshot();
    let by_id: std::collections::HashMap<u64, &cohortnet_obs::trace::Event> =
        spans.iter().map(|e| (e.id, e)).collect();
    let trace_arg = |e: &cohortnet_obs::trace::Event| {
        e.args
            .iter()
            .find(|(k, _)| *k == "trace")
            .map(|(_, v)| v.clone())
    };
    let mut connected = false;
    for batch in spans.iter().filter(|e| e.name == "serve.batch") {
        let mut cur = batch.parent;
        while cur != 0 {
            let Some(p) = by_id.get(&cur) else { break };
            if p.name == "serve.request" && p.tid != batch.tid {
                assert_eq!(
                    trace_arg(p),
                    trace_arg(batch),
                    "request and batch spans carry different trace ids"
                );
                connected = true;
            }
            cur = p.parent;
        }
    }
    assert!(
        connected,
        "fleet /score did not export a connected cross-thread trace \
         (no serve.batch span with a serve.request ancestor on another thread); \
         span names: {:?}",
        spans.iter().map(|e| e.name).collect::<Vec<_>>()
    );
    println!(
        "trace-smoke: ok ({n_pipeline} pipeline events in {path}; fleet /score \
         request span linked across threads to its batch span)"
    );
}
