//! The **prefix-identity contract** of streaming ingestion
//! ([`cohortnet::stream`]): after every prefix of an event stream, the
//! session's standardized grid, presence mask, feature-state assignments,
//! matched-cohort bitmaps, and scores are bit-for-bit equal to the batch
//! pipeline recomputed from scratch over the same prefix.
//!
//! The oracle is [`batch_reference`] (shift → canonical sort → resample →
//! standardize, the verbatim batch expressions) scored through
//! [`Inferencer::score_requests`]; the streaming side is
//! [`StreamSession::ingest`] + [`Inferencer::score_one_with_cache`] with
//! its incremental cohort-index probe cache. Every assertion is on raw
//! f32 bits — no tolerance anywhere. Debug builds additionally run the
//! [`cohortnet::index::IndexCache`] linear-scan differential check inside
//! every reused probe.

mod common;

use std::sync::OnceLock;

use cohortnet::index::{CohortIndex, IndexCache};
use cohortnet::infer::{Inferencer, ScoreOutput, ScoreRequest};
use cohortnet::quant::{QuantInferencer, QuantTable};
use cohortnet::stream::{batch_reference, StreamConfig, StreamEvent, StreamSession};
use cohortnet::train::TrainedCohortNet;
use cohortnet_ehr::standardize::Standardizer;
use cohortnet_ehr::{generate_event_streams, EventStreamConfig};

/// The shared trained fixture (training once is most of a test's wall
/// clock; the contract itself is cheap to check).
fn fixture() -> &'static (TrainedCohortNet, Standardizer, usize) {
    static FIXTURE: OnceLock<(TrainedCohortNet, Standardizer, usize)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (trained, _prep, scaler, time_steps) = common::tiny_trained();
        (trained, scaler, time_steps)
    })
}

fn compiled() -> (Inferencer, StreamConfig, &'static Standardizer) {
    let (trained, scaler, time_steps) = fixture();
    let inf = Inferencer::compile(&trained.model, &trained.params, *time_steps);
    let cfg = StreamConfig::for_inferencer(&inf, 48.0);
    (inf, cfg, scaler)
}

/// Synthetic event streams shaped to the fixture's grid.
fn event_streams(n: usize, seed: u64) -> Vec<Vec<StreamEvent>> {
    let cfg = EventStreamConfig {
        n_admissions: n,
        n_features: 20,
        horizon_hours: 48.0,
        events_per_feature: 4,
        seed,
        ..EventStreamConfig::default()
    };
    generate_event_streams(&cfg)
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

fn assert_outputs_bit_eq(a: &ScoreOutput, b: &ScoreOutput, what: &str) {
    let pairs = [
        (a.logits.as_slice(), b.logits.as_slice(), "logits"),
        (a.probs.as_slice(), b.probs.as_slice(), "probs"),
        (a.base_logits.as_slice(), b.base_logits.as_slice(), "base"),
    ];
    for (xs, ys, part) in pairs {
        assert_eq!(xs.len(), ys.len(), "{what}: {part} length");
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {part} drifted ({x} vs {y})"
            );
        }
    }
    match (&a.cem_logits, &b.cem_logits) {
        (Some(ca), Some(cb)) => {
            for (x, y) in ca.as_slice().iter().zip(cb.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: cem drifted");
            }
        }
        (None, None) => {}
        _ => panic!("{what}: cem presence mismatch"),
    }
}

fn assert_req_bit_eq(a: &ScoreRequest, b: &ScoreRequest, what: &str) {
    assert_eq!(a.x.len(), b.x.len(), "{what}: grid length");
    for (x, y) in a.x.iter().zip(&b.x) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: grid cell drifted");
    }
    assert_eq!(a.mask, b.mask, "{what}: mask drifted");
}

/// The tentpole proof: feed events one at a time and at **every** prefix
/// compare the streaming session against the from-scratch batch pipeline —
/// grid, mask, state grid, bitmaps (vs a linear index scan), and scores
/// (solo batch and parallel at several thread counts). Leading prefixes of
/// each stream exercise the mostly-missing / all-missing-column paths by
/// construction (the first event leaves 19 features uncharted).
#[test]
fn every_prefix_is_bit_identical_to_batch() {
    let (inf, cfg, scaler) = compiled();
    assert!(inf.has_cohorts(), "fixture must exercise the cohort path");
    let (trained, _, _) = fixture();
    let pool = &trained.model.discovery.as_ref().unwrap().pool;
    let index = CohortIndex::compile(pool);
    let (t_steps, nf) = (cfg.time_steps, cfg.n_features);

    for (a, events) in event_streams(2, 0xbeef).into_iter().enumerate() {
        let mut session = StreamSession::new(cfg, scaler.clone());
        for n in 0..events.len() {
            session.ingest(events[n]).unwrap();
            let oracle = batch_reference(&events[..=n], &cfg, scaler);
            assert_req_bit_eq(
                &session.request(),
                &oracle,
                &format!("admission {a} prefix {n}"),
            );

            let detail = session.score(&inf);
            let batch = inf.score_requests(std::slice::from_ref(&oracle));
            assert_outputs_bit_eq(
                &detail.output,
                &batch,
                &format!("admission {a} prefix {n} (stream vs batch)"),
            );

            // The cached-probe bitmaps must equal a from-scratch linear
            // scan of the Eq. 10 index over the same state grid.
            let grid = detail.state_grid.as_ref().expect("cohort path");
            let bitmaps = detail.bitmaps.as_ref().expect("cohort path");
            for i in 0..index.n_features() {
                assert_eq!(
                    bitmaps[i],
                    index.bitmap_words(i, grid, t_steps, nf),
                    "admission {a} prefix {n}: bitmap {i} diverged from the linear scan"
                );
            }

            // A fresh cache (all full probes) agrees on the state grid.
            let fresh = inf.score_one_with_cache(&oracle, &mut IndexCache::new());
            assert_eq!(
                fresh.state_grid.as_deref(),
                Some(grid.as_slice()),
                "admission {a} prefix {n}: state grid drifted"
            );

            // Thread-count invariance on a sample of prefixes (the
            // parallel path re-batches; every 5th keeps the test brisk).
            if n % 5 == 0 {
                for threads in [1usize, 2, 4] {
                    let par = inf.score_requests_parallel(std::slice::from_ref(&oracle), threads);
                    assert_outputs_bit_eq(
                        &par,
                        &batch,
                        &format!("admission {a} prefix {n} at {threads} threads"),
                    );
                }
            }
        }
    }
}

/// The empty session (no events at all — every column missing) scores
/// identically to the batch pipeline on the all-missing grid.
#[test]
fn all_missing_session_scores_like_batch() {
    let (inf, cfg, scaler) = compiled();
    let mut session = StreamSession::new(cfg, scaler.clone());
    let oracle = batch_reference(&[], &cfg, scaler);
    assert_req_bit_eq(&session.request(), &oracle, "empty session");
    let detail = session.score(&inf);
    let batch = inf.score_requests(std::slice::from_ref(&oracle));
    assert_outputs_bit_eq(&detail.output, &batch, "empty session score");
}

/// Out-of-order arrivals and duplicate timestamps: the documented
/// tie-break (canonical `(ts, value)` order under `total_cmp`; exact
/// duplicates both kept) makes any arrival permutation converge — the
/// session scores bit-identically to the oracle and to a session fed the
/// reverse arrival order.
#[test]
fn out_of_order_and_duplicate_timestamps_converge() {
    let (inf, cfg, scaler) = compiled();
    let ev = |feature, ts, value| StreamEvent { feature, ts, value };
    let events = vec![
        ev(3, 12.0, 7.25),
        ev(3, 2.0, 7.5),   // late delivery: earlier ts after a later one
        ev(3, 12.0, 7.25), // exact duplicate (retried write) — both count
        ev(3, 12.0, 7.31), // same timestamp, different value: ties by value
        ev(5, 0.0, 90.0),
        ev(5, 47.99, 60.0),
        ev(7, 24.0, 1.5),
    ];
    let mut fwd = StreamSession::new(cfg, scaler.clone());
    let mut rev = StreamSession::new(cfg, scaler.clone());
    for e in &events {
        fwd.ingest(*e).unwrap();
    }
    for e in events.iter().rev() {
        rev.ingest(*e).unwrap();
    }
    let oracle = batch_reference(&events, &cfg, scaler);
    assert_req_bit_eq(&fwd.request(), &oracle, "forward arrival");
    assert_req_bit_eq(&rev.request(), &oracle, "reverse arrival");
    let batch = inf.score_requests(std::slice::from_ref(&oracle));
    assert_outputs_bit_eq(&fwd.score(&inf).output, &batch, "forward score");
    assert_outputs_bit_eq(&rev.score(&inf).output, &batch, "reverse score");
}

/// A long stay that crosses the horizon: the window slides in whole-bin
/// steps, old events fall off, late events go stale — and every prefix
/// still matches the oracle, which replays the identical f32 window fold.
#[test]
fn sliding_window_prefixes_match_oracle() {
    let (inf, cfg, scaler) = compiled();
    let ev = |feature, ts, value| StreamEvent { feature, ts, value };
    let events = [
        ev(0, 1.0, 37.0),
        ev(1, 10.0, 80.0),
        ev(0, 47.0, 37.8),
        ev(2, 70.0, 7.3),  // slides the window; t=1h falls off
        ev(0, 5.0, 39.0),  // now stale: behind the window, counted + ignored
        ev(1, 96.0, 75.0), // slides again
        ev(2, 50.0, 7.4),  // stale after the second slide (window starts at 60)
        ev(0, 110.0, 36.5),
    ];
    let mut session = StreamSession::new(cfg, scaler.clone());
    for n in 0..events.len() {
        session.ingest(events[n]).unwrap();
        let oracle = batch_reference(&events[..=n], &cfg, scaler);
        assert_req_bit_eq(&session.request(), &oracle, &format!("slide prefix {n}"));
        let batch = inf.score_requests(std::slice::from_ref(&oracle));
        assert_outputs_bit_eq(
            &session.score(&inf).output,
            &batch,
            &format!("slide prefix {n} score"),
        );
    }
    assert!(session.window_start() > 0.0, "the window must have slid");
    assert_eq!(session.stale_total(), 2, "two events arrived behind it");
}

/// The identity contract holds on the quantized trunk too: a streaming
/// session scored through the int8 inferencer equals the int8 batch path
/// at every prefix (`--quant` serving reuses exactly this pairing).
#[test]
fn quant_trunk_prefixes_are_bit_identical() {
    let (trained, scaler, time_steps) = fixture();
    let table = QuantTable::build(&trained.model, &trained.params);
    let q = QuantInferencer::compile(&trained.model, &trained.params, *time_steps, &table);
    let inf = q.as_inferencer();
    let cfg = StreamConfig::for_inferencer(inf, 48.0);

    let events = &event_streams(1, 0x9a17)[0];
    let mut session = StreamSession::new(cfg, scaler.clone());
    for n in 0..events.len() {
        session.ingest(events[n]).unwrap();
        let oracle = batch_reference(&events[..=n], &cfg, scaler);
        let detail = session.score(inf);
        let batch = q.score_requests(std::slice::from_ref(&oracle));
        assert_outputs_bit_eq(
            &detail.output,
            &batch,
            &format!("quant prefix {n} (stream vs batch)"),
        );
    }
    let (full, reused) = session.probe_stats();
    assert!(
        reused > 0,
        "the incremental cache must reuse probes over a stream (full={full})"
    );
}
