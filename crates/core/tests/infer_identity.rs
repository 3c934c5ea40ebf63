//! The serving contract of [`cohortnet::infer::Inferencer`]:
//!
//! 1. **bit-identity with training forward** — logits from the tape-free
//!    path equal [`CohortNetModel::forward_trace`] logits to the bit;
//! 2. **batch invariance** — a request scores identically alone, in any
//!    batch, and under any worker thread count.

mod common;

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::model::CohortNetModel;
use cohortnet_models::data::make_batch;
use cohortnet_tensor::{Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: value drifted ({x} vs {y})"
        );
    }
}

#[test]
fn scores_match_tape_forward_bitwise() {
    let (trained, prep, _, time_steps) = common::tiny_trained();
    assert!(
        trained.model.discovery.is_some(),
        "fixture must exercise the cohort path"
    );
    let inf = Inferencer::compile(&trained.model, &trained.params, time_steps);
    assert!(inf.has_cohorts());

    let idx: Vec<usize> = (0..8).collect();
    let batch = make_batch(&prep, &idx);
    let mut tape = Tape::new();
    let trace = trained
        .model
        .forward_trace(&mut tape, &trained.params, &batch, false);
    let out = inf.score(&batch.steps, &batch.mask);

    assert_bits_eq(tape.value(trace.logits), &out.logits, "combined logits");
    assert_bits_eq(
        tape.value(trace.mflm.logits),
        &out.base_logits,
        "base logits",
    );
    let cem = trace.cem.as_ref().expect("cohort path active");
    assert_bits_eq(
        tape.value(cem.logits),
        out.cem_logits.as_ref().expect("cem logits present"),
        "cem logits",
    );
}

#[test]
fn untrained_model_without_cohorts_matches_tape() {
    // An untrained (randomly initialised) model without discovery exercises
    // the MFLM-only path, including the FIL/trend ablation toggles.
    for (interactions, trends) in [(true, true), (false, true), (true, false), (false, false)] {
        let mut c = cohortnet_ehr::profiles::mimic3_like(0.05);
        c.n_patients = 12;
        c.time_steps = 3;
        let mut ds = cohortnet_ehr::synth::generate(&c);
        let scaler = cohortnet_ehr::standardize::Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        cfg.use_interactions = interactions;
        cfg.use_trends = trends;
        let prep = cohortnet_models::data::prepare(&ds);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
        let inf = Inferencer::compile(&model, &ps, 3);
        assert!(!inf.has_cohorts());

        let batch = make_batch(&prep, &[0, 1, 2, 3]);
        let mut tape = Tape::new();
        let trace = model.forward_trace(&mut tape, &ps, &batch, false);
        let out = inf.score(&batch.steps, &batch.mask);
        assert_bits_eq(
            tape.value(trace.logits),
            &out.logits,
            &format!("logits (interactions={interactions}, trends={trends})"),
        );
        assert!(out.cem_logits.is_none());
    }
}

fn requests_from(prep: &cohortnet_models::data::Prepared, idx: &[usize]) -> Vec<ScoreRequest> {
    idx.iter()
        .map(|&i| ScoreRequest {
            x: prep.patients[i].x.clone(),
            mask: prep.patients[i].mask.clone(),
        })
        .collect()
}

#[test]
fn request_scores_do_not_depend_on_batch_composition() {
    let (trained, prep, _, time_steps) = common::tiny_trained();
    let inf = Inferencer::compile(&trained.model, &trained.params, time_steps);
    let idx: Vec<usize> = (0..10).collect();
    let reqs = requests_from(&prep, &idx);

    // Full batch at once.
    let full = inf.score_requests(&reqs);
    // Each request alone.
    for (r, req) in reqs.iter().enumerate() {
        let solo = inf.score_requests(std::slice::from_ref(req));
        for l in 0..solo.logits.cols() {
            assert_eq!(
                solo.logits[(0, l)].to_bits(),
                full.logits[(r, l)].to_bits(),
                "request {r} scored differently alone vs in the batch"
            );
            assert_eq!(
                solo.probs[(0, l)].to_bits(),
                full.probs[(r, l)].to_bits(),
                "request {r} prob drifted"
            );
        }
    }
    // An arbitrary sub-batch in a different order.
    let sub = inf.score_requests(&requests_from(&prep, &[7, 2, 5]));
    for (row, &orig) in [7usize, 2, 5].iter().enumerate() {
        assert_eq!(
            sub.logits[(row, 0)].to_bits(),
            full.logits[(orig, 0)].to_bits(),
            "batch composition changed request {orig}'s score"
        );
    }
}

#[test]
fn scores_are_invariant_to_worker_threads() {
    let (trained, prep, _, time_steps) = common::tiny_trained();
    let inf = Inferencer::compile(&trained.model, &trained.params, time_steps);
    let reqs = requests_from(&prep, &(0..9).collect::<Vec<_>>());

    let baseline = inf.score_requests(&reqs);
    for workers in [1usize, 2, 4] {
        let out = inf.score_requests_parallel(&reqs, workers);
        assert_bits_eq(
            &baseline.logits,
            &out.logits,
            &format!("logits at workers={workers}"),
        );
        assert_bits_eq(
            &baseline.probs,
            &out.probs,
            &format!("probs at workers={workers}"),
        );
    }
}
