//! Golden-bit pins of the CohortNet forward pass.
//!
//! `infer_identity` proves the serving forward equals the training forward;
//! once both run one definition that comparison can no longer see a change
//! in the numerics themselves. These pins can: they fix the exact `to_bits`
//! logits of small fixed-seed trained models, for every
//! `use_interactions × use_trends` ablation with cohort discovery active
//! (f32 tape, f32 serving and int8 serving), and for a model trained without
//! cohorts. A refactor of the forward that keeps every output element's
//! operation order leaves all of them unchanged.

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::quant::{QuantInferencer, QuantTable};
use cohortnet::train::{train_cohortnet, train_without_cohorts, TrainedCohortNet};
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::{make_batch, prepare, Prepared};
use cohortnet_tensor::{Matrix, Tape};

const TIME_STEPS: usize = 3;
const N_SCORED: usize = 6;

fn data() -> (Prepared, CohortNetConfig) {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 40;
    c.time_steps = TIME_STEPS;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 800;
    cfg.epochs_pretrain = 1;
    cfg.epochs_exploit = 1;
    cfg.batch_size = 16;
    cfg.verbose = false;
    (prepare(&ds), cfg)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn requests(prep: &Prepared) -> Vec<ScoreRequest> {
    prep.patients[..N_SCORED]
        .iter()
        .map(|p| ScoreRequest {
            x: p.x.clone(),
            mask: p.mask.clone(),
        })
        .collect()
}

/// `(tape f32, serving f32, serving int8)` logits of the first patients.
fn logits(trained: &TrainedCohortNet, prep: &Prepared) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let batch = make_batch(prep, &(0..N_SCORED).collect::<Vec<_>>());
    let mut tape = Tape::new();
    let trace = trained
        .model
        .forward_trace(&mut tape, &trained.params, &batch, false);
    let tape_bits = bits(tape.value(trace.logits));

    let reqs = requests(prep);
    let f32_out =
        Inferencer::compile(&trained.model, &trained.params, TIME_STEPS).score_requests(&reqs);
    let table = QuantTable::build(&trained.model, &trained.params);
    let q_out = QuantInferencer::compile(&trained.model, &trained.params, TIME_STEPS, &table)
        .score_requests(&reqs);
    if trained.model.discovery.is_some() {
        let cem = f32_out.cem_logits.as_ref().expect("cohort path active");
        assert!(
            cem.as_slice().iter().any(|&v| v != 0.0),
            "the pinned fixture must exercise a non-zero cohort calibration"
        );
    }
    (tape_bits, bits(&f32_out.logits), bits(&q_out.logits))
}

fn assert_pinned(what: &str, got: &[u32], want: &[u32]) {
    assert_eq!(
        got, want,
        "{what}: logits moved; got {got:#010x?}, pinned {want:#010x?}"
    );
}

/// The logits' bits of the scored patients.
type Pins = [u32; N_SCORED];

/// Golden logits per `(use_interactions, use_trends)`: f32 (tape and serving
/// agree) then int8.
const COHORT_PINS: [((bool, bool), Pins, Pins); 4] = [
    (
        (true, true),
        [
            0xbf0436e9, 0xbf082a83, 0xbf029c6a, 0xbf112474, 0xbefae3b0, 0xbf05068f,
        ],
        [
            0xbf03dc81, 0xbf083c16, 0xbf030c23, 0xbf11a609, 0xbefaecda, 0xbf04c838,
        ],
    ),
    (
        (false, true),
        [
            0xbf071fa0, 0xbf079617, 0xbefdd9c4, 0xbf138a9f, 0xbef9fb1d, 0xbeff643d,
        ],
        [
            0xbf073879, 0xbf07ab47, 0xbefdab92, 0xbf12e172, 0xbef9b3cd, 0xbeff9a8f,
        ],
    ),
    (
        (true, false),
        [
            0xbef0adb1, 0xbefd2595, 0xbeeec740, 0xbefcd3f6, 0xbee92cf6, 0xbeeefe0c,
        ],
        [
            0xbef12366, 0xbefd7732, 0xbeef2132, 0xbefd4208, 0xbee8e678, 0xbeef32ef,
        ],
    ),
    (
        (false, false),
        [
            0xbef80991, 0xbf00b705, 0xbeec5bee, 0xbf03e5b4, 0xbee90d15, 0xbee5b193,
        ],
        [
            0xbef8a0d4, 0xbf010200, 0xbeec7eea, 0xbf03e637, 0xbee89a6b, 0xbee65e84,
        ],
    ),
];

const NO_COHORT_F32: [u32; N_SCORED] = [
    0xbefd5fce, 0xbf02093c, 0xbefdf4fb, 0xbf0a0034, 0xbef0b8f7, 0xbeff94c1,
];
const NO_COHORT_INT8: [u32; N_SCORED] = [
    0xbefd2186, 0xbf010fc8, 0xbefd6e1d, 0xbf0a0547, 0xbef11954, 0xbeff5f2c,
];

#[test]
fn cohort_model_logits_are_pinned_for_every_ablation() {
    for ((interactions, trends), want_f32, want_int8) in COHORT_PINS {
        let (prep, mut cfg) = data();
        cfg.use_interactions = interactions;
        cfg.use_trends = trends;
        let trained = train_cohortnet(&prep, &cfg);
        let d = trained.model.discovery.as_ref().expect("discovery ran");
        assert!(d.pool.total_cohorts() > 0, "fixture discovered no cohorts");
        let (tape, f32_bits, int8_bits) = logits(&trained, &prep);
        let tag = format!("interactions={interactions} trends={trends}");
        assert_pinned(&format!("{tag} tape f32"), &tape, &want_f32);
        assert_pinned(&format!("{tag} serving f32"), &f32_bits, &want_f32);
        assert_pinned(&format!("{tag} serving int8"), &int8_bits, &want_int8);
    }
}

#[test]
fn no_cohort_model_logits_are_pinned() {
    let (prep, cfg) = data();
    let trained = train_without_cohorts(&prep, &cfg);
    assert!(trained.model.discovery.is_none());
    let (tape, f32_bits, int8_bits) = logits(&trained, &prep);
    assert_pinned("no-cohort tape f32", &tape, &NO_COHORT_F32);
    assert_pinned("no-cohort serving f32", &f32_bits, &NO_COHORT_F32);
    assert_pinned("no-cohort serving int8", &int8_bits, &NO_COHORT_INT8);
}
