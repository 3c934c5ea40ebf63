//! Every model's one forward gives the same logits on both executors.
//!
//! Each baseline and the `CohortNet w c-` ablation write their forward once,
//! generic over `Exec`: training records it on a `Tape`, and
//! `SequenceModel::predict` runs it on the value-only `Eager` executor. For
//! each of the nine baselines and `w c-`, after one `refresh` on a tiny
//! prepared set (so GRASP's clusters, PPN's prototypes and the coarse
//! cohorts are live), `predict` must return the `to_bits` values of the same
//! forward recorded on a tape — at batch 1 and batch 5, on every SIMD
//! backend the CPU supports.

use cohortnet::ablation::CohortNetWcMinus;
use cohortnet::config::CohortNetConfig;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::baselines::*;
use cohortnet_models::data::{make_batch, prepare, Prepared};
use cohortnet_models::SequenceModel;
use cohortnet_tensor::simd::{set_backend, supported_backends};
use cohortnet_tensor::{Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data() -> (Prepared, CohortNetConfig) {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 40;
    c.time_steps = 4;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    (prepare(&ds), cfg)
}

/// The ten models, each over its own fixed-seed store, refreshed once.
fn models(prep: &Prepared, cfg: &CohortNetConfig) -> Vec<(Box<dyn SequenceModel>, ParamStore)> {
    let (nf, nl) = (prep.n_features, prep.n_labels);
    type Build =
        fn(&mut ParamStore, &mut StdRng, usize, usize, &CohortNetConfig) -> Box<dyn SequenceModel>;
    let builds: [Build; 10] = [
        |ps, rng, nf, nl, _| Box::new(LstmModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(GruModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(RetainModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(DipoleModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(StageNetModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(TLstmModel::new(ps, rng, nf, nl, 8)),
        |ps, rng, nf, nl, _| Box::new(ConCareModel::new(ps, rng, nf, nl, 4)),
        |ps, rng, nf, nl, _| Box::new(GraspModel::new(ps, rng, nf, nl, 8, 3)),
        |ps, rng, nf, nl, _| Box::new(PpnModel::new(ps, rng, nf, nl, 8, 3)),
        |ps, rng, _, _, cfg| Box::new(CohortNetWcMinus::new(ps, rng, cfg, 3)),
    ];
    builds
        .iter()
        .enumerate()
        .map(|(i, build)| {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut model = build(&mut ps, &mut rng, nf, nl, cfg);
            model.refresh(&ps, prep, &mut rng);
            (model, ps)
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn predict_equals_the_tape_forward_bitwise() {
    let (prep, cfg) = data();
    let models = models(&prep, &cfg);
    let batches = [
        make_batch(&prep, &[7]),
        make_batch(&prep, &[0, 3, 11, 20, 33]),
    ];
    for backend in supported_backends() {
        assert!(set_backend(backend));
        for (model, ps) in &models {
            for batch in &batches {
                let mut tape = Tape::new();
                let logits = model.forward(&mut tape, ps, batch);
                let want = tape.value(logits);
                let got = model.predict(ps, batch);
                assert_eq!(got.shape(), want.shape());
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "{} at batch {} on {}: predict drifted from the tape",
                    model.name(),
                    batch.size,
                    backend.name()
                );
            }
        }
    }
}
