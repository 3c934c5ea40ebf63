//! Tape node budget of one batch-1 training forward.
//!
//! Each grouped op — BiEL, the shared-weight `Linear`s, the per-feature
//! GRUs and FIL's pairwise attention — is recorded as one stacked node plus
//! one row view per feature block, instead of its per-feature (and, for
//! FIL, per-pair) primitive nodes with a weight-copy leaf per use. This
//! test counts the nodes `forward_trace` records on a tape for a single
//! patient of an untrained F = 20, T = 12 model, with and without cohorts,
//! so a change that slips back into per-feature nodes fails here instead of
//! only showing up as training time.
//!
//! Measured the same way, the fully per-pair recording made 46,649
//! (cohorts) and 46,225 (no cohorts) nodes; stacking only the attention
//! ops, 18,113 and 17,689; stacking every grouped op but `concat_blocks`,
//! 2,998 and 2,574. The budget leaves about 10% over the larger new count.

use cohortnet::config::CohortNetConfig;
use cohortnet::model::CohortNetModel;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::{make_batch, prepare, Prepared};
use cohortnet_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node budget of one batch-1 `forward_trace` on a tape.
const BUDGET: usize = 3_300;

fn data() -> (Prepared, CohortNetConfig) {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 60;
    c.time_steps = 12;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 1000;
    cfg.verbose = false;
    (prepare(&ds), cfg)
}

#[test]
fn batch1_forward_stays_within_tape_node_budget() {
    let (prep, cfg) = data();
    assert_eq!(prep.n_features, 20);
    assert_eq!(prep.time_steps, 12);
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let plain = CohortNetModel::new(&mut ps, &mut rng, &cfg);
    let mut cohorts = plain.clone();
    cohorts.run_discovery(&ps, &prep, &mut rng);
    let batch = make_batch(&prep, &[0]);
    for (what, model) in [("cohorts", &cohorts), ("no cohorts", &plain)] {
        assert_eq!(model.discovery.is_some(), what == "cohorts");
        let mut tape = Tape::new();
        model.forward_trace(&mut tape, &ps, &batch, false);
        let n = tape.len();
        eprintln!("{what}: {n} tape nodes per batch-1 forward");
        assert!(
            n <= BUDGET,
            "{what}: a batch-1 forward recorded {n} tape nodes, over the budget of {BUDGET}"
        );
    }
}
