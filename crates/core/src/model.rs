//! The full CohortNet model: MFLM + (after discovery) CDM/CRLM artefacts +
//! CEM, combined by Eq. 14: `ỹ = σ(w^p·h̃ + b^p + w^c·ĥ)`.
//!
//! The forward ([`CohortNetModel::forward_with`]) is generic over the
//! executor: training and interpretation record it on a
//! [`cohortnet_tensor::Tape`] through [`CohortNetModel::forward_trace`];
//! prediction ([`cohortnet_models::SequenceModel::predict`]) and serving (see
//! [`crate::infer`]) run the same definition on the eager executor.

use crate::cem::{Cem, CemTrace, CohortKv, CohortMask};
use crate::config::CohortNetConfig;
use crate::discover::{batch_states, discover, Discovery};
use crate::mflm::{Mflm, MflmTrace};
use cohortnet_models::data::{Batch, Prepared};
use cohortnet_models::traits::Forward;
use cohortnet_tensor::{Exec, ParamStore, Var};
use rand::rngs::StdRng;

/// CohortNet: the paper's model.
///
/// Freshly constructed it runs MFLM only (the `w/o c` configuration); after
/// [`CohortNetModel::run_discovery`] the forward pass applies the full
/// cohort-calibrated prediction.
#[derive(Debug, Clone)]
pub struct CohortNetModel {
    /// Multi-channel Feature Learning Module.
    pub mflm: Mflm,
    /// Cohort Exploitation Module.
    pub cem: Cem,
    /// Discovery artefacts (states + pool), present after Step 2/3.
    pub discovery: Option<Discovery>,
    /// Hyper-parameters.
    pub cfg: CohortNetConfig,
    label: &'static str,
}

/// Full forward trace for interpretation. `V` and `G` are the executor's
/// value and group types ([`Var`] and `Vec<Var>` on a tape).
pub struct FullTrace<V = Var, G = Vec<V>> {
    /// Combined logits (Eq. 14).
    pub logits: V,
    /// MFLM trace (individual-data path).
    pub mflm: MflmTrace<V, G>,
    /// CEM trace, when cohorts are active.
    pub cem: Option<CemTrace<V>>,
    /// Per-patient state grids `(batch x (T x F))`, when cohorts are active.
    pub states: Option<Vec<u8>>,
}

impl CohortNetModel {
    /// Builds an untrained CohortNet (no cohorts yet).
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, cfg: &CohortNetConfig) -> Self {
        CohortNetModel {
            mflm: Mflm::new(ps, rng, cfg),
            cem: Cem::new(ps, rng, cfg),
            discovery: None,
            cfg: cfg.clone(),
            label: "CohortNet",
        }
    }

    /// Builds the `CohortNet w/o c` ablation: identical MFLM, but discovery
    /// is never run, so prediction uses `h̃` alone.
    pub fn new_without_cohorts(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        cfg: &CohortNetConfig,
    ) -> Self {
        let mut m = Self::new(ps, rng, cfg);
        m.label = "CohortNet w/o c";
        m
    }

    /// Runs Steps 2 + 3 (cohort discovery and representation learning) over
    /// the training set, enabling cohort exploitation in later forwards.
    pub fn run_discovery(
        &mut self,
        ps: &ParamStore,
        prep: &Prepared,
        rng: &mut StdRng,
    ) -> &Discovery {
        let d = discover(&self.mflm, ps, prep, &self.cfg, rng);
        self.discovery = Some(d);
        self.discovery.as_ref().unwrap()
    }

    /// [`CohortNetModel::run_discovery`] with a selectable state-clustering
    /// backend and sample ratio (Appendix C.2 / Fig. 14 comparison).
    pub fn run_discovery_with_algo(
        &mut self,
        ps: &ParamStore,
        prep: &Prepared,
        algo: crate::cdm::StateClusterAlgo,
        sample_ratio: f32,
        rng: &mut StdRng,
    ) -> &Discovery {
        let d = crate::discover::discover_with_algo(
            &self.mflm,
            ps,
            prep,
            &self.cfg,
            algo,
            sample_ratio,
            rng,
        );
        self.discovery = Some(d);
        self.discovery.as_ref().unwrap()
    }

    /// Full forward pass returning every interpretable intermediate: the
    /// cohort keys/values are projected for this batch and the Eq. 10
    /// bitmaps read from the discovered [`crate::crlm::CohortPool`].
    pub fn forward_trace<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        batch: &Batch,
        record_attention_steps: bool,
    ) -> FullTrace<E::V, E::G> {
        let Some(d) = &self.discovery else {
            return self.forward_with(t, ps, batch, record_attention_steps, &[], |_| Vec::new());
        };
        let kv = self.cem.project_cohorts(t, ps, &d.pool);
        let nf = self.mflm.n_features();
        let t_steps = batch.steps.len();
        let pool_masks = |states: &[u8]| {
            (0..nf)
                .map(|i| {
                    let nc = d.pool.per_feature[i].len();
                    (nc > 0).then(|| {
                        let bits: Vec<Vec<bool>> = states
                            .chunks(t_steps * nf)
                            .map(|grid| d.pool.bitmap(i, grid, t_steps, nf))
                            .collect();
                        CohortMask::from_fn(batch.size, nc, |r, q| bits[r][q])
                    })
                })
                .collect()
        };
        self.forward_with(t, ps, batch, record_attention_steps, &kv, pool_masks)
    }

    /// The model's forward (MFLM, state assignment, CEM and Eq. 14) over
    /// caller-supplied cohort inputs: `kv` from [`Cem::project_cohorts`] and
    /// `masks`, which turns the batch's `(batch x (T x F))` state grid into
    /// each feature's Eq. 10 mask. Both are ignored without discovery.
    pub fn forward_with<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        batch: &Batch,
        record_attention_steps: bool,
        kv: &[CohortKv<E::V>],
        masks: impl FnOnce(&[u8]) -> Vec<Option<CohortMask>>,
    ) -> FullTrace<E::V, E::G> {
        let mflm_trace = self.mflm.forward(t, ps, batch, record_attention_steps);
        let Some(d) = &self.discovery else {
            return FullTrace {
                logits: mflm_trace.logits.clone(),
                mflm: mflm_trace,
                cem: None,
                states: None,
            };
        };
        // Assign feature states for the batch, then per-feature bitmaps.
        let states = batch_states(t, &mflm_trace, batch, &d.states);
        let h_final = t.ungroup(&mflm_trace.h_final);
        let cem_trace = self
            .cem
            .forward(t, ps, kv, &h_final, masks(&states), batch.size);
        let logits = t.add(&mflm_trace.logits, &cem_trace.logits);
        FullTrace {
            logits,
            mflm: mflm_trace,
            cem: Some(cem_trace),
            states: Some(states),
        }
    }
}

impl Forward for CohortNetModel {
    fn name(&self) -> &'static str {
        self.label
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        self.forward_trace(e, ps, batch, false).logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::{make_batch, prepare};
    use cohortnet_models::SequenceModel;
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    fn setup() -> (CohortNetConfig, Prepared) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 60;
        c.time_steps = 5;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        cfg.k_states = 4;
        cfg.min_frequency = 3;
        cfg.min_patients = 2;
        cfg.state_fit_samples = 1000;
        (cfg, prepare(&ds))
    }

    #[test]
    fn forward_without_cohorts_is_mflm_only() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = model.forward_trace(&mut tape, &ps, &batch, false);
        assert!(trace.cem.is_none());
        assert_eq!(tape.value(trace.logits).shape(), (2, 1));
    }

    #[test]
    fn forward_with_cohorts_adds_calibration() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
        model.run_discovery(&ps, &prep, &mut rng);
        let batch = make_batch(&prep, &[0, 1, 2]);
        let mut tape = Tape::new();
        let trace = model.forward_trace(&mut tape, &ps, &batch, false);
        assert!(trace.cem.is_some());
        assert!(trace.states.is_some());
        // Eq. 14: combined logits differ from the MFLM-only logits whenever
        // calibration is non-zero.
        let combined = tape.value(trace.logits).clone();
        let base = tape.value(trace.mflm.logits).clone();
        let cem_logits = tape.value(trace.cem.as_ref().unwrap().logits).clone();
        for r in 0..3 {
            assert!((combined[(r, 0)] - base[(r, 0)] - cem_logits[(r, 0)]).abs() < 1e-5);
        }
    }

    #[test]
    fn trainable_end_to_end_with_cohorts() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
        model.run_discovery(&ps, &prep, &mut rng);
        let batch = make_batch(&prep, &[0, 1, 2, 3]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        let loss = tape.bce_with_logits(logits, batch.labels.clone());
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        assert!(ps.grad_norm() > 0.0);
        assert!(tape.value(loss).all_finite());
    }

    #[test]
    fn ablation_label() {
        let (cfg, _) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let m = CohortNetModel::new_without_cohorts(&mut ps, &mut rng, &cfg);
        assert_eq!(m.name(), "CohortNet w/o c");
    }
}
