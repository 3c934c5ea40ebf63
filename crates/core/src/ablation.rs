//! The `CohortNet w c-` ablation (§4.1): keeps the MFLM backbone but
//! replaces feature-level cohort discovery with direct K-Means over
//! patients' *overall* representations `h̃`, and replaces CEM's
//! pattern-indexed attention with nearest-centroid lookup. The paper uses
//! this variant to show that coarse patient-level cohorts "cannot capture
//! sufficient information" — our Fig. 6 harness reproduces that gap.

use crate::config::CohortNetConfig;
use crate::mflm::Mflm;
use cohortnet_clustering::{kmeans_fit, KMeansConfig};
use cohortnet_models::data::{make_batch, Batch, Prepared};
use cohortnet_models::traits::Forward;
use cohortnet_tensor::nn::Linear;
use cohortnet_tensor::{Eager, Exec, Matrix, ParamStore};
use rand::rngs::StdRng;

/// `CohortNet w c-`: MFLM + patient-level K-Means cohorts.
pub struct CohortNetWcMinus {
    mflm: Mflm,
    calib_head: Linear,
    tilde_dim: usize,
    n_clusters: usize,
    /// Flattened `n_clusters x (tilde_dim + n_labels)` coarse-cohort
    /// representations (centroid + label distribution).
    cohorts: Vec<f32>,
    repr_dim: usize,
}

impl CohortNetWcMinus {
    /// Builds the ablation model.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        cfg: &CohortNetConfig,
        n_clusters: usize,
    ) -> Self {
        let mflm = Mflm::new(ps, rng, cfg);
        let tilde_dim = cfg.n_features() * cfg.d_agg;
        let repr_dim = tilde_dim + cfg.n_labels;
        CohortNetWcMinus {
            mflm,
            calib_head: Linear::new(ps, rng, "wcminus.calib", repr_dim, cfg.n_labels),
            tilde_dim,
            n_clusters,
            cohorts: Vec::new(),
            repr_dim,
        }
    }

    /// `h̃` of every patient in `prep` (row per patient), computed without
    /// a graph.
    fn all_tilde(&self, ps: &ParamStore, prep: &Prepared) -> Matrix {
        let indices: Vec<usize> = (0..prep.patients.len()).collect();
        let mut rows = Vec::with_capacity(prep.patients.len() * self.tilde_dim);
        let mut e = Eager::new(ps);
        for chunk in indices.chunks(64) {
            let batch = make_batch(prep, chunk);
            let trace = self.mflm.forward(&mut e, ps, &batch, false);
            rows.extend_from_slice(e.value(&trace.tilde_h).as_slice());
        }
        Matrix::from_vec(prep.patients.len(), self.tilde_dim, rows)
    }

    /// The nearest coarse cohort's representation for each row of `tilde`
    /// (the "K-Means in CEM" of the ablation description).
    fn knowledge(&self, tilde: &Matrix) -> Matrix {
        let k = self.n_cohorts();
        let mut knowledge = Matrix::zeros(tilde.rows(), self.repr_dim);
        for r in 0..tilde.rows() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let centroid = &self.cohorts[c * self.repr_dim..c * self.repr_dim + self.tilde_dim];
                let d: f64 = tilde
                    .row(r)
                    .iter()
                    .zip(centroid)
                    .map(|(&a, &b)| {
                        let d = (a - b) as f64;
                        d * d
                    })
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            knowledge
                .row_mut(r)
                .copy_from_slice(&self.cohorts[best * self.repr_dim..(best + 1) * self.repr_dim]);
        }
        knowledge
    }

    /// Number of coarse cohorts currently held.
    pub fn n_cohorts(&self) -> usize {
        self.cohorts.len() / self.repr_dim.max(1)
    }
}

impl Forward for CohortNetWcMinus {
    fn name(&self) -> &'static str {
        "CohortNet w c-"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let trace = self.mflm.forward(e, ps, batch, false);
        if self.cohorts.is_empty() {
            return trace.logits;
        }
        // Nearest-centroid lookup in h̃ space — the matched coarse cohort
        // enters as a constant calibration input.
        let knowledge = self.knowledge(e.value(&trace.tilde_h));
        let kn = e.constant(knowledge);
        let calib = self.calib_head.forward(e, ps, &kn);
        e.add(&trace.logits, &calib)
    }

    fn refresh(&mut self, ps: &ParamStore, prep: &Prepared, rng: &mut StdRng) {
        let reps = self.all_tilde(ps, prep);
        let km = kmeans_fit(
            reps.as_slice(),
            self.tilde_dim,
            KMeansConfig {
                k: self.n_clusters,
                max_iter: 20,
                tol: 1e-4,
            },
            rng,
        );
        // Attach label distributions to each coarse cohort.
        let n_labels = self.repr_dim - self.tilde_dim;
        self.cohorts.clear();
        for c in 0..km.k {
            self.cohorts.extend_from_slice(km.centroid(c));
            let members: Vec<usize> = (0..reps.rows())
                .filter(|&r| km.assignments[r] == c)
                .collect();
            for l in 0..n_labels {
                let pos = members
                    .iter()
                    .filter(|&&r| prep.patients[r].labels_u8[l] != 0)
                    .count();
                self.cohorts.push(pos as f32 / members.len().max(1) as f32);
            }
        }
    }

    fn needs_refresh(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::prepare;
    use cohortnet_models::trainer::{train, TrainConfig};
    use rand::SeedableRng;

    fn setup() -> (CohortNetConfig, Prepared) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 80;
        c.time_steps = 5;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        (CohortNetConfig::for_dataset(&ds, &scaler), prepare(&ds))
    }

    #[test]
    fn refresh_builds_coarse_cohorts_with_labels() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = CohortNetWcMinus::new(&mut ps, &mut rng, &cfg, 4);
        assert_eq!(m.n_cohorts(), 0);
        m.refresh(&ps, &prep, &mut rng);
        assert_eq!(m.n_cohorts(), 4);
    }

    #[test]
    fn trains_without_errors() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = CohortNetWcMinus::new(&mut ps, &mut rng, &cfg, 4);
        let stats = train(
            &mut m,
            &mut ps,
            &prep,
            &TrainConfig {
                epochs: 2,
                batch_size: 32,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(
            stats.preprocess_sec > 0.0,
            "refresh time should be recorded"
        );
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
    }
}
