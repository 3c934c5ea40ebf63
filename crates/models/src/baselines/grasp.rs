//! GRASP baseline (Zhang et al., 2021).
//!
//! "relies on a backbone model to learn patients' general representations,
//! uses K-Means to find a group of similar patients, and applies K-NN to
//! integrate the groups' information". Before each epoch the current
//! training representations are clustered; at prediction time each patient
//! is routed to its nearest cluster (K-NN with K = cluster size, i.e.
//! nearest centroid) and the centroid is concatenated to the individual
//! representation as auxiliary knowledge. Centroids enter the graph as
//! constants — gradients flow through the individual path, matching GRASP's
//! use of cluster knowledge as non-parametric memory.

use crate::data::{make_batch, Batch, Prepared};
use crate::traits::Forward;
use cohortnet_clustering::{kmeans_fit, KMeansConfig};
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Eager, Exec, Matrix, ParamStore};
use rand::rngs::StdRng;

/// GRASP: GRU backbone + batch-level cluster knowledge.
#[derive(Debug, Clone)]
pub struct GraspModel {
    backbone: GruCell,
    head: Linear,
    hidden: usize,
    n_clusters: usize,
    /// Flattened `n_clusters x hidden` centroids from the last refresh.
    centroids: Vec<f32>,
}

impl GraspModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
        n_clusters: usize,
    ) -> Self {
        GraspModel {
            backbone: GruCell::new(ps, rng, "grasp.backbone", n_features, hidden),
            head: Linear::new(ps, rng, "grasp.head", 2 * hidden, n_labels),
            hidden,
            n_clusters,
            centroids: Vec::new(),
        }
    }

    fn backbone_forward<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let mut h = self.backbone.init_state(e, batch.size);
        for step in &batch.steps {
            let x = e.constant(step.clone());
            h = self.backbone.step(e, ps, &x, &h);
        }
        h
    }

    /// Representations of every patient in `prep` (row per patient),
    /// computed without a graph.
    pub fn representations(&self, ps: &ParamStore, prep: &Prepared) -> Matrix {
        let indices: Vec<usize> = (0..prep.patients.len()).collect();
        let mut rows: Vec<f32> = Vec::with_capacity(prep.patients.len() * self.hidden);
        let mut e = Eager::new(ps);
        for chunk in indices.chunks(128) {
            let batch = make_batch(prep, chunk);
            let h = self.backbone_forward(&mut e, ps, &batch);
            rows.extend_from_slice(e.value(&h).as_slice());
        }
        Matrix::from_vec(prep.patients.len(), self.hidden, rows)
    }

    /// Nearest-centroid row for each row of `reps`, as a constant matrix.
    fn cluster_knowledge(&self, reps: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(reps.rows(), self.hidden);
        if self.centroids.is_empty() {
            return out; // before the first refresh: no knowledge yet
        }
        let k = self.centroids.len() / self.hidden;
        for r in 0..reps.rows() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d: f64 = reps
                    .row(r)
                    .iter()
                    .zip(&self.centroids[c * self.hidden..(c + 1) * self.hidden])
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
            out.row_mut(r)
                .copy_from_slice(&self.centroids[best * self.hidden..(best + 1) * self.hidden]);
        }
        out
    }
}

impl Forward for GraspModel {
    fn name(&self) -> &'static str {
        "GRASP"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let h = self.backbone_forward(e, ps, batch);
        // Route each sample to its nearest cluster; centroid is constant.
        let knowledge = self.cluster_knowledge(e.value(&h));
        let kn = e.constant(knowledge);
        let joined = e.concat_cols(&[&h, &kn]);
        self.head.forward(e, ps, &joined)
    }

    fn refresh(&mut self, ps: &ParamStore, prep: &Prepared, rng: &mut StdRng) {
        let reps = self.representations(ps, prep);
        let km = kmeans_fit(
            reps.as_slice(),
            self.hidden,
            KMeansConfig {
                k: self.n_clusters,
                max_iter: 20,
                tol: 1e-4,
            },
            rng,
        );
        self.centroids = km.centroids;
    }

    fn needs_refresh(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};
    use crate::SequenceModel;
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(14);
        let mut model = GraspModel::new(&mut ps, &mut rng, prep.n_features, 1, 16, 4);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn refresh_populates_centroids() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(15);
        let mut model = GraspModel::new(&mut ps, &mut rng, prep.n_features, 1, 8, 3);
        assert!(model.centroids.is_empty());
        model.refresh(&ps, &prep, &mut rng);
        assert_eq!(model.centroids.len(), 3 * 8);
    }

    #[test]
    fn cluster_knowledge_changes_predictions() {
        // GRASP's whole point: cluster knowledge must influence the output.
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(19);
        let mut model = GraspModel::new(&mut ps, &mut rng, prep.n_features, 1, 8, 3);
        let batch = make_batch(&prep, &[0, 1, 2]);
        let mut t1 = Tape::new();
        let logits1 = model.forward(&mut t1, &ps, &batch);
        let before = t1.value(logits1).clone();
        model.refresh(&ps, &prep, &mut rng);
        let mut t2 = Tape::new();
        let logits2 = model.forward(&mut t2, &ps, &batch);
        let after = t2.value(logits2).clone();
        assert_ne!(before, after, "cluster knowledge had no effect on logits");
    }

    #[test]
    fn forward_works_before_first_refresh() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(16);
        let model = GraspModel::new(&mut ps, &mut rng, prep.n_features, 1, 8, 3);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        assert!(tape.value(logits).all_finite());
    }
}
