//! ConCare baseline (Ma et al., 2020).
//!
//! "embeds each time-series medical feature separately and employs a
//! self-attention model to learn the relationships among these features":
//! one GRU channel per feature over that feature's scalar series, then
//! scaled-dot self-attention across the per-feature final states, then a
//! prediction head over the attended feature representations.

use crate::data::Batch;
use crate::traits::Forward;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Exec, ParamStore};
use rand::rngs::StdRng;

/// ConCare: per-feature GRU channels + cross-feature self-attention.
#[derive(Debug, Clone)]
pub struct ConCareModel {
    channels: Vec<GruCell>,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    head: Linear,
    channel_dim: usize,
}

impl ConCareModel {
    /// Builds the model, registering parameters in `ps`. `channel_dim` is
    /// the per-feature GRU hidden width (kept small — there are `|F|`
    /// channels).
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        channel_dim: usize,
    ) -> Self {
        let channels = (0..n_features)
            .map(|f| GruCell::new(ps, rng, &format!("concare.ch{f}"), 1, channel_dim))
            .collect();
        ConCareModel {
            channels,
            wq: Linear::new(ps, rng, "concare.wq", channel_dim, channel_dim),
            wk: Linear::new(ps, rng, "concare.wk", channel_dim, channel_dim),
            wv: Linear::new(ps, rng, "concare.wv", channel_dim, channel_dim),
            head: Linear::new(ps, rng, "concare.head", n_features * channel_dim, n_labels),
            channel_dim,
        }
    }

    /// Per-feature final representations `(batch x channel_dim)` each.
    fn channel_states<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> Vec<E::V> {
        // Pre-slice each step once into per-feature columns.
        let step_vars: Vec<E::V> = batch.steps.iter().map(|m| e.constant(m.clone())).collect();
        self.channels
            .iter()
            .enumerate()
            .map(|(f, channel)| {
                let mut h = channel.init_state(e, batch.size);
                for sv in &step_vars {
                    let x = e.slice_cols(sv, f, f + 1);
                    h = channel.step(e, ps, &x, &h);
                }
                h
            })
            .collect()
    }
}

impl Forward for ConCareModel {
    fn name(&self) -> &'static str {
        "ConCare"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let hs = self.channel_states(e, ps, batch);
        let nf = hs.len();
        let scale = 1.0 / (self.channel_dim as f32).sqrt();
        // Projections.
        let qs: Vec<E::V> = hs.iter().map(|h| self.wq.forward(e, ps, h)).collect();
        let ks: Vec<E::V> = hs.iter().map(|h| self.wk.forward(e, ps, h)).collect();
        let vs: Vec<E::V> = hs.iter().map(|h| self.wv.forward(e, ps, h)).collect();
        // Scaled-dot attention per query feature.
        let mut contexts = Vec::with_capacity(nf);
        for q in &qs {
            let mut scores = Vec::with_capacity(nf);
            for k in &ks {
                let qk = e.mul(q, k);
                let s = e.sum_cols(&qk);
                scores.push(e.scale(&s, scale));
            }
            let score_mat = e.concat_cols(&scores);
            let alpha = e.softmax_rows(&score_mat);
            let mut ctx: Option<E::V> = None;
            for (j, v) in vs.iter().enumerate() {
                let a_j = e.slice_cols(&alpha, j, j + 1);
                let w = e.mul_col_broadcast(v, &a_j);
                ctx = Some(match ctx {
                    Some(c) => e.add(&c, &w),
                    None => w,
                });
            }
            contexts.push(ctx.expect("at least one feature"));
        }
        let joined = e.concat_cols(&contexts);
        self.head.forward(e, ps, &joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(12);
        let mut model = ConCareModel::new(&mut ps, &mut rng, prep.n_features, 1, 6);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn channel_count_matches_features() {
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(13);
        let model = ConCareModel::new(&mut ps, &mut rng, 7, 1, 4);
        assert_eq!(model.channels.len(), 7);
    }
}
