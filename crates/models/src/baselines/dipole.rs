//! Dipole baseline (Ma et al., 2017).
//!
//! "adopts a bidirectional GRU and devises attention mechanisms to calculate
//! the relationships among time steps": forward and backward GRU passes are
//! concatenated per step, a location-based attention scores every step, and
//! the attention-weighted context is combined with the final state.

use crate::data::Batch;
use crate::traits::Forward;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Exec, ParamStore};
use rand::rngs::StdRng;

/// Dipole: bidirectional GRU with location-based temporal attention.
#[derive(Debug, Clone)]
pub struct DipoleModel {
    fwd: GruCell,
    bwd: GruCell,
    attn: Linear,
    head: Linear,
}

impl DipoleModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        DipoleModel {
            fwd: GruCell::new(ps, rng, "dipole.fwd", n_features, hidden),
            bwd: GruCell::new(ps, rng, "dipole.bwd", n_features, hidden),
            attn: Linear::new(ps, rng, "dipole.attn", 2 * hidden, 1),
            head: Linear::new(ps, rng, "dipole.head", 4 * hidden, n_labels),
        }
    }
}

impl Forward for DipoleModel {
    fn name(&self) -> &'static str {
        "Dipole"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let steps = batch.steps.len();
        let xs: Vec<E::V> = batch.steps.iter().map(|m| e.constant(m.clone())).collect();
        // Forward pass.
        let h0 = self.fwd.init_state(e, batch.size);
        let mut fwd_states: Vec<E::V> = Vec::with_capacity(steps);
        for x in &xs {
            let h = self.fwd.step(e, ps, x, fwd_states.last().unwrap_or(&h0));
            fwd_states.push(h);
        }
        // Backward pass, stored in reverse step order.
        let h0 = self.bwd.init_state(e, batch.size);
        let mut bwd_states: Vec<E::V> = Vec::with_capacity(steps);
        for x in xs.iter().rev() {
            let h = self.bwd.step(e, ps, x, bwd_states.last().unwrap_or(&h0));
            bwd_states.push(h);
        }
        // Per-step bidirectional states and location-based attention scores.
        let mut h_bi = Vec::with_capacity(steps);
        let mut scores = Vec::with_capacity(steps);
        for (i, hf) in fwd_states.iter().enumerate() {
            let h = e.concat_cols(&[hf, &bwd_states[steps - 1 - i]]);
            scores.push(self.attn.forward(e, ps, &h));
            h_bi.push(h);
        }
        let score_mat = e.concat_cols(&scores);
        let alpha = e.softmax_rows(&score_mat);
        let mut ctx: Option<E::V> = None;
        for (i, h) in h_bi.iter().enumerate() {
            let a_i = e.slice_cols(&alpha, i, i + 1);
            let w = e.mul_col_broadcast(h, &a_i);
            ctx = Some(match ctx {
                Some(c) => e.add(&c, &w),
                None => w,
            });
        }
        // Combine context with the final bidirectional state.
        let ctx = ctx.expect("non-empty sequence");
        let joined = e.concat_cols(&[&ctx, &h_bi[steps - 1]]);
        self.head.forward(e, ps, &joined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};
    use crate::SequenceModel;
    use cohortnet_tensor::Tape;

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(7);
        let mut model = DipoleModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn logits_shape() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(8);
        let model = DipoleModel::new(&mut ps, &mut rng, prep.n_features, 1, 12);
        let batch = crate::data::make_batch(&prep, &[0, 4]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        assert_eq!(tape.value(logits).shape(), (2, 1));
    }
}
