//! T-LSTM baseline (Baytas et al., 2017).
//!
//! "designs a time decay mechanism to handle irregular time intervals in
//! EHRs": before each step the cell memory is decomposed into a short-term
//! component `c_s = tanh(W_d c + b_d)` and a long-term remainder
//! `c - c_s`; the short-term part is decayed by `g(Δt) = 1 / ln(e + Δt)`
//! and recombined.
//!
//! Our resampled grid is regular (Δt = one bin), so the decay is uniform —
//! which is exactly why T-LSTM tracks plain LSTM in our Fig. 6 reproduction,
//! mirroring its mid-pack placement in the paper. The Δt input is kept
//! per-step so irregular grids can be plugged in.

use crate::data::Batch;
use crate::traits::Forward;
use cohortnet_tensor::nn::{Linear, LstmCell, LstmState};
use cohortnet_tensor::{Exec, ParamStore};
use rand::rngs::StdRng;

/// T-LSTM: time-aware LSTM with subspace memory decay.
#[derive(Debug, Clone)]
pub struct TLstmModel {
    cell: LstmCell,
    decompose: Linear,
    head: Linear,
    /// Elapsed time per step in hours (uniform on the resampled grid).
    pub delta_t: f32,
}

impl TLstmModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        TLstmModel {
            cell: LstmCell::new(ps, rng, "tlstm.cell", n_features, hidden),
            decompose: Linear::new(ps, rng, "tlstm.decompose", hidden, hidden),
            head: Linear::new(ps, rng, "tlstm.head", hidden, n_labels),
            delta_t: 1.0,
        }
    }

    /// The decay factor `g(Δt) = 1 / ln(e + Δt)`.
    pub fn decay(delta_t: f32) -> f32 {
        1.0 / (std::f32::consts::E + delta_t).ln()
    }
}

impl Forward for TLstmModel {
    fn name(&self) -> &'static str {
        "T-LSTM"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let g = Self::decay(self.delta_t);
        let mut state = self.cell.init_state(e, batch.size);
        for step in &batch.steps {
            // Memory decomposition and decay.
            let cs_pre = self.decompose.forward(e, ps, &state.c);
            let c_short = e.tanh(&cs_pre);
            let c_long = e.sub(&state.c, &c_short);
            let c_short_decayed = e.scale(&c_short, g);
            let c = e.add(&c_long, &c_short_decayed);
            let x = e.constant(step.clone());
            state = self.cell.step(e, ps, &x, LstmState { h: state.h, c });
        }
        self.head.forward(e, ps, &state.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};

    #[test]
    fn decay_is_decreasing_in_dt() {
        assert!(TLstmModel::decay(0.0) > TLstmModel::decay(1.0));
        assert!(TLstmModel::decay(1.0) > TLstmModel::decay(10.0));
        assert!(TLstmModel::decay(0.0) <= 1.0 + 1e-5);
    }

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(11);
        let mut model = TLstmModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        assert_learns(&mut model, &mut ps, &prep);
    }
}
