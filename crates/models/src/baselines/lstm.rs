//! LSTM baseline (Hochreiter & Schmidhuber, 1997): a plain LSTM over the
//! per-step feature vectors, predicting from the final hidden state.

use crate::data::Batch;
use crate::traits::Forward;
use cohortnet_tensor::nn::{Linear, LstmCell};
use cohortnet_tensor::{Exec, ParamStore};
use rand::rngs::StdRng;

/// Plain LSTM sequence classifier.
#[derive(Debug, Clone)]
pub struct LstmModel {
    cell: LstmCell,
    head: Linear,
}

impl LstmModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        LstmModel {
            cell: LstmCell::new(ps, rng, "lstm.cell", n_features, hidden),
            head: Linear::new(ps, rng, "lstm.head", hidden, n_labels),
        }
    }
}

impl Forward for LstmModel {
    fn name(&self) -> &'static str {
        "LSTM"
    }

    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
        let mut state = self.cell.init_state(e, batch.size);
        for step in &batch.steps {
            let x = e.constant(step.clone());
            state = self.cell.step(e, ps, &x, state);
        }
        self.head.forward(e, ps, &state.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};
    use crate::SequenceModel;
    use cohortnet_tensor::Tape;

    #[test]
    fn output_shape() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let model = LstmModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        let batch = crate::data::make_batch(&prep, &[0, 1, 2]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        assert_eq!(tape.value(logits).shape(), (3, 1));
    }

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let mut model = LstmModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        assert_learns(&mut model, &mut ps, &prep);
    }
}
