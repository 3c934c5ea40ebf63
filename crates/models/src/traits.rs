//! The common interface every EHR sequence model implements.

use crate::data::{Batch, Prepared};
use cohortnet_tensor::{Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// A trainable sequence model over EHR batches.
///
/// Implementations record their forward pass on a caller-supplied [`Tape`]
/// and return the logits node (`batch x n_labels`). Parameters live in an
/// external [`ParamStore`] created alongside the model so the shared trainer
/// in [`crate::trainer`] can optimise any model uniformly.
///
/// `Sync` is a supertrait because the trainer's data-parallel path shares
/// `&self` across minibatch-shard workers; models are plain parameter-handle
/// structs, so this costs implementations nothing.
pub trait SequenceModel: Sync {
    /// Display name used in experiment tables (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// Records the forward pass, returning logits of shape
    /// `(batch x n_labels)`.
    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var;

    /// The logits of [`SequenceModel::forward`], where no gradient is
    /// taken. Default: the forward recorded on a throwaway [`Tape`]; a
    /// model whose forward also runs on a value-only executor overrides it
    /// with the same bits.
    fn predict(&self, ps: &ParamStore, batch: &Batch) -> Matrix {
        let mut tape = Tape::new();
        let logits = self.forward(&mut tape, ps, batch);
        tape.value(logits).clone()
    }

    /// Epoch hook for models with non-gradient state (GRASP's clusters,
    /// PPN's prototypes). Called before every epoch and once before
    /// inference-time evaluation of a fresh dataset. Default: no-op.
    fn refresh(&mut self, _ps: &ParamStore, _prep: &Prepared, _rng: &mut StdRng) {}

    /// True when [`SequenceModel::refresh`] does real work — the trainer
    /// then reports its cost as preprocessing time (Fig. 11).
    fn needs_refresh(&self) -> bool {
        false
    }
}
