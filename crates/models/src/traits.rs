//! The common interface every EHR sequence model implements.
//!
//! A model writes its forward once, generic over the executor
//! ([`Forward::logits`]). The object-safe [`SequenceModel`] that the trainer
//! and the benches drive is implemented for every [`Forward`] on top of that
//! one definition: [`SequenceModel::forward`] records it on a [`Tape`] for
//! training, and [`SequenceModel::predict`] runs it on the value-only
//! [`Eager`] executor wherever no gradient is taken — the same logits, bit
//! for bit, without a graph.

use crate::data::{Batch, Prepared};
use cohortnet_tensor::{Eager, Exec, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// A sequence model over EHR batches, written once against [`Exec`].
///
/// Parameters live in an external [`ParamStore`] created alongside the
/// model so the shared trainer in [`crate::trainer`] can optimise any model
/// uniformly.
///
/// `Sync` is a supertrait because the trainer's data-parallel path shares
/// `&self` across minibatch-shard workers; models are plain parameter-handle
/// structs, so this costs implementations nothing.
pub trait Forward: Sync {
    /// Display name used in experiment tables (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// The forward pass on executor `e`, returning logits of shape
    /// `(batch x n_labels)`.
    fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V
    where
        Self: Sized;

    /// Epoch hook for models with non-gradient state (GRASP's clusters,
    /// PPN's prototypes, `w c-`'s coarse cohorts), computed without a
    /// graph. Called before every epoch and once before inference-time
    /// evaluation of a fresh dataset. Default: no-op.
    fn refresh(&mut self, _ps: &ParamStore, _prep: &Prepared, _rng: &mut StdRng) {}

    /// True when [`Forward::refresh`] does real work — the trainer then
    /// reports its cost as preprocessing time (Fig. 11).
    fn needs_refresh(&self) -> bool {
        false
    }
}

/// A trainable model behind a trait object: [`Forward::logits`] on the two
/// executors. Implemented for every [`Forward`].
pub trait SequenceModel: Forward {
    /// Records the forward pass, returning the logits node
    /// `(batch x n_labels)`.
    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var;

    /// The logits of [`SequenceModel::forward`] where no gradient is taken,
    /// computed by the value-only executor: the same bits, no graph.
    fn predict(&self, ps: &ParamStore, batch: &Batch) -> Matrix;
}

impl<M: Forward> SequenceModel for M {
    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        self.logits(t, ps, batch)
    }

    fn predict(&self, ps: &ParamStore, batch: &Batch) -> Matrix {
        let mut e = Eager::new(ps);
        let logits = self.logits(&mut e, ps, batch);
        e.into_matrix(logits)
    }
}
