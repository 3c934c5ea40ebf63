//! Shared training and evaluation loop.
//!
//! All models — baselines and CohortNet variants — are optimised with Adam
//! at the paper's learning rate (1e-3, §4.1) under this loop, so runtime
//! comparisons (Fig. 11) measure architecture cost, not harness differences.
//!
//! ## Deterministic data-parallel minibatches
//!
//! Every minibatch is split into row shards whose size depends on
//! `batch_size` alone — never on the thread count. Each shard gets a
//! persistent worker slot (a reusable [`Tape`] plus a private
//! [`GradBuffer`]) and computes its forward/backward independently; shard
//! losses and gradients are then merged with a fixed-order tree reduction
//! and applied once. Because the shard split, every per-shard accumulation
//! chain, and the merge order are all functions of the data only,
//! the loss trajectory is bit-identical for every `n_threads` — the same
//! determinism contract the discovery runtime makes.
//!
//! Shard granularity trades sequential overhead against parallel headroom:
//! each extra shard re-pays the tape's per-node fixed costs, measured at
//! ~2% for 32-row shards but ~100% for 8-row shards on the fig13 workload.
//! Hence [`MIN_SHARD_ROWS`] = 32: the paper's batch of 64 splits in two,
//! and larger batches fan out to at most [`MAX_SHARDS`] shards. Raise
//! `batch_size` to widen parallelism.

use crate::data::{make_batch, Batch, Prepared};
use crate::traits::SequenceModel;
use cohortnet_metrics::{binary_report, macro_report, BinaryReport};
use cohortnet_obs::log::Level;
use cohortnet_obs::obs_log;
use cohortnet_tensor::optim::Adam;
use cohortnet_tensor::{Exec, GradBuffer, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Log target for training-loop events.
const LOG: &str = "cohortnet.trainer";

/// Most shards a full minibatch is split into.
const MAX_SHARDS: usize = 8;
/// Fewest rows per shard — below this, per-shard fixed costs dominate.
const MIN_SHARD_ROWS: usize = 32;

/// Hyper-parameters of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print per-epoch losses to stderr.
    pub verbose: bool,
    /// Worker threads for minibatch shards: `0` = auto (hardware), `1` =
    /// sequential (default). The loss trajectory is bit-identical for every
    /// setting.
    pub n_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 1e-3,
            clip: 5.0,
            seed: 7,
            verbose: false,
            n_threads: 1,
        }
    }
}

/// Persistent per-shard worker state: a tape whose arena is recycled across
/// steps and a private gradient accumulator.
struct ShardSlot {
    tape: Tape,
    grads: GradBuffer,
}

/// Rows per shard — derived from batch size ONLY, so the shard split (and
/// with it every accumulation chain) is invariant to the thread count.
fn shard_rows(batch_size: usize) -> usize {
    batch_size.div_ceil(MAX_SHARDS).max(MIN_SHARD_ROWS)
}

/// Merges shard gradient buffers pairwise — (0,1), (2,3), then across —
/// leaving the total in `slots[0]`. The pairing depends only on `slots.len()`,
/// mirroring `cohortnet_parallel::tree_fold`.
fn tree_merge_grads(slots: &mut [ShardSlot]) {
    let n = slots.len();
    let mut gap = 1;
    while gap < n {
        let mut i = 0;
        while i + gap < n {
            let (left, right) = slots.split_at_mut(i + gap);
            left[i].grads.merge_from(&right[0].grads);
            i += 2 * gap;
        }
        gap *= 2;
    }
}

/// Timing and loss trace of a training run.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean wall-clock seconds per mini-batch (train step: forward +
    /// backward + update).
    pub sec_per_batch: f64,
    /// Total seconds spent in `refresh` hooks (preprocessing, Fig. 11).
    pub preprocess_sec: f64,
    /// Total wall-clock seconds of the run.
    pub total_sec: f64,
}

/// Trains `model` in place over `prep`.
pub fn train(
    model: &mut dyn SequenceModel,
    ps: &mut ParamStore,
    prep: &Prepared,
    cfg: &TrainConfig,
) -> TrainStats {
    let start = Instant::now();
    let metrics = cohortnet_obs::metrics::global();
    let epochs_total = metrics.counter("cohortnet_train_epochs_total", "Completed training epochs");
    let step_us = metrics.histogram(
        "cohortnet_train_step_us",
        "Wall-clock microseconds per training step (forward + backward + update)",
        cohortnet_obs::metrics::DURATION_US_BOUNDS,
    );
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..prep.patients.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut batch_time = 0.0f64;
    let mut batch_count = 0usize;
    let mut preprocess_sec = 0.0f64;

    let rows_per_shard = shard_rows(cfg.batch_size);
    let mut slots: Vec<ShardSlot> = Vec::new();

    for epoch in 0..cfg.epochs {
        let mut epoch_span = cohortnet_obs::span::span("train.epoch");
        epoch_span.arg("model", model.name()).arg("epoch", epoch);
        if model.needs_refresh() {
            let _refresh_span = cohortnet_obs::span::span("train.refresh");
            let t0 = Instant::now();
            model.refresh(ps, prep, &mut rng);
            preprocess_sec += t0.elapsed().as_secs_f64();
        }
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut n_batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let t0 = Instant::now();
            let shards: Vec<&[usize]> = chunk.chunks(rows_per_shard).collect();
            while slots.len() < shards.len() {
                slots.push(ShardSlot {
                    tape: Tape::new(),
                    grads: GradBuffer::for_store(ps),
                });
            }
            let total_rows = chunk.len() as f32;
            let threads = cohortnet_parallel::resolve_threads(cfg.n_threads, shards.len());
            // Each shard scales its mean loss by its row share before
            // backward, so merged gradients equal the full-batch mean-loss
            // gradient; the immutable model/store/prep refs are shared,
            // while tape and grad buffer are slot-exclusive.
            let model_ref: &dyn SequenceModel = model;
            let shard_losses =
                cohortnet_parallel::par_map_mut(threads, &mut slots[..shards.len()], |s, slot| {
                    let batch = make_batch(prep, shards[s]);
                    slot.tape.reset();
                    let logits = model_ref.forward(&mut slot.tape, ps, &batch);
                    let weight = shards[s].len() as f32 / total_rows;
                    let loss = slot.tape.bce_with_logits(logits, batch.labels.clone());
                    let loss_val = slot.tape.value(loss)[(0, 0)];
                    let scaled = slot.tape.scale(loss, weight);
                    slot.tape.backward(scaled);
                    slot.grads.zero();
                    slot.tape.flush_grads_into(&mut slot.grads);
                    loss_val * weight
                });
            let batch_loss =
                cohortnet_parallel::tree_fold(shard_losses, |a, b| *a += b).unwrap_or(0.0);
            tree_merge_grads(&mut slots[..shards.len()]);
            slots[0].grads.flush_into(ps);
            if cfg.clip > 0.0 {
                ps.clip_grad_norm(cfg.clip);
            }
            opt.step(ps);
            let step_sec = t0.elapsed().as_secs_f64();
            step_us.observe((step_sec * 1e6) as u64);
            batch_time += step_sec;
            batch_count += 1;
            loss_sum += batch_loss as f64;
            n_batches += 1;
        }
        let mean = (loss_sum / n_batches.max(1) as f64) as f32;
        epoch_losses.push(mean);
        epochs_total.inc();
        // Per-epoch progress: Info when the caller asked for it, otherwise
        // Debug so `COHORTNET_LOG=debug` can still surface the trajectory.
        let lvl = if cfg.verbose {
            Level::Info
        } else {
            Level::Debug
        };
        obs_log!(
            lvl,
            target: LOG,
            "epoch complete",
            model = model.name(),
            epoch = epoch,
            loss = format!("{mean:.4}"),
        );
    }

    TrainStats {
        epoch_losses,
        sec_per_batch: batch_time / batch_count.max(1) as f64,
        preprocess_sec,
        total_sec: start.elapsed().as_secs_f64(),
    }
}

/// Predicted probabilities for every patient, flattened row-major
/// `(n_patients * n_labels)`.
pub fn predict_probs(
    model: &dyn SequenceModel,
    ps: &ParamStore,
    prep: &Prepared,
    batch_size: usize,
) -> Vec<f32> {
    let indices: Vec<usize> = (0..prep.patients.len()).collect();
    let mut out = Vec::with_capacity(prep.patients.len() * prep.n_labels);
    for chunk in indices.chunks(batch_size.max(1)) {
        let batch = make_batch(prep, chunk);
        let mut probs = model.predict(ps, &batch);
        cohortnet_tensor::math::sigmoid(probs.as_mut_slice());
        out.extend_from_slice(probs.as_slice());
    }
    out
}

/// Seconds [`SequenceModel::predict`] takes on one batch — the Fig. 11
/// inference-time measurement. Every model predicts on the value-only
/// executor, so all of them are timed the same way, without a graph.
pub fn inference_time(model: &dyn SequenceModel, ps: &ParamStore, batch: &Batch) -> f64 {
    let t0 = Instant::now();
    let _ = model.predict(ps, batch);
    t0.elapsed().as_secs_f64()
}

/// Evaluates a model on a prepared dataset, returning the paper's metric
/// trio. Binary tasks use [`binary_report`]; multi-label tasks use the
/// macro-averaged variant.
pub fn evaluate(
    model: &dyn SequenceModel,
    ps: &ParamStore,
    prep: &Prepared,
    batch_size: usize,
) -> BinaryReport {
    let probs = predict_probs(model, ps, prep, batch_size);
    let labels: Vec<u8> = prep
        .patients
        .iter()
        .flat_map(|p| p.labels_u8.iter().copied())
        .collect();
    if prep.n_labels == 1 {
        binary_report(&probs, &labels)
    } else {
        macro_report(&probs, &labels, prep.n_labels)
    }
}

/// A ready-made smoke check used across integration tests: loss decreases
/// and test AUC-ROC beats chance.
pub fn loss_decreased(stats: &TrainStats) -> bool {
    match (stats.epoch_losses.first(), stats.epoch_losses.last()) {
        (Some(&first), Some(&last)) => last < first,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::prepare;
    use crate::traits::Forward;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_tensor::nn::Linear;

    /// Trivial model: logistic regression on the last time step.
    struct LastStepLogit {
        head: Linear,
    }

    impl Forward for LastStepLogit {
        fn name(&self) -> &'static str {
            "last-step-logit"
        }
        fn logits<E: Exec>(&self, e: &mut E, ps: &ParamStore, batch: &Batch) -> E::V {
            let x = e.constant(batch.steps.last().unwrap().clone());
            self.head.forward(e, ps, &x)
        }
    }

    fn small_prep() -> Prepared {
        let mut cfg = profiles::mimic3_like(0.1);
        cfg.n_patients = 200;
        cfg.time_steps = 8;
        let mut ds = generate(&cfg);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        prepare(&ds)
    }

    #[test]
    fn trainer_reduces_loss_and_beats_chance() {
        let prep = small_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = LastStepLogit {
            head: Linear::new(&mut ps, &mut rng, "h", prep.n_features, 1),
        };
        let cfg = TrainConfig {
            epochs: 12,
            lr: 0.01,
            ..Default::default()
        };
        let stats = train(&mut model, &mut ps, &prep, &cfg);
        assert!(loss_decreased(&stats), "losses: {:?}", stats.epoch_losses);
        let report = evaluate(&model, &ps, &prep, 64);
        assert!(report.auc_roc > 0.6, "auc {:.3}", report.auc_roc);
    }

    #[test]
    fn loss_trajectory_is_bit_identical_across_thread_counts() {
        // The data-parallel determinism contract: identical seeds must give
        // a bit-for-bit identical loss curve AND final parameters for every
        // n_threads, because shard split and merge order never depend on it.
        let prep = small_prep();
        let run = |n_threads: usize| -> (Vec<u32>, Vec<u32>) {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(42);
            let mut model = LastStepLogit {
                head: Linear::new(&mut ps, &mut rng, "h", prep.n_features, 1),
            };
            let cfg = TrainConfig {
                epochs: 3,
                n_threads,
                ..Default::default()
            };
            let stats = train(&mut model, &mut ps, &prep, &cfg);
            let losses = stats.epoch_losses.iter().map(|l| l.to_bits()).collect();
            let params = ps
                .entries()
                .flat_map(|e| e.value.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            (losses, params)
        };
        let (ref_losses, ref_params) = run(1);
        for threads in [2, 4] {
            let (losses, params) = run(threads);
            assert_eq!(
                losses, ref_losses,
                "loss curve diverged at {threads} threads"
            );
            assert_eq!(params, ref_params, "params diverged at {threads} threads");
        }
    }

    #[test]
    fn predict_probs_are_probabilities() {
        let prep = small_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = LastStepLogit {
            head: Linear::new(&mut ps, &mut rng, "h", prep.n_features, 1),
        };
        let probs = predict_probs(&model, &ps, &prep, 32);
        assert_eq!(probs.len(), prep.patients.len());
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn stats_track_batches() {
        let prep = small_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = LastStepLogit {
            head: Linear::new(&mut ps, &mut rng, "h", prep.n_features, 1),
        };
        let stats = train(
            &mut model,
            &mut ps,
            &prep,
            &TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(stats.sec_per_batch > 0.0);
        assert_eq!(stats.preprocess_sec, 0.0);
    }
}
