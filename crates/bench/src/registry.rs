//! Uniform construction/training/evaluation of all twelve models of Fig. 6
//! (nine baselines, CohortNet, and its two ablations).

use crate::datasets::Bundle;
use cohortnet::ablation::CohortNetWcMinus;
use cohortnet::config::CohortNetConfig;
use cohortnet::train::{train_cohortnet, train_without_cohorts};
use cohortnet_metrics::BinaryReport;
use cohortnet_models::baselines::*;
use cohortnet_models::data::make_batch;
use cohortnet_models::trainer::{evaluate, inference_time, train, TrainConfig};
use cohortnet_models::SequenceModel;
use cohortnet_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The model lineup of Fig. 6, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Plain LSTM.
    Lstm,
    /// Plain GRU.
    Gru,
    /// RETAIN (reverse-time two-level attention).
    Retain,
    /// Dipole (bidirectional GRU + temporal attention).
    Dipole,
    /// StageNet (stage-aware LSTM).
    StageNet,
    /// T-LSTM (time-decayed LSTM).
    TLstm,
    /// ConCare (per-feature GRUs + feature self-attention).
    ConCare,
    /// GRASP (cluster knowledge).
    Grasp,
    /// PPN (prototype patients).
    Ppn,
    /// CohortNet without the cohort pipeline (`w/o c`).
    CohortNetWoC,
    /// CohortNet with coarse patient-level clusters (`w c-`).
    CohortNetWcMinus,
    /// Full CohortNet.
    CohortNet,
}

/// All twelve, in presentation order.
pub const ALL_MODELS: [ModelKind; 12] = [
    ModelKind::Lstm,
    ModelKind::Gru,
    ModelKind::Retain,
    ModelKind::Dipole,
    ModelKind::StageNet,
    ModelKind::TLstm,
    ModelKind::ConCare,
    ModelKind::Grasp,
    ModelKind::Ppn,
    ModelKind::CohortNetWoC,
    ModelKind::CohortNetWcMinus,
    ModelKind::CohortNet,
];

impl ModelKind {
    /// Display name matching the paper's labels.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Lstm => "LSTM",
            ModelKind::Gru => "GRU",
            ModelKind::Retain => "RETAIN",
            ModelKind::Dipole => "Dipole",
            ModelKind::StageNet => "StageNet",
            ModelKind::TLstm => "T-LSTM",
            ModelKind::ConCare => "ConCare",
            ModelKind::Grasp => "GRASP",
            ModelKind::Ppn => "PPN",
            ModelKind::CohortNetWoC => "CohortNet w/o c",
            ModelKind::CohortNetWcMinus => "CohortNet w c-",
            ModelKind::CohortNet => "CohortNet",
        }
    }
}

/// Shared hyper-parameters for one harness run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Epochs for flat baselines (CohortNet uses its own pretrain/exploit
    /// split of the same total).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
    /// Hidden width for flat baselines.
    pub hidden: usize,
    /// Override for CohortNet's `k` (states); `None` keeps the default (7).
    pub k_states: Option<usize>,
    /// Override for CohortNet's `n` (mask width); `None` keeps the default (2).
    pub n_top: Option<usize>,
    /// Verbose training.
    pub verbose: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            epochs: 10,
            lr: 2e-3,
            batch_size: 32,
            seed: 7,
            hidden: 24,
            k_states: None,
            n_top: None,
            verbose: false,
        }
    }
}

/// Outcome of training + evaluating one model on one bundle.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Model display name.
    pub name: &'static str,
    /// Test-split metrics.
    pub test: BinaryReport,
    /// Mean seconds per training batch.
    pub train_sec_per_batch: f64,
    /// Preprocessing seconds (cluster/prototype/cohort learning).
    pub preprocess_sec: f64,
    /// Inference seconds per patient (single forward over a test batch).
    pub infer_sec_per_patient: f64,
    /// Total discovered cohorts (CohortNet only).
    pub n_cohorts: usize,
}

/// Splits an epoch budget 60/40 between Step 1 (MFLM pre-training) and
/// Step 4 (joint exploitation), giving each step at least one epoch: a step
/// with zero epochs is neither trained nor timed, so a one-epoch budget
/// would report a Step 1 of 0 s.
pub fn split_epochs(epochs: usize) -> (usize, usize) {
    let pretrain = ((epochs * 6) / 10).max(1);
    (pretrain, epochs.saturating_sub(pretrain).max(1))
}

/// Builds CohortNet's config for a bundle under the given options.
pub fn cohortnet_config(bundle: &Bundle, opts: &RunOptions) -> CohortNetConfig {
    let mut cfg = CohortNetConfig::for_dataset(&bundle.train_ds, &bundle.scaler);
    cfg.lr = opts.lr;
    cfg.batch_size = opts.batch_size;
    cfg.seed = opts.seed;
    cfg.verbose = opts.verbose;
    (cfg.epochs_pretrain, cfg.epochs_exploit) = split_epochs(opts.epochs);
    if let Some(k) = opts.k_states {
        cfg.k_states = k;
    }
    if let Some(n) = opts.n_top {
        cfg.n_top = n;
    }
    cfg
}

fn measure_inference(model: &dyn SequenceModel, ps: &ParamStore, bundle: &Bundle) -> f64 {
    let n = bundle.test.patients.len().clamp(1, 32);
    let indices: Vec<usize> = (0..n).collect();
    let batch = make_batch(&bundle.test, &indices);
    // Warm-up + timed run.
    let _ = inference_time(model, ps, &batch);
    inference_time(model, ps, &batch) / n as f64
}

/// Trains one baseline (non-CohortNet) model and evaluates it.
fn run_baseline(kind: ModelKind, bundle: &Bundle, opts: &RunOptions) -> RunResult {
    let nf = bundle.train.n_features;
    let nl = bundle.n_labels;
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut model: Box<dyn SequenceModel> = match kind {
        ModelKind::Lstm => Box::new(LstmModel::new(&mut ps, &mut rng, nf, nl, opts.hidden)),
        ModelKind::Gru => Box::new(GruModel::new(&mut ps, &mut rng, nf, nl, opts.hidden)),
        ModelKind::Retain => Box::new(RetainModel::new(&mut ps, &mut rng, nf, nl, opts.hidden / 2)),
        ModelKind::Dipole => Box::new(DipoleModel::new(&mut ps, &mut rng, nf, nl, opts.hidden / 2)),
        ModelKind::StageNet => Box::new(StageNetModel::new(&mut ps, &mut rng, nf, nl, opts.hidden)),
        ModelKind::TLstm => Box::new(TLstmModel::new(&mut ps, &mut rng, nf, nl, opts.hidden)),
        ModelKind::ConCare => Box::new(ConCareModel::new(&mut ps, &mut rng, nf, nl, 6)),
        ModelKind::Grasp => Box::new(GraspModel::new(&mut ps, &mut rng, nf, nl, opts.hidden, 6)),
        ModelKind::Ppn => Box::new(PpnModel::new(&mut ps, &mut rng, nf, nl, opts.hidden, 8)),
        _ => unreachable!("cohortnet variants handled separately"),
    };
    let tc = TrainConfig {
        epochs: opts.epochs,
        batch_size: opts.batch_size,
        lr: opts.lr,
        clip: 5.0,
        seed: opts.seed,
        verbose: opts.verbose,
        n_threads: 0,
    };
    let stats = train(model.as_mut(), &mut ps, &bundle.train, &tc);
    let test = evaluate(model.as_ref(), &ps, &bundle.test, 64);
    RunResult {
        name: kind.name(),
        test,
        train_sec_per_batch: stats.sec_per_batch,
        preprocess_sec: stats.preprocess_sec,
        infer_sec_per_patient: measure_inference(model.as_ref(), &ps, bundle),
        n_cohorts: 0,
    }
}

fn run_cohortnet_variant(kind: ModelKind, bundle: &Bundle, opts: &RunOptions) -> RunResult {
    let cfg = cohortnet_config(bundle, opts);
    match kind {
        ModelKind::CohortNet => {
            let trained = train_cohortnet(&bundle.train, &cfg);
            let test = evaluate(&trained.model, &trained.params, &bundle.test, 64);
            RunResult {
                name: kind.name(),
                test,
                train_sec_per_batch: (trained.timing.step1.sec_per_batch
                    + trained.timing.step4.sec_per_batch)
                    / 2.0,
                preprocess_sec: trained.timing.preprocess_sec(),
                infer_sec_per_patient: measure_inference(&trained.model, &trained.params, bundle),
                n_cohorts: trained
                    .model
                    .discovery
                    .as_ref()
                    .map_or(0, |d| d.pool.total_cohorts()),
            }
        }
        ModelKind::CohortNetWoC => {
            let trained = train_without_cohorts(&bundle.train, &cfg);
            let test = evaluate(&trained.model, &trained.params, &bundle.test, 64);
            RunResult {
                name: kind.name(),
                test,
                train_sec_per_batch: trained.timing.step1.sec_per_batch,
                preprocess_sec: 0.0,
                infer_sec_per_patient: measure_inference(&trained.model, &trained.params, bundle),
                n_cohorts: 0,
            }
        }
        ModelKind::CohortNetWcMinus => {
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut model = CohortNetWcMinus::new(&mut ps, &mut rng, &cfg, 8);
            let tc = TrainConfig {
                epochs: opts.epochs,
                batch_size: opts.batch_size,
                lr: opts.lr,
                clip: 5.0,
                seed: opts.seed,
                verbose: opts.verbose,
                n_threads: 0,
            };
            let stats = train(&mut model, &mut ps, &bundle.train, &tc);
            let test = evaluate(&model, &ps, &bundle.test, 64);
            RunResult {
                name: kind.name(),
                test,
                train_sec_per_batch: stats.sec_per_batch,
                preprocess_sec: stats.preprocess_sec,
                infer_sec_per_patient: measure_inference(&model, &ps, bundle),
                n_cohorts: model.n_cohorts(),
            }
        }
        _ => unreachable!(),
    }
}

/// Trains and evaluates one model of the lineup.
pub fn run_model(kind: ModelKind, bundle: &Bundle, opts: &RunOptions) -> RunResult {
    match kind {
        ModelKind::CohortNet | ModelKind::CohortNetWoC | ModelKind::CohortNetWcMinus => {
            run_cohortnet_variant(kind, bundle, opts)
        }
        _ => run_baseline(kind, bundle, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::profiles;

    #[test]
    fn every_step_gets_at_least_one_epoch() {
        assert_eq!(split_epochs(0), (1, 1));
        assert_eq!(split_epochs(1), (1, 1));
        assert_eq!(split_epochs(2), (1, 1));
        assert_eq!(split_epochs(3), (1, 2));
        assert_eq!(split_epochs(5), (3, 2));
        assert_eq!(split_epochs(10), (6, 4));
    }

    #[test]
    fn run_model_smoke_gru_and_cohortnet() {
        let mut cfg = profiles::mimic3_like(0.05);
        cfg.n_patients = 80;
        let b = crate::datasets::bundle(cfg, 5);
        let opts = RunOptions {
            epochs: 1,
            ..Default::default()
        };
        let r = run_model(ModelKind::Gru, &b, &opts);
        assert_eq!(r.name, "GRU");
        assert!(r.infer_sec_per_patient > 0.0);
        let r2 = run_model(ModelKind::CohortNet, &b, &opts);
        assert!(r2.preprocess_sec > 0.0);
    }
}
