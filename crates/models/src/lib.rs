//! # cohortnet-models
//!
//! The baseline EHR models the paper compares CohortNet against (§4.1):
//! LSTM, GRU, RETAIN, Dipole, StageNet, T-LSTM, ConCare, GRASP and PPN —
//! each implemented from scratch with its signature mechanism — plus the
//! shared batching ([`data`]) and training ([`trainer`]) infrastructure that
//! CohortNet itself reuses.
//!
//! ```
//! use cohortnet_models::baselines::GruModel;
//! use cohortnet_models::data::prepare;
//! use cohortnet_models::trainer::{train, evaluate, TrainConfig};
//! use cohortnet_ehr::{profiles, synth::generate, standardize::Standardizer};
//! use cohortnet_tensor::ParamStore;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut cfg = profiles::mimic3_like(0.05);
//! cfg.n_patients = 80;
//! cfg.time_steps = 6;
//! let mut ds = generate(&cfg);
//! Standardizer::fit(&ds).apply(&mut ds);
//! let prep = prepare(&ds);
//!
//! let mut ps = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = GruModel::new(&mut ps, &mut rng, prep.n_features, 1, 8);
//! let stats = train(&mut model, &mut ps, &prep,
//!                   &TrainConfig { epochs: 1, ..Default::default() });
//! assert_eq!(stats.epoch_losses.len(), 1);
//! let report = evaluate(&model, &ps, &prep, 32);
//! assert!(report.auc_roc >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod data;
pub mod trainer;
pub mod traits;

#[doc(hidden)]
pub mod testutil;

pub use traits::{Forward, SequenceModel};
