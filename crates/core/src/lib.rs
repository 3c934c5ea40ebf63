//! # cohortnet
//!
//! A from-scratch Rust implementation of **CohortNet** (Cai et al., VLDB
//! 2024): automatic discovery, representation and exploitation of medically
//! interpretable patient cohorts from EHR time series.
//!
//! The pipeline follows the paper's four steps:
//!
//! 1. [`mflm`] — Multi-channel Feature Learning Module: per-feature BiEL
//!    embeddings, feature-interaction attention, trend GRUs, fusion and
//!    channel GRUs (§3.3);
//! 2. [`cdm`] + [`discover`] — Cohort Discovery Module: K-Means feature
//!    states and the heuristic, attention-masked pattern exploration (§3.4);
//! 3. [`crlm`] — Cohort Representation Learning Module: patient retrieval
//!    and cohort representations with label distributions (§3.5);
//! 4. [`cem`] — Cohort Exploitation Module: bitmap indexing, cohort
//!    attention and calibrated prediction (§3.6).
//!
//! [`train::train_cohortnet`] runs the whole pipeline; [`interpret`]
//! provides the paper's top-down interpretability functionality (feature
//! states, cohort reports, personalised calibration breakdowns).
//!
//! ```no_run
//! use cohortnet::{config::CohortNetConfig, train::train_cohortnet};
//! use cohortnet_ehr::{profiles, synth::generate, standardize::Standardizer,
//!                     split::split_80_10_10};
//! use cohortnet_models::data::prepare;
//! use cohortnet_models::trainer::evaluate;
//!
//! let ds = generate(&profiles::mimic3_like(0.25));
//! let split = split_80_10_10(&ds, 7);
//! let mut train_ds = ds.subset(&split.train);
//! let mut test_ds = ds.subset(&split.test);
//! let scaler = Standardizer::fit(&train_ds);
//! scaler.apply(&mut train_ds);
//! scaler.apply(&mut test_ds);
//!
//! let cfg = CohortNetConfig::for_dataset(&train_ds, &scaler);
//! let trained = train_cohortnet(&prepare(&train_ds), &cfg);
//! let report = evaluate(&trained.model, &trained.params, &prepare(&test_ds), 64);
//! println!("AUC-PR = {:.3}", report.auc_pr);
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod cdm;
pub mod cem;
pub mod config;
pub mod crlm;
pub mod discover;
pub mod export;
pub mod index;
pub mod infer;
pub mod interpret;
pub mod mflm;
pub mod model;
pub mod quant;
pub mod snapshot;
pub mod stream;
pub mod train;

pub use config::CohortNetConfig;
pub use crlm::{Cohort, CohortPool};
pub use index::{CohortIndex, IndexCache};
pub use infer::Inferencer;
pub use model::CohortNetModel;
pub use quant::{QuantInferencer, QuantTable};
pub use snapshot::{load_snapshot, save_snapshot, save_snapshot_quant, LoadedModel, SnapshotError};
pub use stream::{batch_reference, StreamConfig, StreamError, StreamEvent, StreamSession};
pub use train::{train_cohortnet, train_without_cohorts, TrainedCohortNet};
