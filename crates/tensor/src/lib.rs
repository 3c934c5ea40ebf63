//! # cohortnet-tensor
//!
//! A small, dependency-free (beyond `rand`) tensor and automatic
//! differentiation engine purpose-built for the CohortNet reproduction.
//!
//! The paper's models — per-feature GRU channels, bilinear feature-interaction
//! attention, cohort attention — are all small recurrent/attention networks
//! over `f32` matrices, so this crate provides exactly that:
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices;
//! * [`exec::Exec`] — the op set model forwards are written against, run by
//!   the [`tape::Tape`] (single-pass reverse-mode autodiff) or by the
//!   value-only [`exec::Eager`] executor;
//! * [`param::ParamStore`] — shared trainable parameter arena;
//! * [`nn`] — `Linear`, `Mlp`, `GruCell`, `LstmCell` and `Biel` layers;
//! * [`optim`] — SGD and Adam;
//! * [`gradcheck`] — finite-difference validation used throughout the tests.
//!
//! ## Example
//!
//! ```
//! use cohortnet_tensor::matrix::Matrix;
//! use cohortnet_tensor::param::ParamStore;
//! use cohortnet_tensor::tape::Tape;
//! use cohortnet_tensor::optim::Adam;
//!
//! // Fit y = 2x with one weight.
//! let mut ps = ParamStore::new();
//! let w = ps.register("w", Matrix::zeros(1, 1));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut t = Tape::new();
//!     let wv = t.param(&ps, w);
//!     let x = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
//!     let y = t.mul(wv, x);
//!     let loss = t.mse(y, Matrix::from_vec(1, 1, vec![6.0]));
//!     t.backward(loss);
//!     t.flush_grads(&mut ps);
//!     opt.step(&mut ps);
//! }
//! assert!((ps.value(w)[(0, 0)] - 2.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod exec;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod param;
pub mod quant;
pub mod simd;
pub mod tape;

pub use exec::{Eager, Exec, Val};
pub use matrix::Matrix;
pub use param::{GradBuffer, ParamId, ParamStore};
pub use tape::{Tape, Var};
