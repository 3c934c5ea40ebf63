//! # cohortnet-bench
//!
//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the CohortNet paper (see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results).
//!
//! Environment knobs honoured by all harnesses:
//!
//! * `COHORTNET_SCALE` (default `1.0`) — multiplies admission counts; `1.0`
//!   is the CPU-friendly default size, larger values approach paper scale;
//! * `COHORTNET_FAST` (`1` to enable) — shrinks epochs and sweeps for smoke
//!   runs;
//! * `COHORTNET_TIME_STEPS` (default `24`) — bins over the 48 h horizon
//!   (24 = 2-hour bins; the paper uses hourly bins, i.e. 48).

#![warn(missing_docs)]

pub mod datasets;
pub mod openloop;
pub mod registry;
pub mod report;
pub mod smoke;

/// Reads `COHORTNET_SCALE`.
pub fn scale() -> f32 {
    std::env::var("COHORTNET_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Reads `COHORTNET_FAST`.
pub fn fast() -> bool {
    std::env::var("COHORTNET_FAST")
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false)
}

/// Reads `COHORTNET_TIME_STEPS`.
pub fn time_steps() -> usize {
    std::env::var("COHORTNET_TIME_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}
