//! The benchmark harness: regenerates every table and figure of the CKI
//! paper's evaluation.
//!
//! Each paper experiment lives in [`experiments`] as a pure function
//! returning structured rows; the larger benchmarks ([`ablations`],
//! [`cloud_churn`], [`net_serving`], [`perf_report`], [`slo_report`]) have
//! modules of their own. [`repro::EXPERIMENTS`] lists them all, and the
//! `repro` binary runs them by name, all at once, or as the regression
//! gate; [`micro`] times the page-walk path on the host clock. The
//! DESIGN.md per-experiment index maps each entry to the paper artifact it
//! regenerates.
//!
//! Set `CKI_BENCH_SCALE=quick` for CI-sized runs; the default `full` scale
//! is sized so every effect the paper reports is out of the noise while a
//! complete `repro all` finishes in minutes.

pub mod ablations;
pub mod cloud_churn;
pub mod experiments;
pub mod harness;
pub mod micro;
pub mod net_serving;
pub mod outcome;
pub mod perf_report;
pub mod repro;
pub mod slo_report;
pub mod util;

pub use outcome::{Outcome, Value};
pub use util::{Matrix, Scale};
