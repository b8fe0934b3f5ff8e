//! End-to-end and per-layer benchmark of the Chrono tiering simulator.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to run the traced and self-test modes.

pub mod clock;
pub mod probe;
pub mod report;
pub mod run;
pub mod scenario;
