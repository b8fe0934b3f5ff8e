#![warn(missing_docs)]
//! Chrono: meticulous hotness measurement and flexible page migration.
//!
//! This crate implements the paper's contribution as a [`ChronoPolicy`]
//! running on the `tiered-mem` substrate:
//!
//! - **Captured Idle Time (CIT)** — Section 3.1.1: the Ticking-scan poisons
//!   slow-tier PTEs and records the scan timestamp; the next fault's
//!   timestamp minus the scan timestamp estimates the page's access
//!   interval, decoupling frequency resolution from the scan rate.
//! - **Conditional promotion** — Section 3.1.2: two-round candidate
//!   filtering (a max-of-rounds estimator, [`theory`] proves it the minimum-
//!   variance unbiased choice) plus a rate-limited promotion queue.
//! - **Adaptive parameter tuning** — Section 3.2: the semi-automatic
//!   `TH_{i+1} = (1 − δ + δ·r)·TH_i` threshold update, and the fully
//!   automatic **DCSC** (Dynamic CIT Statistic Collection): random victim
//!   probing of both tiers into per-tier CIT [`heatmap::HeatMap`]s, overlap
//!   identification, and misplacement-driven rate-limit derivation.
//! - **Proactive demotion** — Section 3.3: the promotion-aware `pro`
//!   watermark and the page [`thrash::ThrashingMonitor`].
//! - **Huge-page support** — Section 3.4: threshold scaling (`TH/512`) and
//!   heat-map bucket redistribution (+9 buckets).

pub mod candidates;
pub mod cascade;
pub mod config;
pub mod controls;
pub mod flat;
pub mod heatmap;
pub mod limits;
pub mod policy;
pub mod queue;
pub mod resilience;
pub mod theory;
pub mod thrash;
pub mod tracker;
pub mod tuning;

pub use candidates::CandidateSet;
pub use cascade::CascadeChrono;
pub use config::{ChronoConfig, TuningMode};
pub use controls::ControlError;
pub use flat::PidVpnTable;
pub use heatmap::HeatMap;
pub use limits::LimitEnforcer;
pub use policy::{ChronoPolicy, DcscWork};
pub use queue::{PromotionQueue, QueueFlow};
pub use resilience::{BreakerTransition, MigrationBreaker, RetryEntry, RetryFlow, RetryPool};
pub use thrash::ThrashingMonitor;
pub use tracker::RegionTracker;
