//! Deterministic differential-fuzzing and invariant-oracle layer for the
//! tiering substrate and every policy built on it.
//!
//! Six pieces, layered bottom-up:
//!
//! - [`oracle`]: the [`InvariantOracle`], a pure observer that sweeps a
//!   [`tiered_mem::TieredSystem`] and reports every broken substrate
//!   invariant — frame conservation, PFN exclusivity, reverse-map and
//!   residency-cache agreement, huge-block integrity, LRU consistency,
//!   watermark ordering, and migration-byte accounting.
//! - [`ops`] + [`shrink`]: a seeded op-schedule fuzzer over the raw
//!   substrate. Failures shrink (ddmin) to a minimal replayable sequence
//!   printed with its seed and case shape.
//! - [`profile`]: the `harness fuzz` profiles as one [`FuzzProfile`] table
//!   and the runner every row goes through.
//! - [`registry`]: [`PolicyKind`], the one factory every named policy is
//!   built through (harness figures and fleets, fuzz cases, goldens and the
//!   benchmark), with its [`Scale`] and [`Topology`].
//! - [`policy_fuzz`]: seeded end-to-end runs of every tiering policy with
//!   the oracle attached to the driver's inspect hook, plus the
//!   same-seed ⇒ same-digest determinism check.
//! - [`metamorphic`] + [`golden`]: directional relations over the Chrono
//!   control loop (CIT-threshold monotonicity, rate-limit monotonicity,
//!   huge/base accounting agreement) and golden-trace snapshots for
//!   canonical seeds.
//!
//! The `harness verify` and `harness fuzz` subcommands drive this crate
//! from CI; `cargo test -p tiering-verify` runs the scaled-down versions.

#![warn(missing_docs)]

pub mod golden;
pub mod metamorphic;
pub mod ops;
pub mod oracle;
pub mod policy_fuzz;
pub mod profile;
pub mod registry;
pub mod sharded;
pub mod shrink;

pub use golden::{
    bless_goldens, check_goldens, GoldenResult, GoldenStatus, FAULT_GOLDEN_SEED, GOLDEN_SEEDS,
};
pub use ops::{run_case, CaseConfig, FuzzOp, Mix, OpsFailure, Shape, ShrunkFailure};
pub use oracle::{InvariantOracle, Violation};
pub use policy_fuzz::{
    determinism_digests, run_policy_case, run_policy_case_with_plan, tier_chaos_case,
    PolicyRunReport, CHAIN_POLICIES,
};
pub use profile::{CaseOutcome, FuzzProfile, CLEAN, PROFILES};
pub use registry::{PolicyKind, Scale, Topology};
pub use sharded::{
    shard_tier_chaos_events, tenant_weights, ShardedCase, ShardedCaseReport, SHARD_GOLDEN_TENANTS,
};
pub use shrink::shrink_ops;
