//! Deterministic differential-fuzzing and invariant-oracle layer for the
//! tiering substrate and every policy built on it.
//!
//! Five pieces, layered bottom-up:
//!
//! - [`oracle`]: the [`InvariantOracle`], a pure observer that sweeps a
//!   [`tiered_mem::TieredSystem`] and reports every broken substrate
//!   invariant — frame conservation, PFN exclusivity, reverse-map and
//!   residency-cache agreement, huge-block integrity, LRU consistency,
//!   watermark ordering, and migration-byte accounting.
//! - [`ops`] + [`shrink`]: a seeded op-schedule fuzzer over the raw
//!   substrate. Failures shrink (ddmin) to a minimal replayable sequence
//!   printed with its seed and case shape.
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
pub mod registry;
pub mod sharded;
pub mod shrink;

pub use golden::{
    bless_goldens, check_goldens, GoldenResult, GoldenStatus, FAULT_GOLDEN_SEED, GOLDEN_SEEDS,
};
pub use ops::{
    fault_case_from_seed, fuzz_one, fuzz_one_fault_storm, fuzz_one_stress, fuzz_one_three_tier,
    generate_fault_ops, generate_ops, generate_stress_ops, generate_three_tier_ops, run_case,
    stress_case_from_seed, three_tier_case_from_seed, CaseConfig, FuzzOp, OpsFailure,
    ShrunkFailure,
};
pub use oracle::{InvariantOracle, Violation};
pub use policy_fuzz::{
    determinism_digests, fuzz_one_tier_chaos, run_policy_case, run_policy_case_with_plan,
    PolicyRunReport, CHAIN_POLICIES,
};
pub use registry::{PolicyKind, Scale, Topology};
pub use sharded::{
    fuzz_one_tenant_storm, run_sharded_case, run_sharded_case_mixed, run_sharded_case_permuted,
    run_sharded_case_with_plans, run_sharded_tier_chaos_case, shard_tier_chaos_events,
    tenant_weights, ShardedCaseReport, SHARD_GOLDEN_TENANTS,
};
pub use shrink::shrink_ops;
