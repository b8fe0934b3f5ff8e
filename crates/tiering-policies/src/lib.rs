#![warn(missing_docs)]
//! Tiering policies: the trait all policies implement, a generic simulation
//! driver, and the paper's five baselines.
//!
//! | Policy | Paper | Mechanism (Table 1) |
//! |---|---|---|
//! | [`LinuxNumaBalancing`] | Linux-NB | NUMA hint faults, MRU promotion |
//! | [`AutoTiering`] | Kim et al., ATC '21 | 8-bit LAP page-fault vectors |
//! | [`MultiClock`] | Maruf et al., HPCA '22 | multi-level accessed-bit lists |
//! | [`Tpp`] | Maruf et al., ASPLOS '23 | hint faults + LRU recency gate |
//! | [`Memtis`] | Lee et al., SOSP '23 | PEBS sampling + histogram, huge pages |
//! | [`Telescope`] | Nair et al., ATC '24 | tree-structured region profiling |
//! | [`FlexMem`] | Xu et al., ATC '24 | PEBS statistics + hint-fault timeliness |
//!
//! Chrono itself lives in the `chrono-core` crate and implements the same
//! [`TieringPolicy`] trait.

pub mod autotiering;
pub mod driver;
pub mod flexmem;
pub mod linux_nb;
pub mod memtis;
pub mod multiclock;
pub mod pebs;
pub mod policy;
pub mod shard;
pub mod telescope;
pub mod tpp;

pub use autotiering::AutoTiering;
pub use driver::{DriverConfig, DriverSession, RunResult, SimulationDriver};
pub use flexmem::{FlexMem, FlexMemConfig};
pub use linux_nb::LinuxNumaBalancing;
pub use memtis::{Memtis, MemtisConfig};
pub use multiclock::{MultiClock, MultiClockConfig};
pub use pebs::PebsSampler;
pub use policy::{
    age_tier, decode_token, demote_until, encode_token, lower_tier_headroom, promote_deferred,
    NullPolicy, ScanCursor, TieringPolicy,
};
pub use shard::{
    admission_grants, gini, AdmissionConfig, BarrierAudit, ShardedConfig, ShardedRunResult,
    ShardedSim, SlotClaim, TenantOutcome, TenantShard,
};
pub use telescope::{Telescope, TelescopeConfig};
pub use tpp::{Tpp, TppConfig};
