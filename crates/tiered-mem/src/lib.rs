#![warn(missing_docs)]
//! N-tier physical memory substrate for the Chrono reproduction.
//!
//! This crate models everything the paper's kernel mechanisms touch:
//! per-process page tables with software PTEs ([`page::PageFlags`] carries
//! `PROT_NONE`, accessed/dirty, `PG_probed`, `demoted`, and a two-bit
//! residency tier index), an ordered [`tier::TierChain`] of managed tiers
//! with per-tier frame tables and reverse maps, Linux-style active/inactive
//! LRU lists, free-memory watermarks including Chrono's `pro` watermark, a
//! migration engine with per-edge bandwidth accounting, and a latency cost
//! model calibrated to DRAM vs. CXL vs. Optane-PMem characteristics. The
//! classic two-tier shape (`SystemConfig::dram_pmem`) is the degenerate
//! two-element chain and behaves bit-identically to the historical
//! fast/slow pair.
//!
//! Policies (crate `tiering-policies`, `chrono-core`) drive a
//! [`TieredSystem`] through its mechanism API; workload generators (crate
//! `workloads`) feed it accesses.
//!
//! # Examples
//!
//! ```
//! use tiered_mem::{PageSize, SystemConfig, TieredSystem, TierId, Vpn};
//!
//! let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 192));
//! let pid = sys.add_process(128, PageSize::Base);
//! let r = sys.access(pid, Vpn(0), false);
//! assert!(r.demand_fault);
//! assert_eq!(r.tier, TierId::FAST); // top-tier-first allocation
//! ```

pub mod addr;
pub mod config;
pub mod fault;
pub mod frame;
pub mod lru;
pub mod migration;
pub mod page;
pub mod partition;
pub mod space;
pub mod stats;
pub mod system;
pub mod tier;
pub mod watermark;

pub use addr::{PageSize, Pfn, ProcessId, Vpn, BASE_PAGE_BYTES, HUGE_2M_PAGES};
pub use config::{CostModel, MigrationSpec, SwapSpec, SystemConfig};
pub use fault::{
    CapacityEvent, CapacityKind, CopyFault, DegradeWindow, FaultPlan, FaultState, TierEvent,
    TierEventKind,
};
pub use frame::{FrameOwner, FrameTable};
pub use lru::{LruEntry, LruKind, LruLists};
pub use migration::{MigrationEngine, MigrationTxn, MigrationTxnId};
pub use page::{PageEntry, PageFlags};
pub use partition::{FramePartition, PartitionPlan, MIN_FAST_FRAMES, MIN_SLOW_FRAMES};
pub use space::AddressSpace;
pub use stats::SystemStats;
pub use system::{
    scan_budget_pages, AccessResult, MigrateError, MigrateMode, MigrationFailure, Process,
    TieredSystem,
};
pub use tier::{TierChain, TierHealth, TierId, TierSpec, MAX_TIERS};
pub use watermark::Watermarks;
