#![warn(missing_docs)]
//! Workload generators for the Chrono reproduction.
//!
//! Each generator models one of the paper's benchmarks as a stream of page
//! accesses with think time:
//!
//! - [`pmbench`]: the paging microbenchmark used throughout Section 5.1 —
//!   Gaussian (`normal_ih`) access patterns with stride, configurable
//!   read/write ratio, and the per-process `delay` knob used by the Fig 9
//!   multi-tenant experiment.
//! - [`graph500`]: a scale-free graph with BFS/SSSP drivers (Section 5.2),
//!   producing the hub-skewed page accesses of graph search.
//! - [`kvstore`]: an in-memory key-value store in the style of Memcached and
//!   Redis, driven by a memtier-like Gaussian key popularity (Section 5.3).
//! - [`pattern`]: the underlying reusable address distributions.
//!
//! Generators implement [`Workload`], yielding one [`AccessReq`] at a time so
//! the simulation driver never allocates on the access path.

pub mod graph500;
pub mod kvstore;
pub mod pattern;
pub mod phased;
pub mod pmbench;
pub mod trace;

use sim_clock::Nanos;
use tiered_mem::Vpn;

/// One memory access request emitted by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReq {
    /// Target page.
    pub vpn: Vpn,
    /// Whether this is a store.
    pub write: bool,
    /// CPU think time preceding the access (pmbench's `delay`, graph compute).
    pub think: Nanos,
}

/// A per-process stream of memory accesses.
///
/// `Send` is a supertrait so tenant shards (workload + system + policy) can
/// move across the worker threads of a sharded run; workload generators are
/// plain data over `DetRng`, so this costs implementors nothing.
pub trait Workload: Send {
    /// Produces the next access, or `None` when the process has finished its
    /// work (finite workloads like Graph500 runs).
    fn next_access(&mut self) -> Option<AccessReq>;

    /// Number of base pages this workload's address space must cover.
    fn address_space_pages(&self) -> u32;

    /// Short human-readable label for reports.
    fn label(&self) -> String;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_access(&mut self) -> Option<AccessReq> {
        (**self).next_access()
    }
    fn address_space_pages(&self) -> u32 {
        (**self).address_space_pages()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

pub use graph500::{Graph500Config, Graph500Workload, GraphKernel};
pub use kvstore::{KvFlavor, KvStoreConfig, KvStoreWorkload};
pub use pattern::{AccessPattern, GaussianPattern, HotsetPattern, UniformPattern};
pub use phased::PhasedWorkload;
pub use pmbench::{PmbenchConfig, PmbenchWorkload};
pub use trace::{Trace, TraceRecord, TraceWorkload};
