//! The tiered memory system: processes, faults, migration, LRU maintenance.
//!
//! [`TieredSystem`] is the substrate every tiering policy runs on. It owns
//! the clock, the per-tier frame tables and LRU lists, the per-process
//! address spaces, and an event queue for policy daemons. The *mechanisms*
//! live here (fault taking, frame movement, watermark checks); all *policy*
//! (who to promote/demote and when) lives in the policy crates.
//!
//! This file holds the struct, its constructor, accessors and trace rows;
//! each layer of mechanism has its own module: the access path (`access`),
//! LRU maintenance and reclaim (`reclaim`), migration (`migrate`), capacity
//! and the fault plan (`capacity`), and tier health with live evacuation
//! (`health`).

use sim_clock::{Clock, EventQueue, Nanos};
use tiering_trace::{PeriodSample, PolicyTraceState, TraceEvent, Tracer};

use crate::addr::{PageSize, Pfn, ProcessId, Vpn};
use crate::config::SystemConfig;
use crate::fault::FaultState;
use crate::frame::{FrameOwner, FrameTable};
use crate::lru::LruLists;
use crate::migration::MigrationEngine;
use crate::space::AddressSpace;
use crate::stats::SystemStats;
use crate::tier::{TierHealth, TierId};
use crate::watermark::Watermarks;

mod access;
mod capacity;
mod health;
mod migrate;
mod reclaim;
#[cfg(test)]
mod tests;

pub use access::AccessResult;
use access::TierLoad;
pub use migrate::{MigrateError, MigrateMode, MigrationFailure};

/// Aging/scan budget in pages for covering `frames` once per `period`,
/// pro-rated to one `interval` tick: `frames * interval / period`.
///
/// Computed in 128-bit and saturated at `u32::MAX`: with a long interval
/// against a short period the product exceeds 2^32 pages, and the bare
/// `as u32` every policy used to write silently wraps the budget down to
/// near zero — the same modular-cast bug class as `cit_from_word`.
pub fn scan_budget_pages(frames: u32, interval: Nanos, period: Nanos) -> u32 {
    let scaled =
        u128::from(frames) * u128::from(interval.as_nanos()) / u128::from(period.as_nanos().max(1));
    u32::try_from(scaled).unwrap_or(u32::MAX)
}

/// One simulated process: an address space plus scheduling state.
#[derive(Debug)]
pub struct Process {
    /// The process page table.
    pub space: AddressSpace,
    /// The process's virtual time: how far its execution has progressed.
    pub vtime: Nanos,
    /// Completed workload operations.
    pub ops: u64,
    /// Whether the process still has work (drivers skip finished processes).
    pub running: bool,
    /// Resident frames currently charged to the process.
    pub resident_frames: u32,
    /// cgroup-style memory limit in frames, if confined.
    pub memory_limit: Option<u32>,
}

/// The tiered memory system.
pub struct TieredSystem {
    /// Simulated global clock (advanced by the driver).
    pub clock: Clock,
    /// Policy daemon event queue; payloads are policy-defined tokens.
    pub events: EventQueue<u64>,
    /// Run-time statistics.
    pub stats: SystemStats,
    /// Observability: disabled by default, enabled via
    /// [`TieredSystem::enable_tracing`].
    pub trace: Tracer,
    /// Fast-tier watermarks (the terminal tier spills to swap).
    pub watermarks: Watermarks,
    cfg: SystemConfig,
    /// Stats snapshot at the last trace period, for delta rows.
    trace_baseline: SystemStats,
    /// One frame table per managed tier, chain order.
    frames: Vec<FrameTable>,
    lru: Vec<LruLists>,
    procs: Vec<Process>,
    /// Two-phase in-flight migration state (bounded slots, per-edge FIFOs).
    engine: MigrationEngine,
    /// Per-tier device-contention state.
    contention: Vec<TierLoad>,
    /// Deterministic fault injection, present only when the config carries a
    /// [`FaultPlan`]. `None` means zero extra RNG draws and zero fault
    /// branches taken on the hot paths.
    fault: Option<FaultState>,
    /// Migrations that failed at completion time (the caller is gone);
    /// drained by policies via [`TieredSystem::take_migration_failures`].
    failed_async: Vec<MigrationFailure>,
    /// PTE pages whose `PG_probed` bit was cleared, in clear order; drained
    /// by DCSC via [`TieredSystem::take_probe_clears`]. Only set bits are
    /// logged, so a run that never probes never grows it.
    probe_clears: Vec<(ProcessId, Vpn)>,
    /// Per-tier frames a capacity shrink still owes: the free pool was
    /// short at event time, so the remainder is taken as frames free up.
    shrink_debt: Vec<u32>,
    /// Sum of `shrink_debt`, kept by every writer, so the per-access
    /// completion pump's idle test reads one field instead of the `Vec`.
    shrink_debt_total: u64,
    /// Per-tier failure-domain health, chain order. All `Online` in a
    /// fault-free run.
    health: Vec<TierHealth>,
    /// Fast-path flag: whether any tier is not `Online` (or any tier event
    /// is pending on the plan). Lets the per-access completion pump keep
    /// its cheap early-out when the failure-domain machinery is idle.
    health_active: bool,
    /// Per-tier resume cursor for the evacuation pump's frame walk, so each
    /// pump pass is O(frames visited) amortized rather than O(tier size).
    evac_cursor: Vec<u32>,
}

impl TieredSystem {
    /// Builds a system from a configuration.
    pub fn new(cfg: SystemConfig) -> TieredSystem {
        let n = cfg.num_tiers();
        let fast_frames = cfg.fast().frames;
        TieredSystem {
            clock: Clock::new(),
            events: EventQueue::new(),
            stats: SystemStats::default(),
            trace: Tracer::disabled(),
            trace_baseline: SystemStats::default(),
            watermarks: Watermarks::scaled_to(fast_frames),
            frames: cfg
                .chain
                .tiers
                .iter()
                .map(|t| FrameTable::new(t.frames))
                .collect(),
            lru: (0..n).map(|_| LruLists::new()).collect(),
            procs: Vec::new(),
            engine: MigrationEngine::new(cfg.migration.clone(), n),
            fault: cfg.fault_plan.clone().map(FaultState::new),
            health_active: cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| !p.tier_events.is_empty()),
            cfg,
            contention: vec![TierLoad::default(); n],
            failed_async: Vec::new(),
            probe_clears: Vec::new(),
            shrink_debt: vec![0; n],
            shrink_debt_total: 0,
            health: vec![TierHealth::Online; n],
            evac_cursor: vec![0; n],
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Turns on trace recording with the given event-ring bound. Tracing is
    /// off by default and costs one branch per record site when disabled.
    pub fn enable_tracing(&mut self, event_cap: usize) {
        self.trace = Tracer::enabled(event_cap);
        self.trace_baseline = self.stats.clone();
    }

    /// Closes one observation period: records a [`PeriodSample`] combining
    /// the caller's policy control state with the substrate's activity since
    /// the previous call (promotions, demotions, thrashing, hint faults,
    /// FMAR). No-op while tracing is disabled.
    pub fn trace_period(&mut self, policy: PolicyTraceState) {
        if !self.trace.is_enabled() {
            return;
        }
        let (now, base) = (&self.stats, &self.trace_baseline);
        let sample = PeriodSample {
            timestamp: self.clock.now(),
            policy,
            promoted_pages: now.promoted_pages - base.promoted_pages,
            demoted_pages: now.demoted_pages - base.demoted_pages,
            thrash_events: now.thrash_events - base.thrash_events,
            hint_faults: now.hint_faults - base.hint_faults,
            period_fmar: now.fmar_since(base),
            fmar: now.fmar(),
            fast_used_frames: self.used_frames(TierId::FAST) as u64,
            // All non-top tiers together, so the gauge keeps its two-tier
            // meaning on longer chains ("frames not in the fast tier").
            slow_used_frames: self
                .cfg
                .chain
                .ids()
                .skip(1)
                .map(|t| self.used_frames(t) as u64)
                .sum(),
            in_flight_migrations: self.engine.in_flight() as u64,
            quarantined_frames: self
                .frames
                .iter()
                .map(|f| f.quarantined_frames() as u64)
                .sum(),
            offlined_frames: self.frames[TierId::FAST.index()].offlined_frames() as u64,
            // 4 bits per tier, chain order; an all-Online chain packs to 0
            // so fault-free digests fold nothing new.
            tier_health: self
                .health
                .iter()
                .enumerate()
                .fold(0u32, |acc, (i, h)| acc | (u32::from(h.code()) << (4 * i))),
        };
        self.trace.record_period(|| sample);
        self.trace_baseline = self.stats.clone();
    }

    /// Adds a process with an address space of `pages` base pages.
    pub fn add_process(&mut self, pages: u32, page_size: PageSize) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u16);
        self.procs.push(Process {
            space: AddressSpace::new(pages, page_size),
            vtime: Nanos::ZERO,
            ops: 0,
            running: true,
            resident_frames: 0,
            memory_limit: None,
        });
        pid
    }

    /// Confines a process to a cgroup-style memory limit (frames). Policies
    /// enforce it via slow-tier reclamation (see `chrono-core`); the system
    /// only does the accounting.
    pub fn set_memory_limit(&mut self, pid: ProcessId, frames: Option<u32>) {
        self.procs[pid.0 as usize].memory_limit = frames;
    }

    /// Frames the process is over its memory limit, zero if unconfined.
    pub fn over_limit_frames(&self, pid: ProcessId) -> u32 {
        let p = &self.procs[pid.0 as usize];
        match p.memory_limit {
            Some(limit) => p.resident_frames.saturating_sub(limit),
            None => 0,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// All process ids.
    pub fn pids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.procs.len() as u16).map(ProcessId)
    }

    /// Immutable process access.
    pub fn process(&self, pid: ProcessId) -> &Process {
        &self.procs[pid.0 as usize]
    }

    /// Mutable process access.
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut Process {
        &mut self.procs[pid.0 as usize]
    }

    /// The running process with the smallest virtual time, i.e. the next one
    /// a fair concurrency model would execute, and that virtual time — the
    /// scan already has it, and handing it back saves the driver a second
    /// process lookup on its per-access hot path.
    pub fn min_vtime_process_and_time(&self) -> Option<(ProcessId, Nanos)> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.running)
            .min_by_key(|(_, p)| p.vtime)
            .map(|(i, p)| (ProcessId(i as u16), p.vtime))
    }

    /// Largest virtual time across all processes (run makespan).
    pub fn makespan(&self) -> Nanos {
        self.procs
            .iter()
            .map(|p| p.vtime)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Free frames in a tier.
    pub fn free_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].free_frames()
    }

    /// Used frames in a tier.
    pub fn used_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].used_frames()
    }

    /// Frames in service in a tier: provisioned frames minus quarantined
    /// minus offlined ones. This is the tier size watermark retuning and
    /// allocation policy see — capacity events change it at runtime.
    pub fn total_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].usable_frames()
    }

    /// Raw provisioned frame-space size of a tier — the bound on valid PFN
    /// numbering. Unlike [`TieredSystem::total_frames`] this never changes:
    /// offlined and quarantined frames keep their numbers.
    pub fn raw_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].total()
    }

    /// Frames permanently quarantined in a tier after uncorrectable errors.
    pub fn quarantined_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].quarantined_frames()
    }

    /// Frames currently offlined in a tier by capacity-shrink events.
    pub fn offlined_frames(&self, tier: TierId) -> u32 {
        self.frames[tier.index()].offlined_frames()
    }

    /// The quarantined frame numbers of a tier, ascending. Exposed for the
    /// `tiering-verify` invariant oracle.
    pub fn quarantined_pfns(&self, tier: TierId) -> impl Iterator<Item = Pfn> + '_ {
        self.frames[tier.index()].quarantined_pfns()
    }

    /// Whether `pfn` sits on the tier's free list. Exposed for the
    /// `tiering-verify` invariant oracle (O(free) scan — oracle-only).
    pub fn frame_is_free(&self, tier: TierId, pfn: Pfn) -> bool {
        self.frames[tier.index()].is_free(pfn)
    }

    /// Whether `pfn` is permanently quarantined in `tier`.
    pub fn frame_is_quarantined(&self, tier: TierId, pfn: Pfn) -> bool {
        self.frames[tier.index()].is_quarantined(pfn)
    }

    /// Frames a capacity shrink still owes on `tier`.
    pub fn tier_shrink_debt(&self, tier: TierId) -> u32 {
        self.shrink_debt[tier.index()]
    }

    /// Failure-domain health of one tier.
    pub fn tier_health(&self, tier: TierId) -> TierHealth {
        self.health[tier.index()]
    }

    /// Per-tier failure-domain health, chain order.
    pub fn tier_health_all(&self) -> &[TierHealth] {
        &self.health
    }

    /// In-flight evacuation-lane pages (see the flow-conservation invariant
    /// on [`SystemStats::evacuated_pages`]). Exposed for the
    /// `tiering-verify` invariant oracle.
    pub fn in_flight_evac_pages(&self) -> u64 {
        self.engine.in_flight_evac_pages()
    }

    /// Charges kernel work: always accounted in [`SystemStats::kernel_time`],
    /// and also stalls `pid`'s execution when given (work done in its context).
    pub fn charge_kernel(&mut self, pid: Option<ProcessId>, cost: Nanos) {
        self.stats.kernel_time += cost;
        if let Some(pid) = pid {
            self.procs[pid.0 as usize].vtime += cost;
        }
    }

    /// Counts a daemon wake-up as a context switch (Fig 8 accounting).
    pub fn count_daemon_wakeup(&mut self) {
        self.stats.context_switches += 1;
    }

    /// Reverse-map lookup: the virtual page owning `pfn` in `tier`, if
    /// allocated. Exposed for the `tiering-verify` invariant oracle.
    pub fn frame_owner(&self, tier: TierId, pfn: crate::addr::Pfn) -> Option<FrameOwner> {
        self.frames[tier.index()].owner(pfn)
    }

    /// Records a multi-tenant admission grant into this tenant's trace.
    /// Only the sharded runner calls this (and only with the hook enabled),
    /// so hook-off runs record exactly the event stream they always did.
    pub fn trace_admission(&mut self, tenant: u32, granted: u32, in_flight: u32, starvation: u32) {
        let now = self.clock.now();
        self.trace.emit(now, || TraceEvent::Admission {
            tenant,
            granted,
            in_flight,
            starvation,
        });
    }

    /// Schedules a policy event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: Nanos, token: u64) {
        let at = self.clock.now() + delay;
        self.events.schedule(at, token);
    }

    /// Charges the cost of visiting `n` PTEs during a scan to `pid` (the scan
    /// runs in task context, as `task_numa_work` does) and counts them.
    pub fn charge_scan(&mut self, pid: ProcessId, n: u64) {
        self.stats.scanned_ptes += n;
        let cost = self.cfg.cost.scan_pte.scale(n);
        self.charge_kernel(Some(pid), cost);
    }
}
