//! The tiered memory system: processes, faults, migration, LRU maintenance.
//!
//! [`TieredSystem`] is the substrate every tiering policy runs on. It owns
//! the clock, the per-tier frame tables and LRU lists, the per-process
//! address spaces, and an event queue for policy daemons. The *mechanisms*
//! live here (fault taking, frame movement, watermark checks); all *policy*
//! (who to promote/demote and when) lives in the policy crates.

use sim_clock::{Clock, EventQueue, Nanos};
use tiering_trace::{MigrateDir, PeriodSample, PolicyTraceState, TraceEvent, Tracer};

use crate::addr::{PageSize, Pfn, ProcessId, Vpn, BASE_PAGE_BYTES, HUGE_2M_PAGES};
use crate::config::SystemConfig;
use crate::fault::{
    CapacityKind, CopyFault, DegradeWindow, FaultPlan, FaultState, TierEvent, TierEventKind,
};
use crate::frame::{FrameOwner, FrameTable};
use crate::lru::{LruEntry, LruKind, LruLists};
use crate::migration::{MigrationEngine, MigrationTxn, MigrationTxnId};
use crate::page::PageFlags;
use crate::space::AddressSpace;
use crate::stats::SystemStats;
use crate::tier::{EdgeSpec, TierHealth, TierId};
use crate::watermark::Watermarks;

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

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Total latency charged to the process for this access.
    pub latency: Nanos,
    /// Tier that ultimately served the access.
    pub tier: TierId,
    /// A `PROT_NONE` hint fault was taken (policy fault hooks should run).
    pub hint_fault: bool,
    /// The page was faulted in for the first time.
    pub demand_fault: bool,
    /// The page was unmapped by a DCSC probe (`PG_probed`) rather than a scan.
    pub probed_fault: bool,
    /// Instant at which the fault (if any) was taken; CIT's fault timestamp.
    pub fault_time: Nanos,
}

/// Why a migration could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The page is not resident.
    NotPresent,
    /// The page is already in the requested tier.
    SameTier,
    /// The destination tier has no free frames (after any reclaim attempts).
    NoSpace,
    /// The migration engine refused admission: in-flight slots or the
    /// destination channel's backlog cap are exhausted, or the unit already
    /// has a transaction in flight.
    Backpressure,
    /// The copy failed transiently (fault injection). The reservation was
    /// released and the source mapping stayed authoritative; a retry of the
    /// same migration may succeed.
    CopyFault,
    /// The copy failed permanently (fault injection): one destination frame
    /// took an uncorrectable error and was quarantined. The source mapping
    /// stayed authoritative; a retry lands on different frames.
    Poisoned,
    /// The requested migration does not cross a single adjacent edge of the
    /// tier chain. Pages move one hop at a time; a two-hop move is two
    /// migrations. (A splice edge across `Offline` tiers counts as one hop
    /// while the splice holds.)
    NonAdjacent,
    /// The destination tier is not accepting pages: it is evacuating,
    /// offline, or still rejoining. Policies should reroute to the tier's
    /// healthy neighbor or back off until the tier returns.
    TierOffline,
}

impl MigrateError {
    /// Number of failure reasons (size of per-reason counter tables).
    pub const COUNT: usize = 8;
    /// Reason names, indexed by [`MigrateError::index`].
    pub const REASONS: [&'static str; Self::COUNT] = [
        "not_present",
        "same_tier",
        "no_space",
        "backpressure",
        "copy_fault",
        "poisoned",
        "non_adjacent",
        "tier_offline",
    ];

    /// Dense index for per-reason counter tables
    /// ([`SystemStats::failed_fast_migrations`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MigrateError::NotPresent => 0,
            MigrateError::SameTier => 1,
            MigrateError::NoSpace => 2,
            MigrateError::Backpressure => 3,
            MigrateError::CopyFault => 4,
            MigrateError::Poisoned => 5,
            MigrateError::NonAdjacent => 6,
            MigrateError::TierOffline => 7,
        }
    }
}

/// Record of an asynchronously failed migration, reported at completion
/// time when the original caller is long gone. Policies drain these via
/// [`TieredSystem::take_migration_failures`] and decide whether to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationFailure {
    /// Owning process of the failed unit.
    pub pid: ProcessId,
    /// Head page of the unit that failed to move.
    pub head: Vpn,
    /// Base pages the transaction covered.
    pub unit: u32,
    /// Source tier the unit was leaving (it stays there on failure).
    pub from: TierId,
    /// Destination tier the copy was headed to.
    pub to: TierId,
    /// Why it failed ([`MigrateError::CopyFault`] or
    /// [`MigrateError::Poisoned`]).
    pub reason: MigrateError,
}

/// Whose time a migration is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateMode {
    /// Synchronous: the given process waits for the copy (NUMA-balancing
    /// style migrate-on-fault).
    Sync(ProcessId),
    /// Asynchronous: a background kernel thread performs the copy (Chrono's
    /// promotion queue, TPP's demotion daemon).
    Async,
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

/// Sliding-window utilization tracker for one tier's memory device.
///
/// Each access contributes its device occupancy (write-weighted) to the
/// current window; at window rollover the utilization becomes the smoothed
/// load estimate driving the queueing penalty.
#[derive(Debug, Clone)]
struct TierLoad {
    window_start: Nanos,
    weighted_ops: f64,
    utilization: f64,
}

/// Utilization measurement window.
const LOAD_WINDOW: Nanos = Nanos(50_000); // 50 µs

/// Trace direction of a migration from the edge it crosses: any move toward
/// the top of the chain is a promotion, any move down a demotion.
fn migrate_dir(from: TierId, to: TierId) -> MigrateDir {
    if to < from {
        MigrateDir::Promote
    } else {
        MigrateDir::Demote
    }
}

impl TierLoad {
    fn new() -> TierLoad {
        TierLoad {
            window_start: Nanos::ZERO,
            weighted_ops: 0.0,
            utilization: 0.0,
        }
    }

    /// Records one access at `now` and returns the current latency
    /// multiplier. Below 70 % utilization the device is unloaded; beyond it
    /// an M/M/1-flavoured `1/(1-u)` queueing term kicks in, capped at 8×.
    fn record(&mut self, now: Nanos, weight: f64, capacity_ops: u64) -> f64 {
        if now.saturating_sub(self.window_start) >= LOAD_WINDOW {
            let window_secs = LOAD_WINDOW.as_secs_f64();
            let raw = self.weighted_ops / (capacity_ops as f64 * window_secs);
            // EMA smoothing so one bursty window doesn't whipsaw latency.
            self.utilization = 0.5 * self.utilization + 0.5 * raw;
            self.window_start = now;
            self.weighted_ops = 0.0;
        }
        self.weighted_ops += weight;
        let u = self.utilization;
        if u <= 0.7 {
            1.0
        } else {
            (0.3 / (1.0 - u.min(0.95))).clamp(1.0, 8.0)
        }
    }
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
            contention: (0..n).map(|_| TierLoad::new()).collect(),
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
        let delta = self.stats.delta_since(&self.trace_baseline);
        let sample = PeriodSample {
            timestamp: self.clock.now(),
            policy,
            promoted_pages: delta.promoted_pages,
            demoted_pages: delta.demoted_pages,
            thrash_events: delta.thrash_events,
            hint_faults: delta.hint_faults,
            period_fmar: delta.fmar(),
            fmar: self.stats.fmar(),
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

    /// Executes one memory access of `pid` to `vpn`.
    ///
    /// Handles demand paging, `PROT_NONE` hint faults (clearing the bit and
    /// reporting so the driver can invoke the policy's fault hook), accessed/
    /// dirty bit setting, latency charging, and statistics. The process's
    /// virtual time advances by the returned latency.
    pub fn access(&mut self, pid: ProcessId, vpn: Vpn, write: bool) -> AccessResult {
        let proc = &mut self.procs[pid.0 as usize];
        let now = proc.vtime;
        let pte_vpn = proc.space.pte_page(vpn);

        // Fast path: a warm present base page with no hint bit and no
        // in-flight write conflict needs exactly one page-table touch —
        // read the flags and stamp ACCESSED/DIRTY through the same
        // reference. Every rare condition falls through to the general
        // path below, which re-reads the entry itself.
        if pte_vpn == vpn {
            let entry = proc.space.entry_mut(pte_vpn);
            let flags = entry.flags;
            if flags.has(PageFlags::PRESENT)
                && !flags.has(PageFlags::PROT_NONE)
                && !(write && flags.has(PageFlags::MIGRATING))
            {
                entry.flags.set(PageFlags::ACCESSED);
                if write {
                    entry.flags.set(PageFlags::DIRTY);
                }
                let tier = entry.tier();
                let latency = self.cfg.cost.cpu_op;
                return self.charge_and_finish(pid, tier, write, now, latency, false, false, false);
            }
        }

        let mut latency = self.cfg.cost.cpu_op;
        let mut hint_fault = false;
        let mut demand_fault = false;
        let mut probed_fault = false;

        // One entry read feeds the rare-path checks below (demand fault,
        // hint fault, in-flight-migration abort); the general path — a cold
        // or flagged page — touches the page table again for the final
        // ACCESSED/DIRTY update. `flags` is refreshed after every branch
        // that mutates the entry so later checks see current state.
        let mut flags = self.procs[pid.0 as usize].space.entry(pte_vpn).flags;

        if !flags.has(PageFlags::PRESENT) {
            let swapped = flags.has(PageFlags::SWAPPED);
            self.demand_map(pid, pte_vpn);
            demand_fault = true;
            if swapped {
                // Major fault: the page comes back from the swap device.
                let e = self.procs[pid.0 as usize].space.entry_mut(pte_vpn);
                e.flags.clear(PageFlags::SWAPPED);
                let swap_latency = self.cfg.swap().fault_latency;
                latency += swap_latency;
                self.stats.swap_in_faults += 1;
                self.stats.kernel_time += swap_latency;
            } else {
                latency += self.cfg.cost.demand_fault;
                self.stats.demand_faults += 1;
                self.stats.kernel_time += self.cfg.cost.demand_fault;
            }
            self.stats.context_switches += 1;
            flags = self.procs[pid.0 as usize].space.entry(pte_vpn).flags;
        }

        if flags.has(PageFlags::PROT_NONE) {
            let entry = self.procs[pid.0 as usize].space.entry_mut(pte_vpn);
            entry.flags.clear(PageFlags::PROT_NONE);
            probed_fault = entry.flags.has(PageFlags::PROBED);
            flags = entry.flags;
            hint_fault = true;
            latency += self.cfg.cost.hint_fault;
            self.stats.hint_faults += 1;
            self.stats.context_switches += 1;
            self.stats.kernel_time += self.cfg.cost.hint_fault;
        }

        // Nomad-style transactional migration: a store into an in-flight
        // unit invalidates the copy, so the transaction aborts and the page
        // stays (re-dirtied) in its source tier. Loads race harmlessly —
        // they read the still-mapped old frames.
        if write
            && flags.has(PageFlags::MIGRATING)
            && self.engine.copy_started(pid, pte_vpn, self.clock.now())
        {
            // Only an *active* copy conflicts with the store; a transaction
            // still queued behind the channel backlog reads the source after
            // this write lands, so the copy stays coherent and the DIRTY bit
            // set below is all the bookkeeping needed.
            self.abort_migration(pid, pte_vpn, true);
        }

        let entry = self.procs[pid.0 as usize].space.entry_mut(pte_vpn);
        entry.flags.set(PageFlags::ACCESSED);
        if write {
            entry.flags.set(PageFlags::DIRTY);
        }
        let tier = entry.tier();
        // For huge mappings, also stamp the specific base page's accessed bit
        // so post-split state is meaningful.
        if pte_vpn != vpn {
            let base = self.procs[pid.0 as usize].space.entry_mut(vpn);
            base.flags.set(PageFlags::ACCESSED);
            if write {
                base.flags.set(PageFlags::DIRTY);
            }
        }

        self.charge_and_finish(
            pid,
            tier,
            write,
            now,
            latency,
            hint_fault,
            demand_fault,
            probed_fault,
        )
    }

    /// Shared tail of [`TieredSystem::access`]: charges the tier's device
    /// latency (with contention) on top of `latency`, updates statistics and
    /// the process's virtual time, and assembles the result. Both the
    /// single-lookup fast path and the general faulting path funnel through
    /// here so the latency arithmetic is identical bit for bit.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn charge_and_finish(
        &mut self,
        pid: ProcessId,
        tier: TierId,
        write: bool,
        now: Nanos,
        mut latency: Nanos,
        hint_fault: bool,
        demand_fault: bool,
        probed_fault: bool,
    ) -> AccessResult {
        let spec = self.cfg.chain.tier(tier);
        let base = if write {
            spec.write_latency
        } else {
            spec.read_latency
        };
        let weight = if write { spec.write_weight } else { 1.0 };
        let mult = self.contention[tier.index()].record(now, weight, spec.access_capacity_ops);
        // An uncontended tier reports a multiplier of exactly 1.0;
        // `scale_f64(1.0)` is the identity for any latency below 2^53 ns, so
        // skipping the f64 round-trip is bit-identical and cheaper.
        latency += if mult == 1.0 {
            base
        } else {
            base.scale_f64(mult)
        };

        self.stats.count_access(tier, write);
        self.stats.user_time += latency;
        let proc = &mut self.procs[pid.0 as usize];
        proc.vtime += latency;
        proc.ops += 1;

        AccessResult {
            latency,
            tier,
            hint_fault,
            demand_fault,
            probed_fault,
            fault_time: now,
        }
    }

    /// Demand-maps the mapping unit containing `pte_vpn` (a PTE page: base
    /// page or huge head). Allocation prefers the fast tier while its free
    /// frames stay above the `high` watermark — the kernel's top-tier-first
    /// placement — and spills to the slow tier otherwise.
    fn demand_map(&mut self, pid: ProcessId, pte_vpn: Vpn) {
        let huge = self.procs[pid.0 as usize].space.is_huge_mapped(pte_vpn);
        let unit = if huge { HUGE_2M_PAGES } else { 1 };

        let tier = match self.try_pick_alloc_tier(unit) {
            Some(t) => t,
            None => self.reclaim_for_demand(unit),
        };
        let head = if huge { pte_vpn.huge_head() } else { pte_vpn };
        for off in 0..unit {
            let v = Vpn(head.0 + off);
            let owner = FrameOwner { pid, vpn: v };
            let pfn = self.frames[tier.index()]
                .alloc(owner)
                .expect("pick_alloc_tier guaranteed space");
            let e = self.procs[pid.0 as usize].space.entry_mut(v);
            e.pfn = pfn;
            e.flags.set_tier(tier);
        }
        let e = self.procs[pid.0 as usize].space.entry_mut(head);
        e.flags.set(PageFlags::PRESENT);
        if huge {
            e.flags.set(PageFlags::HUGE_HEAD);
        }
        self.procs[pid.0 as usize].resident_frames += unit;
        self.lru_insert(pid, head, LruKind::Active);
    }

    /// Writes the mapping unit containing `vpn` out to the swap device and
    /// frees its frames — slow-tier reclamation under memory pressure
    /// (Section 3.3.1). The next access takes a major fault. A set
    /// `PG_probed` is cleared and logged for
    /// [`TieredSystem::take_probe_clears`].
    pub fn swap_out(&mut self, pid: ProcessId, vpn: Vpn) -> Result<u32, MigrateError> {
        let space = &self.procs[pid.0 as usize].space;
        let head = space.pte_page(vpn);
        if !space.entry(head).present() {
            return Err(MigrateError::NotPresent);
        }
        let huge = space.is_huge_mapped(head);
        let unit = if huge { HUGE_2M_PAGES } else { 1 };
        let head = if huge { head.huge_head() } else { head };
        // Reclaim wins the race with an in-flight copy: abort it so the
        // reservation is released before the unit's frames go to swap.
        self.abort_migration(pid, head, false);
        let tier = self.procs[pid.0 as usize].space.entry(head).tier();
        // A POISONED unit's frames are bad: reclaim quarantines instead of
        // returning them to the free pool.
        let poisoned = self.procs[pid.0 as usize]
            .space
            .entry(head)
            .flags
            .has(PageFlags::POISONED);
        for off in 0..unit {
            let v = Vpn(head.0 + off);
            let e = self.procs[pid.0 as usize].space.entry_mut(v);
            let pfn = e.pfn;
            e.pfn = crate::addr::Pfn::NONE;
            self.frames[tier.index()].free(pfn);
            if poisoned {
                self.frames[tier.index()].quarantine(pfn);
                self.stats.quarantined_frames += 1;
                self.trace
                    .emit(self.clock.now(), || TraceEvent::Quarantine {
                        tier: tier.index() as u8,
                        pfn: pfn.0,
                    });
            }
        }
        let e = self.procs[pid.0 as usize].space.entry_mut(head);
        let probed = e.flags.has(PageFlags::PROBED);
        e.flags.clear(
            PageFlags::PRESENT
                | PageFlags::PROT_NONE
                | PageFlags::ACCESSED
                | PageFlags::DIRTY
                | PageFlags::PROBED
                | PageFlags::DEMOTED
                | PageFlags::CANDIDATE
                | PageFlags::POISONED,
        );
        e.flags.set(PageFlags::SWAPPED);
        if probed {
            self.probe_clears.push((pid, head));
        }
        self.lru_remove(pid, head);
        self.procs[pid.0 as usize].resident_frames -= unit;
        self.stats.swapped_out_pages += unit as u64;
        self.stats.kernel_time += self.cfg.swap().writeback_per_page.scale(unit as u64);
        Ok(unit)
    }

    /// Picks the allocation tier for `unit` frames: fast while above the high
    /// watermark, otherwise the first lower tier with room (top-down, so
    /// placement spills one tier at a time), otherwise fast if it can still
    /// hold the unit at all.
    fn try_pick_alloc_tier(&self, unit: u32) -> Option<TierId> {
        let fast_free = self.free_frames(TierId::FAST);
        if fast_free >= unit + self.watermarks.high {
            return Some(TierId::FAST);
        }
        for t in self.cfg.chain.ids().skip(1) {
            // Tiers that are evacuating, offline, or rejoining take no new
            // residency; demand placement spills past them down the chain.
            if self.health[t.index()].accepts_pages() && self.free_frames(t) >= unit {
                return Some(t);
            }
        }
        if fast_free >= unit {
            return Some(TierId::FAST);
        }
        None
    }

    /// Emergency demand-side backstop: every healthy tier is full — a
    /// failure domain is evacuating or offline and the survivors absorbed
    /// its pages — so reclaim swaps victims out of the slowest healthy tier
    /// until the allocation fits. Fault-free runs never come here (capacity
    /// planning keeps the chain allocatable), so the path is digest-neutral
    /// for them; genuine OOM with nothing left to reclaim still panics.
    fn reclaim_for_demand(&mut self, unit: u32) -> TierId {
        for _ in 0..(2 * HUGE_2M_PAGES + 4) {
            // Any tier still holding pages can donate a victim — including
            // an Evacuating one, where swapping simply accelerates the
            // drain (Offline tiers hold nothing by invariant). Slowest
            // first, so the fast tier is protected.
            let mut popped = None;
            for i in (0..self.cfg.num_tiers()).rev() {
                let t = TierId(i as u8);
                if self.used_frames(t) == 0 {
                    continue;
                }
                if let Some(v) = self.pop_inactive_victim(t) {
                    popped = Some(v);
                    break;
                }
            }
            let Some((pid, vpn)) = popped else { break };
            let _ = self.swap_out(pid, vpn);
            if let Some(t) = self.try_pick_alloc_tier(unit) {
                return t;
            }
        }
        let free: Vec<u32> = self.cfg.chain.ids().map(|t| self.free_frames(t)).collect();
        let used: Vec<u32> = self.cfg.chain.ids().map(|t| self.used_frames(t)).collect();
        let lru: Vec<(usize, usize)> = self
            .cfg
            .chain
            .ids()
            .map(|t| {
                (
                    self.lru_queued(t, LruKind::Inactive),
                    self.lru_queued(t, LruKind::Active),
                )
            })
            .collect();
        panic!(
            "out of memory: need {} frames, free per tier {:?} used {:?} lru {:?} health {:?} in_flight {}",
            unit, free, used, lru, self.health, self.engine.in_flight()
        );
    }

    // ----- LRU maintenance -------------------------------------------------

    /// Inserts a PTE page at the tail of the given list of its current tier.
    pub fn lru_insert(&mut self, pid: ProcessId, vpn: Vpn, kind: LruKind) {
        let e = self.procs[pid.0 as usize].space.entry_mut(vpn);
        e.bump_lru_stamp();
        match kind {
            LruKind::Active => e.flags.set(PageFlags::LRU_ACTIVE),
            LruKind::Inactive => e.flags.clear(PageFlags::LRU_ACTIVE),
        }
        let entry = LruEntry {
            pid,
            vpn,
            stamp: e.lru_stamp,
        };
        let tier = e.tier();
        self.lru[tier.index()].push(kind, entry);
    }

    /// Detaches a page from whatever list it sits on (lazy: stamps invalidate).
    pub fn lru_remove(&mut self, pid: ProcessId, vpn: Vpn) {
        self.procs[pid.0 as usize]
            .space
            .entry_mut(vpn)
            .bump_lru_stamp();
    }

    fn lru_entry_live(&self, e: LruEntry, expected_tier: TierId) -> bool {
        let p = &self.procs[e.pid.0 as usize];
        let ent = p.space.entry(e.vpn);
        ent.present() && ent.lru_stamp == e.stamp && ent.tier() == expected_tier
    }

    /// Whether an LRU entry is live: its page is present, in `tier`, and the
    /// entry's stamp is current (not lazily deleted). Exposed for the
    /// `tiering-verify` invariant oracle.
    pub fn lru_entry_is_live(&self, e: LruEntry, tier: TierId) -> bool {
        self.lru_entry_live(e, tier)
    }

    /// Iterates a tier's LRU list oldest-first, stale entries included.
    /// Exposed for the `tiering-verify` invariant oracle.
    pub fn lru_entries(&self, tier: TierId, kind: LruKind) -> impl Iterator<Item = &LruEntry> {
        self.lru[tier.index()].iter(kind)
    }

    /// Moves up to `budget` pages from the head of the active list: pages
    /// with the accessed bit set are rotated back (bit cleared); idle pages
    /// move to the inactive tail. This is the kernel's `shrink_active_list`
    /// in miniature. Returns pages deactivated. Charges scan cost.
    pub fn age_active_list(&mut self, tier: TierId, budget: u32) -> u32 {
        let mut deactivated = 0;
        let mut visited = 0;
        let limit = self.lru[tier.index()].queued(LruKind::Active);
        let mut scan_cost = 0u64;
        while visited < budget as usize && visited < limit {
            let Some(entry) = self.lru[tier.index()].pop(LruKind::Active) else {
                break;
            };
            if !self.lru_entry_live(entry, tier) {
                continue;
            }
            visited += 1;
            scan_cost += 1;
            let e = self.procs[entry.pid.0 as usize].space.entry_mut(entry.vpn);
            if e.flags.has(PageFlags::ACCESSED) {
                e.flags.clear(PageFlags::ACCESSED);
                self.lru_insert(entry.pid, entry.vpn, LruKind::Active);
            } else {
                self.lru_insert(entry.pid, entry.vpn, LruKind::Inactive);
                deactivated += 1;
            }
        }
        self.stats.scanned_ptes += scan_cost;
        self.stats.kernel_time += self.cfg.cost.scan_pte.scale(scan_cost);
        deactivated
    }

    /// Pops a demotion/reclaim candidate from the tier's inactive list.
    ///
    /// Referenced pages get a *bounded* second chance (at most
    /// `SECOND_CHANCE_BUDGET` are re-activated per call); past the budget,
    /// reclaim proceeds under pressure and takes the next page regardless of
    /// its accessed bit — mirroring the kernel, where the referenced state
    /// observed at reclaim time was accumulated over a whole aging period
    /// (minutes in production), so its effective frequency resolution is one
    /// bit per period, not per microsecond. Time-driven aging belongs to the
    /// policies via [`TieredSystem::age_active_list`]; when the inactive
    /// list runs dry this falls back to the oldest active page.
    pub fn pop_inactive_victim(&mut self, tier: TierId) -> Option<(ProcessId, Vpn)> {
        const SECOND_CHANCE_BUDGET: u32 = 2;
        let mut chances = SECOND_CHANCE_BUDGET;
        // One bounded pass over the inactive list, then the active fallback.
        for kind in [LruKind::Inactive, LruKind::Active] {
            let mut budget = self.lru[tier.index()].queued(kind);
            while budget > 0 {
                budget -= 1;
                let Some(entry) = self.lru[tier.index()].pop(kind) else {
                    break;
                };
                if !self.lru_entry_live(entry, tier) {
                    continue;
                }
                self.stats.scanned_ptes += 1;
                self.stats.kernel_time += self.cfg.cost.scan_pte;
                let e = self.procs[entry.pid.0 as usize].space.entry_mut(entry.vpn);
                if e.flags.has(PageFlags::ACCESSED) && chances > 0 {
                    chances -= 1;
                    e.flags.clear(PageFlags::ACCESSED);
                    self.lru_insert(entry.pid, entry.vpn, LruKind::Active);
                } else {
                    e.flags.clear(PageFlags::ACCESSED);
                    return Some((entry.pid, entry.vpn));
                }
            }
        }
        None
    }

    /// Approximate live length of a tier's LRU list (upper bound).
    pub fn lru_queued(&self, tier: TierId, kind: LruKind) -> usize {
        self.lru[tier.index()].queued(kind)
    }

    // ----- Migration -------------------------------------------------------

    /// Whether a one-hop migration `from → to` is routable on the current
    /// chain: the tiers are adjacent, or every tier strictly between them is
    /// spliced out (`Offline`/`Rejoining`) so the healed chain makes them
    /// neighbors. On an all-healthy chain this is exactly adjacency.
    pub fn route_allowed(&self, from: TierId, to: TierId) -> bool {
        if self.cfg.chain.adjacent(from, to) {
            return true;
        }
        let (lo, hi) = (from.index().min(to.index()), from.index().max(to.index()));
        if from == to || hi >= self.cfg.num_tiers() {
            return false;
        }
        (lo + 1..hi).all(|t| self.health[t].spliced_out())
    }

    /// The copy edge for a routable `from → to` hop: the chain's edge when
    /// adjacent, or a spliced edge derived via [`EdgeSpec::between`] when
    /// the hop crosses `Offline` tiers (min endpoint bandwidth, zero extra
    /// latency, no write asymmetry — the chain-healing rule).
    fn route_edge(&self, from: TierId, to: TierId) -> EdgeSpec {
        if self.cfg.chain.adjacent(from, to) {
            self.cfg.chain.edge_between(from, to).clone()
        } else {
            EdgeSpec::between(self.cfg.chain.tier(from), self.cfg.chain.tier(to))
        }
    }

    /// The nearest tier to `tier` that accepts pages and is reachable over
    /// the (possibly spliced) chain, preferring the slower side on distance
    /// ties — evacuation and soft-offline both protect the fast tier first.
    /// `None` when no other tier is healthy (the swap backstop remains).
    pub fn nearest_healthy_neighbor(&self, tier: TierId) -> Option<TierId> {
        let n = self.cfg.num_tiers();
        for d in 1..n {
            for cand in [tier.index() + d, tier.index().wrapping_sub(d)] {
                if cand < n
                    && self.health[cand].accepts_pages()
                    && self.route_allowed(tier, TierId(cand as u8))
                {
                    return Some(TierId(cand as u8));
                }
            }
        }
        None
    }

    /// Counts a failed migration attempt. Promotion failures feed the
    /// per-reason table (`NoSpace` additionally keeps the historical
    /// `failed_promotions` counter); demotion failures are the caller's to
    /// classify (see [`TieredSystem::promote_with_reclaim_to`]).
    fn fail_migrate<T>(&mut self, to: TierId, err: MigrateError) -> Result<T, MigrateError> {
        if to == TierId::FAST {
            self.stats.failed_fast_migrations[err.index()] += 1;
            self.stats.failed_promotions += u64::from(err == MigrateError::NoSpace);
        }
        Err(err)
    }

    /// Opens a two-phase migration of the mapping unit containing `vpn`.
    ///
    /// Phase one (this call) performs admission control, reserves one
    /// destination frame per base page, marks the unit's head
    /// [`PageFlags::MIGRATING`], charges the copy (to the waiter for
    /// [`MigrateMode::Sync`], to kernel time and the destination tier's
    /// bandwidth FIFO for [`MigrateMode::Async`]), and enqueues the
    /// transaction on the bounded in-flight table. The PTE keeps pointing at
    /// the old frames: reads served while in flight hit the old copy, and a
    /// *write* aborts the transaction (see [`TieredSystem::access`]).
    ///
    /// Phase two retires the transaction when the copy is done:
    /// [`TieredSystem::complete_due_migrations`] (called by the driver as
    /// sim-time advances) flips the PTE to the reserved frames.
    ///
    /// Errors: `NotPresent`/`SameTier` as before; `NoSpace` when the
    /// destination lacks `unit` free frames; `Backpressure` when the
    /// in-flight slots or the destination backlog cap are exhausted, or the
    /// unit already has a transaction in flight. Returns base pages enqueued.
    pub fn begin_migrate(
        &mut self,
        pid: ProcessId,
        vpn: Vpn,
        to: TierId,
        mode: MigrateMode,
    ) -> Result<u32, MigrateError> {
        self.begin_migrate_txn(pid, vpn, to, mode, false)
            .map(|(_, unit)| unit)
    }

    fn begin_migrate_txn(
        &mut self,
        pid: ProcessId,
        vpn: Vpn,
        to: TierId,
        mode: MigrateMode,
        evac: bool,
    ) -> Result<(MigrationTxnId, u32), MigrateError> {
        let space = &self.procs[pid.0 as usize].space;
        let head = space.pte_page(vpn);
        let entry = space.entry(head);
        if !entry.present() {
            return self.fail_migrate(to, MigrateError::NotPresent);
        }
        let from = entry.tier();
        if from == to {
            return self.fail_migrate(to, MigrateError::SameTier);
        }
        if !self.health[to.index()].accepts_pages() {
            // The unit stays where it is — but demote paths pop their victim
            // off the LRU before calling in, and dropping the pop would
            // strand the page off every list for the rest of the run
            // (unreclaimable once the survivors fill up). Re-inserting is
            // idempotent for pages still listed (the stamp bump retires the
            // old entry) and only chaos runs ever take this branch.
            let relist = if space.is_huge_mapped(head) {
                head.huge_head()
            } else {
                head
            };
            self.lru_insert(pid, relist, LruKind::Inactive);
            return self.fail_migrate(to, MigrateError::TierOffline);
        }
        if !self.route_allowed(from, to) {
            return self.fail_migrate(to, MigrateError::NonAdjacent);
        }
        if entry.flags.has(PageFlags::MIGRATING) {
            return self.fail_migrate(to, MigrateError::Backpressure);
        }
        let huge = space.is_huge_mapped(head);
        let unit = if huge { HUGE_2M_PAGES } else { 1 };
        let now = self.clock.now();
        // The deadline force-drain (evacuation with the deadline already
        // passed) bypasses admission: the device is about to disappear, so
        // the copy happens regardless of how full the bounded table is. The
        // async evacuation lane and all policy traffic respect admission.
        let forced = evac
            && matches!(self.health[from.index()],
                        TierHealth::Evacuating { deadline } if deadline <= now);
        if !forced && !self.engine.admits(from, to, now) {
            return self.fail_migrate(to, MigrateError::Backpressure);
        }
        if self.free_frames(to) < unit {
            return self.fail_migrate(to, MigrateError::NoSpace);
        }

        // Reserve the destination frames. They become the unit's mapping at
        // completion; until then the frame table counts them used while no
        // PTE points at them (the oracle's reservation-conservation case).
        let head = if huge { head.huge_head() } else { head };
        let mut dest_pfns = Vec::with_capacity(unit as usize);
        for off in 0..unit {
            let owner = FrameOwner {
                pid,
                vpn: Vpn(head.0 + off),
            };
            let pfn = self.frames[to.index()]
                .alloc(owner)
                .expect("free_frames checked above");
            dest_pfns.push(pfn);
        }
        self.procs[pid.0 as usize]
            .space
            .entry_mut(head)
            .flags
            .set(PageFlags::MIGRATING);

        // Costs: copy time over the edge's bandwidth (derived edges carry
        // the slower endpoint's migration bandwidth, reproducing the old
        // max-of-both-tiers copy time bit for bit), a write-asymmetry
        // stretch when copying down into an asymmetric device, the edge's
        // fixed extra latency, plus a fixed remap cost per unit. Spliced
        // hops across an offline tier use a derived edge between the
        // surviving endpoints.
        let edge = self.route_edge(from, to);
        let mut bw_time = edge.transfer_time(unit as u64);
        if to > from && edge.write_asymmetry != 1.0 {
            bw_time = bw_time.scale_f64(edge.write_asymmetry);
        }
        if let Some(f) = &self.fault {
            // Channel degradation windows stretch the copy, not the fixed
            // remap cost — only bandwidth is degraded.
            bw_time = bw_time.scale_f64(f.cost_multiplier(to, now));
        }
        let cost = bw_time + edge.extra_latency + self.cfg.cost.migrate_fixed;
        match mode {
            MigrateMode::Sync(waiter) => self.charge_kernel(Some(waiter), cost),
            MigrateMode::Async => self.stats.kernel_time += cost,
        }

        let id = self
            .engine
            .begin_lane(pid, head, from, to, unit, dest_pfns, mode, cost, now, evac);
        self.stats.begun_migrations += 1;
        if evac {
            self.stats.evacuated_pages += unit as u64;
        }
        self.trace.emit(now, || TraceEvent::MigrateBegin {
            pid: pid.0,
            vpn: head.0,
            pages: unit,
            dir: migrate_dir(from, to),
        });
        Ok((id, unit))
    }

    /// Retires one transaction: frees the source frames, flips the PTE to
    /// the reserved destination frames, and re-homes the unit's LRU entry.
    ///
    /// Flag handling: `MIGRATING`, `PROT_NONE`, `CANDIDATE` and `PROBED` are
    /// cleared (the unit is freshly remapped; a set `PROBED` is logged for
    /// [`TieredSystem::take_probe_clears`]); promotion clears `DEMOTED`.
    /// Policy words are preserved — their lifecycle belongs to the policy.
    fn complete_txn(&mut self, txn: MigrationTxn) {
        let MigrationTxn {
            pid,
            head,
            from,
            to,
            unit,
            dest_pfns,
            evac,
            ..
        } = txn;
        // Soft-offline: if the unit was POISONED its source frames are bad —
        // quarantine them instead of returning them to the free pool.
        let poisoned = self.procs[pid.0 as usize]
            .space
            .entry(head)
            .flags
            .has(PageFlags::POISONED);
        for off in 0..unit {
            let v = Vpn(head.0 + off);
            let old_pfn = self.procs[pid.0 as usize].space.entry(v).pfn;
            debug_assert!(!old_pfn.is_none(), "present unit had unmapped tail page");
            self.frames[from.index()].free(old_pfn);
            if poisoned {
                self.frames[from.index()].quarantine(old_pfn);
                self.stats.quarantined_frames += 1;
                self.trace
                    .emit(self.clock.now(), || TraceEvent::Quarantine {
                        tier: from.index() as u8,
                        pfn: old_pfn.0,
                    });
            }
            let e = self.procs[pid.0 as usize].space.entry_mut(v);
            e.pfn = dest_pfns[off as usize];
            e.flags.set_tier(to);
        }

        let promoted = to < from;
        let e = self.procs[pid.0 as usize].space.entry_mut(head);
        let probed = e.flags.has(PageFlags::PROBED);
        e.flags.clear(
            PageFlags::MIGRATING
                | PageFlags::PROT_NONE
                | PageFlags::CANDIDATE
                | PageFlags::PROBED
                | PageFlags::POISONED,
        );
        if promoted {
            e.flags.clear(PageFlags::DEMOTED);
        }
        if probed {
            self.probe_clears.push((pid, head));
        }

        // LRU: leave the old tier's lists, join the new tier's. A promoted
        // unit is presumed hot (active); a demoted one starts inactive in
        // its new, slower home.
        self.lru_remove(pid, head);
        let kind = if promoted {
            LruKind::Active
        } else {
            LruKind::Inactive
        };
        self.lru_insert(pid, head, kind);

        // Per-edge stats are keyed by the lower-numbered endpoint; a spliced
        // hop is charged to the edge at its faster endpoint (min ≤ n − 2
        // holds for any routable pair, so the index stays in range).
        let edge = from.index().min(to.index());
        if promoted {
            self.stats.promoted_pages += unit as u64;
            self.stats.promoted_per_edge[edge] += unit as u64;
        } else {
            self.stats.demoted_pages += unit as u64;
            self.stats.demoted_per_edge[edge] += unit as u64;
        }
        self.stats.migration_bytes += unit as u64 * BASE_PAGE_BYTES;
        self.stats.completed_migrations += 1;
        if evac {
            self.stats.evac_rehomed_pages += unit as u64;
        }
        self.trace
            .emit(self.clock.now(), || TraceEvent::MigrateComplete {
                pid: pid.0,
                vpn: head.0,
                pages: unit,
                dir: migrate_dir(from, to),
            });
    }

    /// Rolls the copy-fault dice for one retiring transaction. Without a
    /// fault plan this is a single branch and zero RNG draws.
    fn roll_txn_fault(&mut self) -> CopyFault {
        match &mut self.fault {
            Some(f) => f.roll_copy_fault(),
            None => CopyFault::None,
        }
    }

    /// Applies a copy fault to a transaction popped from the engine: the
    /// destination reservation is released (on poison, one destination frame
    /// goes bad and is quarantined), the head's `MIGRATING` bit clears, and
    /// the source mapping stays authoritative. When `record` is set (async
    /// completion — the caller is gone) the failure is queued for
    /// [`TieredSystem::take_migration_failures`].
    fn fail_txn(&mut self, txn: MigrationTxn, fault: CopyFault, record: bool) -> MigrateError {
        let err = match fault {
            CopyFault::Transient => MigrateError::CopyFault,
            CopyFault::Poison => MigrateError::Poisoned,
            CopyFault::None => unreachable!("fail_txn called without a fault"),
        };
        let now = self.clock.now();
        for (i, pfn) in txn.dest_pfns.iter().enumerate() {
            self.frames[txn.to.index()].free(*pfn);
            if i == 0 && fault == CopyFault::Poison {
                self.frames[txn.to.index()].quarantine(*pfn);
                self.stats.quarantined_frames += 1;
                self.trace.emit(now, || TraceEvent::Quarantine {
                    tier: txn.to.index() as u8,
                    pfn: pfn.0,
                });
            }
        }
        match fault {
            CopyFault::Transient => self.stats.transient_copy_faults += 1,
            CopyFault::Poison => self.stats.poisoned_copy_faults += 1,
            CopyFault::None => unreachable!(),
        }
        if txn.evac {
            self.stats.evac_faulted_pages += txn.unit as u64;
        }
        if txn.to == TierId::FAST {
            self.stats.failed_fast_migrations[err.index()] += 1;
        }
        self.procs[txn.pid.0 as usize]
            .space
            .entry_mut(txn.head)
            .flags
            .clear(PageFlags::MIGRATING);
        self.trace.emit(now, || TraceEvent::CopyFault {
            pid: txn.pid.0,
            vpn: txn.head.0,
            pages: txn.unit,
            dir: migrate_dir(txn.from, txn.to),
            transient: fault == CopyFault::Transient,
        });
        if record {
            self.failed_async.push(MigrationFailure {
                pid: txn.pid,
                head: txn.head,
                unit: txn.unit,
                from: txn.from,
                to: txn.to,
                reason: err,
            });
        }
        err
    }

    /// Drains the asynchronously failed migrations recorded since the last
    /// call. Policies use this to feed their retry machinery.
    pub fn take_migration_failures(&mut self) -> Vec<MigrationFailure> {
        std::mem::take(&mut self.failed_async)
    }

    /// Clears `PG_probed` and any other bits in `also` on the entry of
    /// `vpn`, logging the page for [`TieredSystem::take_probe_clears`] if
    /// `PG_probed` was set. Policies clear the bit only through this, so
    /// the log sees every clear the substrate's own paths do not make.
    pub fn clear_probed(&mut self, pid: ProcessId, vpn: Vpn, also: u16) {
        let e = self.procs[pid.0 as usize].space.entry_mut(vpn);
        let probed = e.flags.has(PageFlags::PROBED);
        e.flags.clear(PageFlags::PROBED | also);
        if probed {
            self.probe_clears.push((pid, vpn));
        }
    }

    /// Drains the PTE pages that lost `PG_probed` since the last call, in
    /// clear order. Four places clear the bit: migration completion,
    /// `swap_out`, and the two policy clears routed through
    /// [`TieredSystem::clear_probed`]. DCSC uses the log to drop completed
    /// or aborted probes without re-reading every outstanding one.
    pub fn take_probe_clears(&mut self) -> Vec<(ProcessId, Vpn)> {
        std::mem::take(&mut self.probe_clears)
    }

    /// Fires capacity and tier events from the fault plan that are due at
    /// `now`, in each queue's firing order.
    fn service_fault_plan(&mut self, now: Nanos) {
        let (capacity, tiers) = match &mut self.fault {
            Some(f) => (f.due_capacity_events(now), f.due_tier_events(now)),
            None => return,
        };
        for ev in capacity {
            match ev.kind {
                CapacityKind::ShrinkFastFraction(frac) => {
                    let usable = self.frames[TierId::FAST.index()].usable_frames();
                    let target = (usable as f64 * frac).round() as u32;
                    self.shrink_tier(TierId::FAST, target);
                }
                CapacityKind::GrowFastFrames(n) => {
                    self.grow_tier(TierId::FAST, n);
                }
                CapacityKind::ShrinkTierFraction { tier, fraction } => {
                    let usable = self.frames[tier.index()].usable_frames();
                    let target = (usable as f64 * fraction).round() as u32;
                    self.shrink_tier(tier, target);
                }
                CapacityKind::GrowTierFrames { tier, frames } => {
                    self.grow_tier(tier, frames);
                }
            }
        }
        for ev in tiers {
            self.apply_tier_event(ev);
        }
    }

    /// Retires outstanding shrink debt against frames that have freed up
    /// since the shrink event (demotions draining the tier).
    fn drain_shrink_debt(&mut self) {
        debug_assert_eq!(
            self.shrink_debt_total,
            self.shrink_debt.iter().map(|&d| d as u64).sum::<u64>()
        );
        for t in 0..self.cfg.num_tiers() {
            if self.shrink_debt[t] == 0 {
                continue;
            }
            let got = self.frames[t].offline_free_frames(self.shrink_debt[t]);
            if got > 0 {
                self.shrink_debt[t] -= got;
                self.shrink_debt_total -= got as u64;
                self.stats.offlined_frames += got as u64;
                if t == TierId::FAST.index() {
                    self.rescale_watermarks();
                }
                self.emit_capacity(TierId(t as u8), got, 0);
            }
        }
    }

    /// Re-derives the fast-tier watermarks from the current usable tier
    /// size. The policy's `pro` target is kept, re-clamped to the new size;
    /// the next `retune_pro` recomputes it against the new capacity.
    fn rescale_watermarks(&mut self) {
        let usable = self.frames[TierId::FAST.index()].usable_frames();
        let pro = self.watermarks.pro;
        self.watermarks = Watermarks::scaled_to(usable);
        let cap = (usable / 4).max(self.watermarks.high);
        self.watermarks.pro = pro.clamp(self.watermarks.high, cap);
    }

    fn emit_capacity(&mut self, tier: TierId, offlined: u32, restored: u32) {
        let usable = self.frames[tier.index()].usable_frames();
        self.trace.emit(self.clock.now(), || TraceEvent::Capacity {
            tier: tier.index() as u8,
            offlined,
            restored,
            usable,
        });
    }

    /// Takes `frames` frames of `tier` out of service (hotplug shrink).
    /// Frames come out of the free pool; if the pool is short, the
    /// remainder becomes shrink debt retired as migrations free more
    /// frames. Fast-tier watermarks are re-derived from the new usable
    /// size. Returns frames offlined immediately.
    pub fn shrink_tier(&mut self, tier: TierId, frames: u32) -> u32 {
        let got = self.frames[tier.index()].offline_free_frames(frames);
        self.stats.offlined_frames += got as u64;
        self.shrink_debt[tier.index()] += frames - got;
        self.shrink_debt_total += (frames - got) as u64;
        if tier == TierId::FAST {
            self.rescale_watermarks();
        }
        self.emit_capacity(tier, got, 0);
        got
    }

    /// Brings capacity of `tier` back (hotplug grow): first cancels any
    /// outstanding shrink debt, then restores up to the remaining `frames`
    /// from the offlined pool. Returns frames actually brought back online.
    pub fn grow_tier(&mut self, tier: TierId, frames: u32) -> u32 {
        let cancelled = frames.min(self.shrink_debt[tier.index()]);
        self.shrink_debt[tier.index()] -= cancelled;
        self.shrink_debt_total -= cancelled as u64;
        let restored = self.frames[tier.index()].online_frames(frames - cancelled);
        self.stats.restored_frames += restored as u64;
        if tier == TierId::FAST {
            self.rescale_watermarks();
        }
        self.emit_capacity(tier, 0, restored);
        restored
    }

    // ----- Tier failure domains --------------------------------------------

    /// Records a tier health transition: stats, trace event, and the
    /// fast-path flag.
    fn set_tier_health(&mut self, tier: TierId, health: TierHealth) {
        self.health[tier.index()] = health;
        self.stats.tier_health_transitions += 1;
        self.health_active = self.health.iter().any(|h| *h != TierHealth::Online)
            || self.fault.as_ref().is_some_and(|f| f.tier_events_pending());
        self.trace
            .emit(self.clock.now(), || TraceEvent::TierHealth {
                tier: tier.index() as u8,
                state: health.code(),
            });
    }

    /// Applies one tier failure-domain event immediately (the fault plan
    /// services its scheduled events through here; the sharded runner calls
    /// it directly at barriers, in tenant-id order, so fleet chaos replays
    /// identically at any thread count).
    ///
    /// Semantics per [`TierEventKind`]:
    /// - `Degrade`: the tier (if currently a live chain member) shows
    ///   `Degrading` and its copy channel pays the multiplier for the
    ///   window.
    /// - `Offline`: the tier enters `Evacuating`; copies *into* it abort,
    ///   new residency is refused, and the emergency lane drains it (see
    ///   [`TieredSystem::complete_due_migrations`]) until empty or the
    ///   deadline force-drains it, after which it goes `Offline` and the
    ///   chain splices around it. Ignored for tier 0 (the top tier cannot
    ///   fail) and for tiers already evacuating/offline.
    /// - `Online`: an `Offline` tier re-enters as `Rejoining`; the next
    ///   completion pass restores its frames and flips it `Online`. An
    ///   `Evacuating` tier is re-admitted immediately (the device came back
    ///   before the drain finished); a degrade window is simply cut short.
    pub fn apply_tier_event(&mut self, ev: TierEvent) {
        let tier = ev.tier;
        match ev.kind {
            TierEventKind::Degrade {
                until,
                cost_multiplier,
            } => {
                let now = self.clock.now();
                if self.health[tier.index()].accepts_pages() && now < until {
                    self.fault
                        .get_or_insert_with(|| FaultState::new(FaultPlan::inert(0)))
                        .add_degrade_window(DegradeWindow {
                            tier,
                            from: now,
                            until,
                            cost_multiplier,
                        });
                    self.set_tier_health(tier, TierHealth::Degrading { until });
                }
            }
            TierEventKind::Offline { deadline } => {
                if tier == TierId::FAST || !self.health[tier.index()].accepts_pages() {
                    return;
                }
                // Copies headed into the dying tier would land new residency
                // there: abort them before the drain starts. Copies *out*
                // keep flowing — they are the drain.
                let doomed: Vec<(ProcessId, Vpn)> = self
                    .engine
                    .iter()
                    .filter(|t| t.to == tier)
                    .map(|t| (t.pid, t.head))
                    .collect();
                for (pid, head) in doomed {
                    self.abort_migration(pid, head, false);
                }
                self.evac_cursor[tier.index()] = 0;
                self.set_tier_health(tier, TierHealth::Evacuating { deadline });
                self.pump_evacuation(tier);
            }
            TierEventKind::Online => match self.health[tier.index()] {
                TierHealth::Offline => self.set_tier_health(tier, TierHealth::Rejoining),
                TierHealth::Evacuating { .. } => self.set_tier_health(tier, TierHealth::Online),
                _ => {}
            },
        }
    }

    /// Picks the evacuation destination for `unit` pages leaving `tier`:
    /// the nearest healthy neighbor with room, preferring the slower side
    /// on ties. `None` means every healthy tier is full — the caller spills
    /// to the swap backstop.
    fn evac_dest(&self, tier: TierId, unit: u32) -> Option<TierId> {
        let n = self.cfg.num_tiers();
        for d in 1..n {
            for cand in [tier.index() + d, tier.index().wrapping_sub(d)] {
                if cand < n
                    && self.health[cand].accepts_pages()
                    && self.route_allowed(tier, TierId(cand as u8))
                    && self.free_frames(TierId(cand as u8)) >= unit
                {
                    return Some(TierId(cand as u8));
                }
            }
        }
        None
    }

    /// One evacuation pump pass over `tier` (must be `Evacuating`): issues
    /// emergency-lane copies for resident units toward the nearest healthy
    /// neighbor, bounded by edge admission before the deadline and forced
    /// (synchronous, admission-bypassing) after it; spills to the swap
    /// backstop when no healthy tier has room. Flips the tier `Offline`
    /// once nothing resident remains.
    fn pump_evacuation(&mut self, tier: TierId) {
        let TierHealth::Evacuating { deadline } = self.health[tier.index()] else {
            return;
        };
        let now = self.clock.now();
        let forced = now >= deadline;
        // Bound a pre-deadline pass so the per-access pump stays cheap; the
        // cursor resumes where the pass stopped. A forced pass restarts at
        // frame 0 and walks everything — the device is gone.
        let budget = if forced { u32::MAX } else { 256 };
        let total = self.frames[tier.index()].total();
        let mut visited = 0u32;
        let mut pfn = if forced {
            0
        } else {
            self.evac_cursor[tier.index()]
        };
        while visited < budget && pfn < total {
            visited += 1;
            let Some(owner) = self.frames[tier.index()].owner(Pfn(pfn)) else {
                pfn += 1;
                continue;
            };
            // Skip reservation-only frames (no PTE points here yet — stale
            // walk noise; copies cannot target an evacuating tier) and
            // units already in flight off the tier.
            if self.procs[owner.pid.0 as usize].space.entry(owner.vpn).pfn != Pfn(pfn) {
                pfn += 1;
                continue;
            }
            let head = self.procs[owner.pid.0 as usize].space.pte_page(owner.vpn);
            let migrating = self.procs[owner.pid.0 as usize]
                .space
                .entry(head)
                .flags
                .has(PageFlags::MIGRATING);
            if migrating {
                if forced {
                    // Past the deadline nothing may stay in flight off the
                    // dying tier: abort and force-drain below.
                    self.abort_migration(owner.pid, head, false);
                } else {
                    pfn += 1;
                    continue;
                }
            }
            let unit = if self.procs[owner.pid.0 as usize].space.is_huge_mapped(head) {
                HUGE_2M_PAGES
            } else {
                1
            };
            match self.evac_dest(tier, unit) {
                Some(dest) if forced => {
                    // Synchronous force-drain: open and retire in one step
                    // (admission bypassed — see `begin_migrate_txn`). A
                    // copy fault leaves the unit resident; spill it to swap
                    // so the tier still empties.
                    match self.begin_migrate_txn(owner.pid, head, dest, MigrateMode::Async, true) {
                        Ok((id, _)) => {
                            let txn = self.engine.remove_newest(id);
                            match self.roll_txn_fault() {
                                CopyFault::None => self.complete_txn(txn),
                                fault => {
                                    self.fail_txn(txn, fault, false);
                                    self.evac_spill(owner.pid, head, unit);
                                }
                            }
                        }
                        Err(_) => self.evac_spill(owner.pid, head, unit),
                    }
                }
                Some(dest) => {
                    match self.begin_migrate_txn(owner.pid, head, dest, MigrateMode::Async, true) {
                        Ok(_) => {}
                        Err(MigrateError::Backpressure) => break,
                        Err(_) => {
                            pfn += 1;
                            continue;
                        }
                    }
                }
                None => {
                    // No healthy tier has room: the backstop takes it.
                    self.evac_spill(owner.pid, head, unit);
                }
            }
            pfn += 1;
        }
        self.evac_cursor[tier.index()] = if pfn >= total { 0 } else { pfn };
        // Drained? Nothing resident and nothing in flight off the tier.
        if self.used_frames(tier) == 0 {
            self.finish_offline(tier);
        }
    }

    /// Spills one unit off an evacuating tier to the swap backstop,
    /// keeping the evacuation flow conserved (the spill counts as an issue
    /// retired into `evac_swapped_pages` in the same instant).
    fn evac_spill(&mut self, pid: ProcessId, head: Vpn, unit: u32) {
        if self.swap_out(pid, head).is_ok() {
            self.stats.evacuated_pages += unit as u64;
            self.stats.evac_swapped_pages += unit as u64;
        }
    }

    /// Completes an evacuation: offlines the drained tier's frames and
    /// splices the chain around it.
    fn finish_offline(&mut self, tier: TierId) {
        debug_assert_eq!(self.used_frames(tier), 0, "offline with residency");
        let free = self.frames[tier.index()].free_frames();
        let got = self.frames[tier.index()].offline_free_frames(free);
        self.stats.offlined_frames += got as u64;
        self.emit_capacity(tier, got, 0);
        self.set_tier_health(tier, TierHealth::Offline);
    }

    /// Re-admits tiers that finished `Rejoining`: frames come back online
    /// and the splice is undone. Runs on the completion pump so the rejoin
    /// lands at a deterministic point of the access stream.
    fn finish_rejoins(&mut self) {
        for t in 0..self.cfg.num_tiers() {
            if self.health[t] != TierHealth::Rejoining {
                continue;
            }
            let restored = self.frames[t].online_frames(u32::MAX);
            self.stats.restored_frames += restored as u64;
            self.emit_capacity(TierId(t as u8), 0, restored);
            self.set_tier_health(TierId(t as u8), TierHealth::Online);
        }
    }

    /// Expires degrade-window health markers whose window has passed.
    fn expire_degrades(&mut self, now: Nanos) {
        for t in 0..self.cfg.num_tiers() {
            if let TierHealth::Degrading { until } = self.health[t] {
                if now >= until {
                    self.set_tier_health(TierId(t as u8), TierHealth::Online);
                }
            }
        }
    }

    /// Drives every evacuating tier's pump once and settles rejoin/degrade
    /// lifecycle edges. Called from the completion pump while the
    /// failure-domain machinery is active.
    fn service_tier_health(&mut self) {
        let now = self.clock.now();
        self.expire_degrades(now);
        self.finish_rejoins();
        for t in 0..self.cfg.num_tiers() {
            if matches!(self.health[t], TierHealth::Evacuating { .. }) {
                self.pump_evacuation(TierId(t as u8));
            }
        }
    }

    /// Installs a channel-degradation window (fuzz ops and procfs-style
    /// knobs). Creates an inert fault state if no plan was configured.
    pub fn degrade_channel(&mut self, w: DegradeWindow) {
        self.fault
            .get_or_insert_with(|| FaultState::new(FaultPlan::inert(0)))
            .add_degrade_window(w);
    }

    /// Injects an uncorrectable error into a frame (MCE-style poisoning).
    ///
    /// - A quarantined frame: no-op (already dead), returns `false`.
    /// - A free or offlined frame: quarantined directly.
    /// - A frame reserved by an in-flight copy: the transaction aborts
    ///   (reservation released), then the frame is quarantined.
    /// - A mapped frame: the mapping unit is split out of any huge block and
    ///   detached from any in-flight copy, marked [`PageFlags::POISONED`],
    ///   and soft-offline is attempted immediately — an ordinary migration
    ///   to the other tier whose completion quarantines the bad frame. If
    ///   the migration is refused the flag stays set and the next successful
    ///   migration or swap-out of the page quarantines the frame instead.
    ///
    /// Returns whether the frame was newly poisoned.
    pub fn poison_frame(&mut self, tier: TierId, pfn: Pfn) -> bool {
        let table = &mut self.frames[tier.index()];
        if pfn.0 >= table.total() || table.is_quarantined(pfn) {
            return false;
        }
        if table.is_free(pfn) {
            table.quarantine(pfn);
            self.stats.quarantined_frames += 1;
            let now = self.clock.now();
            self.trace.emit(now, || TraceEvent::Quarantine {
                tier: tier.index() as u8,
                pfn: pfn.0,
            });
            return true;
        }
        let Some(owner) = table.owner(pfn) else {
            // Offlined by a capacity shrink: not in service, but a grow
            // event must never bring it back — move it to quarantine.
            if table.quarantine_offlined(pfn) {
                self.stats.quarantined_frames += 1;
                let now = self.clock.now();
                self.trace.emit(now, || TraceEvent::Quarantine {
                    tier: tier.index() as u8,
                    pfn: pfn.0,
                });
                return true;
            }
            return false;
        };
        let head = self.procs[owner.pid.0 as usize].space.pte_page(owner.vpn);
        // A reserved copy destination: the PTE does not point at it yet.
        if self.procs[owner.pid.0 as usize].space.entry(owner.vpn).pfn != pfn {
            self.abort_migration(owner.pid, head, false);
            self.frames[tier.index()].quarantine(pfn);
            self.stats.quarantined_frames += 1;
            let now = self.clock.now();
            self.trace.emit(now, || TraceEvent::Quarantine {
                tier: tier.index() as u8,
                pfn: pfn.0,
            });
            return true;
        }
        // A mapped frame: split huge blocks so the poison stays on one base
        // page (POISONED ∧ HUGE_HEAD is illegal), kill any in-flight copy of
        // stale data, then mark and try to soft-offline.
        if self.procs[owner.pid.0 as usize].space.is_huge_mapped(head) {
            self.split_block(owner.pid, head);
        } else {
            self.abort_migration(owner.pid, head, false);
        }
        let base = self.procs[owner.pid.0 as usize].space.pte_page(owner.vpn);
        self.procs[owner.pid.0 as usize]
            .space
            .entry_mut(base)
            .flags
            .set(PageFlags::POISONED);
        let now = self.clock.now();
        self.trace.emit(now, || TraceEvent::FramePoison {
            pid: owner.pid.0,
            vpn: base.0,
        });
        // Soft-offline destination: the nearest *healthy* neighbor over the
        // (possibly spliced) chain, preferring the slower side — on a fully
        // healthy chain that is one hop down, or one hop up from the last
        // tier, exactly the historical "other tier" behaviour. With no
        // healthy neighbor at all the flag stays set; the next successful
        // migration or swap-out quarantines the frame.
        if let Some(dest) = self.nearest_healthy_neighbor(tier) {
            let _ = self.migrate(owner.pid, base, dest, MigrateMode::Async);
        }
        true
    }

    /// Retires every in-flight transaction whose copy is done by the current
    /// clock, in completion order, rolling the fault plan's copy-fault dice
    /// for each. Also fires due capacity events and retires shrink debt.
    /// Drivers call this whenever sim time advances. Returns transactions
    /// completed (faulted transactions are not counted).
    #[inline]
    pub fn complete_due_migrations(&mut self) -> u32 {
        let now = self.clock.now();
        // Called on every sim-time advance, which on the driver's access
        // loop means roughly once per access; the common case is an idle
        // engine, so the test reads four O(1) fields inline and leaves the
        // fault-plan and retire machinery out of line.
        if self.fault.is_none()
            && !self.health_active
            && !self.engine.any_due(now)
            && self.shrink_debt_total == 0
        {
            return 0;
        }
        self.pump_due(now)
    }

    /// The body of [`TieredSystem::complete_due_migrations`] once its idle
    /// test fails.
    #[inline(never)]
    fn pump_due(&mut self, now: Nanos) -> u32 {
        self.service_fault_plan(now);
        let mut n = 0;
        while let Some(txn) = self.engine.pop_due(now) {
            match self.roll_txn_fault() {
                CopyFault::None => {
                    self.complete_txn(txn);
                    n += 1;
                }
                fault => {
                    self.fail_txn(txn, fault, true);
                }
            }
        }
        if self.health_active {
            self.service_tier_health();
        }
        self.drain_shrink_debt();
        n
    }

    /// Aborts the in-flight transaction on the unit headed by `head`, if
    /// any: the destination reservation is freed, the head's `MIGRATING` bit
    /// clears, and — for write aborts — the head is re-dirtied (the copy is
    /// stale the instant the store lands). The bandwidth the copy occupied
    /// is not refunded. Returns whether a transaction was aborted.
    pub fn abort_migration(&mut self, pid: ProcessId, head: Vpn, redirty: bool) -> bool {
        let Some(id) = self.engine.find(pid, head) else {
            return false;
        };
        let txn = self.engine.remove(id).expect("id just found");
        for pfn in &txn.dest_pfns {
            self.frames[txn.to.index()].free(*pfn);
        }
        let e = self.procs[pid.0 as usize].space.entry_mut(head);
        e.flags.clear(PageFlags::MIGRATING);
        if redirty {
            e.flags.set(PageFlags::DIRTY);
        }
        self.stats.aborted_migrations += 1;
        if txn.evac {
            // The unit stays on the failing tier; the pump re-issues it
            // (counting a fresh evacuation), so the abort retires this one.
            self.stats.evac_faulted_pages += txn.unit as u64;
        }
        self.trace
            .emit(self.clock.now(), || TraceEvent::MigrateAbort {
                pid: pid.0,
                vpn: head.0,
                pages: txn.unit,
                dir: migrate_dir(txn.from, txn.to),
            });
        true
    }

    /// Migrates the mapping unit containing `vpn` to `to` with synchronous
    /// completion: a compat wrapper that opens a transaction and force-
    /// completes it in the same call, preserving the pre-engine
    /// instantaneous-migration semantics for the baseline policies. Returns
    /// the number of base pages moved.
    pub fn migrate(
        &mut self,
        pid: ProcessId,
        vpn: Vpn,
        to: TierId,
        mode: MigrateMode,
    ) -> Result<u32, MigrateError> {
        let (id, unit) = self.begin_migrate_txn(pid, vpn, to, mode, false)?;
        let txn = self.engine.remove_newest(id);
        match self.roll_txn_fault() {
            CopyFault::None => {
                self.complete_txn(txn);
                Ok(unit)
            }
            // The caller is present and sees the error directly, so the
            // failure is not queued for the async drain.
            fault => Err(self.fail_txn(txn, fault, false)),
        }
    }

    /// Splits the 2 MiB block containing `vpn` into base mappings. A split
    /// invalidates the in-flight unit, so any transaction on the block is
    /// aborted first. Policies must use this over raw
    /// [`AddressSpace::split_block`] so the abort rule holds.
    pub fn split_block(&mut self, pid: ProcessId, vpn: Vpn) {
        let head = self.procs[pid.0 as usize].space.pte_page(vpn);
        self.abort_migration(pid, head, false);
        self.procs[pid.0 as usize].space.split_block(head);
    }

    /// Transactions currently in flight. Exposed for the `tiering-verify`
    /// invariant oracle and for period-sample gauges.
    pub fn in_flight_migrations(&self) -> impl Iterator<Item = &MigrationTxn> {
        self.engine.iter()
    }

    /// Number of transactions currently in flight.
    pub fn migration_in_flight_count(&self) -> usize {
        self.engine.in_flight()
    }

    /// Re-caps the migration engine's in-flight slot budget (see
    /// [`MigrationEngine::set_inflight_slots`]). The multi-tenant admission
    /// hook calls this at every barrier with the tenant's granted share.
    pub fn set_inflight_slots(&mut self, slots: usize) {
        self.engine.set_inflight_slots(slots);
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

    /// Destination frames reserved by in-flight transactions in `tier`.
    /// Exposed for the `tiering-verify` invariant oracle.
    pub fn migration_reserved_frames(&self, tier: TierId) -> u32 {
        self.engine.reserved_frames(tier)
    }

    /// Promotes a unit one hop up into tier `to`, demoting inactive victims
    /// of `to` one hop further down first if `to` lacks space — the cascade
    /// step a chained policy runs per adjacent pair. Victim demotions are
    /// charged in the same mode. Returns pages promoted.
    pub fn promote_with_reclaim_to(
        &mut self,
        pid: ProcessId,
        vpn: Vpn,
        to: TierId,
        mode: MigrateMode,
    ) -> Result<u32, MigrateError> {
        let space = &self.procs[pid.0 as usize].space;
        let head = space.pte_page(vpn);
        if !space.entry(head).present() {
            return self.fail_migrate(to, MigrateError::NotPresent);
        }
        if space.entry(head).tier() == to {
            return self.fail_migrate(to, MigrateError::SameTier);
        }
        let unit = if space.is_huge_mapped(head) {
            HUGE_2M_PAGES
        } else {
            1
        };
        // Victims leave `to` for the next healthy tier down the (possibly
        // spliced) chain; a promotion target is never the bottom tier (the
        // page comes from below it), so on a healthy chain the destination
        // always exists. With every lower tier unhealthy there is nowhere
        // to demote — skip the reclaim loop and let the plain migrate
        // report `NoSpace`.
        let victim_dest = (to.index() + 1..self.cfg.num_tiers())
            .map(|t| TierId(t as u8))
            .find(|t| self.health[t.index()].accepts_pages() && self.route_allowed(to, *t));
        // Demote until there's room, bounded to avoid pathological loops when
        // the inactive list is all-hot. A failed victim demotion is counted,
        // and a `NotPresent` victim (stale by the time we got to it) does not
        // burn the attempt budget — it freed nothing and cost nothing.
        let mut attempts = 0;
        if let Some(victim_dest) = victim_dest {
            while self.free_frames(to) < unit && attempts < 4 * unit {
                match self.pop_inactive_victim(to) {
                    Some((vp, vv)) => match self.migrate(vp, vv, victim_dest, mode) {
                        Ok(_) => attempts += 1,
                        Err(MigrateError::NotPresent) => {
                            self.stats.failed_demotions += 1;
                        }
                        Err(_) => {
                            self.stats.failed_demotions += 1;
                            attempts += 1;
                        }
                    },
                    None => break,
                }
            }
        }
        self.migrate(pid, vpn, to, mode)
    }

    /// Outstanding async migration backlog relative to the global clock:
    /// the fullest edge channel's queued copy time.
    pub fn migration_backlog(&self) -> Nanos {
        self.engine.max_backlog(self.clock.now())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sys() -> TieredSystem {
        // 64 fast + 192 slow frames; watermarks floor at min=4/low=6/high=8.
        TieredSystem::new(SystemConfig::dram_pmem(64, 192))
    }

    #[test]
    fn scan_budget_saturates_instead_of_wrapping() {
        // The shape every daemon uses: fast-tier frames × event interval /
        // scan period. 1M frames pro-rated over a 100 s interval against a
        // 1 µs period is 10^14 pages — the old `as u32` wrapped this to a
        // near-zero budget and the daemon silently stopped aging.
        let frames = 1 << 20;
        let interval = Nanos(100_000_000_000);
        let period = Nanos(1_000);
        let wrapped = (frames as u64 * interval.as_nanos() / period.as_nanos().max(1)) as u32;
        assert_ne!(
            wrapped,
            scan_budget_pages(frames, interval, period),
            "regression sentinel: the bare cast really does wrap here"
        );
        assert_eq!(scan_budget_pages(frames, interval, period), u32::MAX);
        // Sane in-range behaviour: 1000 frames, interval == period / 4.
        assert_eq!(scan_budget_pages(1000, Nanos(250), Nanos(1_000)), 250);
        // Zero-length period must not divide by zero.
        assert_eq!(scan_budget_pages(7, Nanos(3), Nanos(0)), 21);
    }

    #[test]
    fn first_touch_fills_fast_then_slow() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // Fast tier keeps `high`=8 frames free; 56 pages land fast, 72 slow.
        let [fast, slow, ..] = sys.process(pid).space.resident_pages();
        assert_eq!(fast, 56);
        assert_eq!(slow, 72);
        assert_eq!(sys.stats.demand_faults, 128);
    }

    #[test]
    fn access_latency_reflects_tier() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        let r1 = sys.access(pid, Vpn(0), false);
        assert_eq!(r1.tier, TierId::FAST);
        assert!(r1.demand_fault);
        let r2 = sys.access(pid, Vpn(0), false);
        assert!(!r2.demand_fault);
        assert!(r2.latency < r1.latency);
        // Fast read ≈ cpu_op + 80ns.
        assert_eq!(r2.latency.as_nanos(), 15 + 80);
    }

    #[test]
    fn writes_cost_more_on_slow_tier() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let read = sys.access(pid, Vpn(100), false);
        let write = sys.access(pid, Vpn(100), true);
        assert_eq!(read.tier, TierId::SLOW);
        assert!(write.latency > read.latency);
    }

    #[test]
    fn prot_none_faults_once_and_clears() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        sys.process_mut(pid)
            .space
            .entry_mut(Vpn(0))
            .flags
            .set(PageFlags::PROT_NONE);
        let r = sys.access(pid, Vpn(0), false);
        assert!(r.hint_fault);
        let r2 = sys.access(pid, Vpn(0), false);
        assert!(!r2.hint_fault);
        assert_eq!(sys.stats.hint_faults, 1);
    }

    #[test]
    fn probed_flag_reported_on_fault() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        sys.access(pid, Vpn(1), false);
        let e = sys.process_mut(pid).space.entry_mut(Vpn(1));
        e.flags.set(PageFlags::PROT_NONE | PageFlags::PROBED);
        let r = sys.access(pid, Vpn(1), false);
        assert!(r.hint_fault);
        assert!(r.probed_fault);
    }

    #[test]
    fn migrate_moves_frames_between_tiers() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let slow_used_before = sys.used_frames(TierId::SLOW);
        let moved = sys
            .migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(moved, 1);
        assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::FAST);
        assert_eq!(sys.used_frames(TierId::SLOW), slow_used_before - 1);
        assert_eq!(sys.stats.promoted_pages, 1);
        assert_eq!(sys.stats.migration_bytes, 4096);
    }

    #[test]
    fn migrate_same_tier_rejected() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        assert_eq!(
            sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::SameTier)
        );
    }

    #[test]
    fn migrate_unmapped_rejected() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        assert_eq!(
            sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::NotPresent)
        );
    }

    #[test]
    fn sync_migration_stalls_the_waiter() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let before = sys.process(pid).vtime;
        sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Sync(pid))
            .unwrap();
        assert!(sys.process(pid).vtime > before);
    }

    #[test]
    fn async_migration_builds_backlog_not_stall() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let before = sys.process(pid).vtime;
        sys.migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(sys.process(pid).vtime, before);
        assert!(sys.migration_backlog() > Nanos::ZERO);
    }

    #[test]
    fn promote_with_reclaim_demotes_victims() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // Fast tier is at watermark; fill it completely by promoting until
        // free, forcing reclaim of cold fast pages.
        // First exhaust free frames.
        let mut v = 60;
        while sys.free_frames(TierId::FAST) > 0 {
            let _ = sys.migrate(pid, Vpn(v), TierId::FAST, MigrateMode::Async);
            v += 1;
        }
        let demoted_before = sys.stats.demoted_pages;
        let r = sys.promote_with_reclaim_to(pid, Vpn(v), TierId::FAST, MigrateMode::Async);
        assert_eq!(r, Ok(1));
        assert!(sys.stats.demoted_pages > demoted_before);
        assert_eq!(sys.process(pid).space.entry(Vpn(v)).tier(), TierId::FAST);
    }

    #[test]
    fn pop_inactive_victim_gives_second_chance() {
        let mut sys = small_sys();
        let pid = sys.add_process(8, PageSize::Base);
        for i in 0..8 {
            sys.access(pid, Vpn(i), false);
        }
        // All pages are on the active list with accessed bits set. First they
        // are aged (bit cleared), then an untouched page becomes a victim.
        let victim = sys.pop_inactive_victim(TierId::FAST);
        assert!(victim.is_some());
        let (_vp, vv) = victim.unwrap();
        // The victim's accessed bit must be clear (it got no second touch).
        assert!(!sys
            .process(pid)
            .space
            .entry(vv)
            .flags
            .has(PageFlags::ACCESSED));
    }

    #[test]
    fn huge_mapping_faults_and_migrates_as_block() {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
        let pid = sys.add_process(1024, PageSize::Huge2M);
        let r = sys.access(pid, Vpn(700), false);
        assert!(r.demand_fault);
        // One demand fault mapped the whole 512-page block.
        assert_eq!(sys.stats.demand_faults, 1);
        let [fast, ..] = sys.process(pid).space.resident_pages();
        assert_eq!(fast, 512);
        // Accessing another page of the block does not fault.
        let r2 = sys.access(pid, Vpn(701), false);
        assert!(!r2.demand_fault);
        // Migrating any page of the block moves all 512 pages.
        let moved = sys
            .migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
            .unwrap();
        assert_eq!(moved, 512);
        assert_eq!(sys.stats.demoted_pages, 512);
        assert_eq!(sys.used_frames(TierId::SLOW), 512);
    }

    #[test]
    fn huge_block_needs_contiguous_space_budget() {
        // Slow tier too small for a 512-page block: allocation must go fast.
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 100));
        let pid = sys.add_process(512, PageSize::Huge2M);
        sys.access(pid, Vpn(0), false);
        assert_eq!(sys.process(pid).space.entry(Vpn(0)).tier(), TierId::FAST);
        assert_eq!(
            sys.migrate(pid, Vpn(0), TierId::SLOW, MigrateMode::Async),
            Err(MigrateError::NoSpace)
        );
    }

    #[test]
    fn min_vtime_scheduling_is_fair() {
        let mut sys = small_sys();
        let a = sys.add_process(4, PageSize::Base);
        let b = sys.add_process(4, PageSize::Base);
        let next = |sys: &TieredSystem| sys.min_vtime_process_and_time().map(|(pid, _)| pid);
        assert_eq!(next(&sys), Some(a));
        sys.access(a, Vpn(0), false);
        assert_eq!(next(&sys), Some(b));
        sys.process_mut(b).running = false;
        assert_eq!(next(&sys), Some(a));
    }

    #[test]
    fn kernel_charge_accounting() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        sys.charge_kernel(Some(pid), Nanos(500));
        assert_eq!(sys.stats.kernel_time, Nanos(500));
        assert_eq!(sys.process(pid).vtime, Nanos(500));
        sys.charge_kernel(None, Nanos(100));
        assert_eq!(sys.stats.kernel_time, Nanos(600));
        assert_eq!(sys.process(pid).vtime, Nanos(500));
    }

    #[test]
    fn swap_out_and_major_fault_round_trip() {
        let mut sys = small_sys();
        let pid = sys.add_process(16, PageSize::Base);
        sys.access(pid, Vpn(3), true);
        assert_eq!(sys.process(pid).resident_frames, 1);
        let freed = sys.swap_out(pid, Vpn(3)).unwrap();
        assert_eq!(freed, 1);
        assert_eq!(sys.process(pid).resident_frames, 0);
        assert!(!sys.process(pid).space.entry(Vpn(3)).present());
        assert!(sys
            .process(pid)
            .space
            .entry(Vpn(3))
            .flags
            .has(PageFlags::SWAPPED));
        assert_eq!(sys.stats.swapped_out_pages, 1);
        // Next access is a major fault, slower than a demand fault.
        let demand_latency = {
            let mut s2 = small_sys();
            let p2 = s2.add_process(4, PageSize::Base);
            s2.access(p2, Vpn(0), false).latency
        };
        let r = sys.access(pid, Vpn(3), false);
        assert!(r.demand_fault);
        assert_eq!(sys.stats.swap_in_faults, 1);
        assert!(r.latency > demand_latency);
        assert!(sys.process(pid).space.entry(Vpn(3)).present());
        assert!(!sys
            .process(pid)
            .space
            .entry(Vpn(3))
            .flags
            .has(PageFlags::SWAPPED));
    }

    #[test]
    fn swap_out_unmapped_fails() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        assert_eq!(sys.swap_out(pid, Vpn(0)), Err(MigrateError::NotPresent));
    }

    #[test]
    fn memory_limit_accounting() {
        let mut sys = small_sys();
        let pid = sys.add_process(64, PageSize::Base);
        sys.set_memory_limit(pid, Some(10));
        for i in 0..20 {
            sys.access(pid, Vpn(i), false);
        }
        assert_eq!(sys.over_limit_frames(pid), 10);
        for i in 0..10 {
            sys.swap_out(pid, Vpn(i)).unwrap();
        }
        assert_eq!(sys.over_limit_frames(pid), 0);
        sys.set_memory_limit(pid, None);
        assert_eq!(sys.over_limit_frames(pid), 0);
    }

    #[test]
    fn huge_swap_moves_whole_block() {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
        let pid = sys.add_process(1024, PageSize::Huge2M);
        sys.access(pid, Vpn(100), false);
        assert_eq!(sys.process(pid).resident_frames, 512);
        let freed = sys.swap_out(pid, Vpn(100)).unwrap();
        assert_eq!(freed, 512);
        assert_eq!(sys.stats.swapped_out_pages, 512);
        let r = sys.access(pid, Vpn(100), false);
        assert!(r.demand_fault);
        assert_eq!(sys.stats.swap_in_faults, 1);
        assert_eq!(sys.process(pid).resident_frames, 512);
    }

    fn huge_sys() -> (TieredSystem, ProcessId) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
        let pid = sys.add_process(1024, PageSize::Huge2M);
        sys.access(pid, Vpn(700), false);
        (sys, pid)
    }

    #[test]
    fn begin_migrate_leaves_old_copy_mapped_until_completion() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let fast_free = sys.free_frames(TierId::FAST);
        let moved = sys
            .begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(moved, 1);
        // In flight: reservation holds a fast frame, the PTE still points at
        // the slow copy, and reads keep hitting it without aborting.
        assert_eq!(sys.free_frames(TierId::FAST), fast_free - 1);
        assert_eq!(sys.migration_reserved_frames(TierId::FAST), 1);
        assert_eq!(sys.migration_in_flight_count(), 1);
        let e = sys.process(pid).space.entry(Vpn(100));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(e.flags.has(PageFlags::MIGRATING));
        let r = sys.access(pid, Vpn(100), false);
        assert_eq!(r.tier, TierId::SLOW);
        assert_eq!(sys.stats.promoted_pages, 0);
        // Completion is clock-driven.
        assert_eq!(sys.complete_due_migrations(), 0);
        sys.clock.advance(Nanos::from_millis(1));
        assert_eq!(sys.complete_due_migrations(), 1);
        let e = sys.process(pid).space.entry(Vpn(100));
        assert_eq!(e.tier(), TierId::FAST);
        assert!(!e.flags.has(PageFlags::MIGRATING));
        assert_eq!(sys.stats.promoted_pages, 1);
        assert_eq!(sys.stats.begun_migrations, 1);
        assert_eq!(sys.stats.completed_migrations, 1);
        assert_eq!(sys.migration_in_flight_count(), 0);
        assert_eq!(sys.migration_reserved_frames(TierId::FAST), 0);
    }

    #[test]
    fn write_aborts_in_flight_migration_and_redirties() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let fast_free = sys.free_frames(TierId::FAST);
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.access(pid, Vpn(100), true);
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert_eq!(sys.migration_in_flight_count(), 0);
        // The reservation was released and the page stays slow, dirty.
        assert_eq!(sys.free_frames(TierId::FAST), fast_free);
        let e = sys.process(pid).space.entry(Vpn(100));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(!e.flags.has(PageFlags::MIGRATING));
        assert!(e.flags.has(PageFlags::DIRTY));
        // Nothing left to complete.
        sys.clock.advance(Nanos::from_millis(1));
        assert_eq!(sys.complete_due_migrations(), 0);
        assert_eq!(sys.stats.promoted_pages, 0);
        assert_eq!(
            sys.stats.begun_migrations,
            sys.stats.completed_migrations + sys.stats.aborted_migrations
        );
    }

    #[test]
    fn backpressure_when_slots_exhausted() {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        cfg.migration.inflight_slots = 1;
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(
            sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::Backpressure)
        );
        assert_eq!(
            sys.stats.failed_fast_migrations[MigrateError::Backpressure.index()],
            1
        );
        // Draining the table restores admission.
        sys.clock.advance(Nanos::from_millis(1));
        sys.complete_due_migrations();
        assert!(sys
            .begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
            .is_ok());
    }

    #[test]
    fn backpressure_when_backlog_cap_exhausted() {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        cfg.migration.backlog_cap = Nanos::from_micros(4);
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // Each async copy queues ~3 µs on the fast channel; the second one
        // exceeds the 4 µs cap.
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(
            sys.begin_migrate(pid, Vpn(102), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::Backpressure)
        );
        assert!(sys.migration_backlog() > Nanos::from_micros(4));
    }

    #[test]
    fn duplicate_begin_on_in_flight_unit_backpressures() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(
            sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::Backpressure)
        );
        // The in-flight page also refuses the compat (instant) path.
        assert_eq!(
            sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::Backpressure)
        );
    }

    #[test]
    fn sync_begin_charges_waiter_and_completes_on_next_pump() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let before = sys.process(pid).vtime;
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Sync(pid))
            .unwrap();
        assert!(sys.process(pid).vtime > before);
        // The waiter already paid: the copy is due immediately, even with
        // the clock unmoved.
        assert_eq!(sys.complete_due_migrations(), 1);
        assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::FAST);
    }

    #[test]
    fn huge_write_abort_releases_all_512_reserved_frames() {
        let (mut sys, pid) = huge_sys();
        assert_eq!(sys.free_frames(TierId::SLOW), 2048);
        let moved = sys
            .begin_migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
            .unwrap();
        assert_eq!(moved, 512);
        assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 512);
        assert_eq!(sys.free_frames(TierId::SLOW), 2048 - 512);
        // A store to any page of the block kills the whole transaction.
        sys.access(pid, Vpn(701), true);
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 0);
        assert_eq!(sys.free_frames(TierId::SLOW), 2048);
        assert_eq!(sys.stats.demoted_pages, 0);
        let e = sys.process(pid).space.entry(Vpn(700).huge_head());
        assert!(!e.flags.has(PageFlags::MIGRATING));
        assert_eq!(e.tier(), TierId::FAST);
    }

    #[test]
    fn split_during_in_flight_huge_migration_aborts() {
        let (mut sys, pid) = huge_sys();
        sys.begin_migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
            .unwrap();
        sys.split_block(pid, Vpn(700));
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 0);
        assert_eq!(sys.migration_in_flight_count(), 0);
        let head = Vpn(700).huge_head();
        let e = sys.process(pid).space.entry(head);
        assert!(!e.flags.has(PageFlags::MIGRATING));
        assert!(e.flags.has(PageFlags::HUGE_SPLIT));
        // Late pump finds nothing; the block stays fast, now as base pages.
        sys.clock.advance(Nanos::from_millis(10));
        assert_eq!(sys.complete_due_migrations(), 0);
        assert_eq!(sys.stats.demoted_pages, 0);
    }

    fn arm_probe(sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn) {
        let e = sys.process_mut(pid).space.entry_mut(vpn);
        e.flags.set(PageFlags::PROBED | PageFlags::PROT_NONE);
    }

    #[test]
    fn probe_clears_are_logged_once_per_set_bit() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // Migration completion, both the async pump and the sync wrapper.
        arm_probe(&mut sys, pid, Vpn(100));
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.clock.advance(Nanos::from_millis(1));
        assert_eq!(sys.complete_due_migrations(), 1);
        arm_probe(&mut sys, pid, Vpn(101));
        sys.migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
            .unwrap();
        // Reclaim to swap.
        arm_probe(&mut sys, pid, Vpn(102));
        sys.swap_out(pid, Vpn(102)).unwrap();
        // The policy-side clear, which also takes the extra bits it is given.
        arm_probe(&mut sys, pid, Vpn(103));
        sys.clear_probed(pid, Vpn(103), PageFlags::PROT_NONE);
        let e = sys.process(pid).space.entry(Vpn(103));
        assert!(!e.flags.has_any(PageFlags::PROBED | PageFlags::PROT_NONE));
        for v in 100..=102 {
            let e = sys.process(pid).space.entry(Vpn(v));
            assert!(!e.flags.has(PageFlags::PROBED), "vpn {v} kept PG_probed");
        }
        let logged: Vec<(ProcessId, Vpn)> = (100..=103).map(|v| (pid, Vpn(v))).collect();
        assert_eq!(sys.take_probe_clears(), logged);
        assert!(
            sys.take_probe_clears().is_empty(),
            "drain must empty the log"
        );

        // The same paths on unprobed pages log nothing, and clearing an
        // already clear bit logs nothing.
        sys.begin_migrate(pid, Vpn(104), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.clock.advance(Nanos::from_millis(1));
        assert_eq!(sys.complete_due_migrations(), 1);
        sys.migrate(pid, Vpn(105), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.swap_out(pid, Vpn(106)).unwrap();
        sys.clear_probed(pid, Vpn(103), PageFlags::PROT_NONE);
        sys.clear_probed(pid, Vpn(107), 0);
        assert!(sys.take_probe_clears().is_empty());
    }

    #[test]
    fn abort_and_split_log_no_probe_clears() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // An aborted copy leaves the probe armed on the source page.
        arm_probe(&mut sys, pid, Vpn(100));
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert!(sys.abort_migration(pid, Vpn(100), true));
        assert!(sys
            .process(pid)
            .space
            .entry(Vpn(100))
            .flags
            .has(PageFlags::PROBED));
        assert!(sys.take_probe_clears().is_empty());

        // A split copies the head's flags to the tails and clears nothing.
        let (mut sys, pid) = huge_sys();
        let head = Vpn(700).huge_head();
        arm_probe(&mut sys, pid, head);
        sys.begin_migrate(pid, head, TierId::SLOW, MigrateMode::Async)
            .unwrap();
        sys.split_block(pid, head);
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert!(sys
            .process(pid)
            .space
            .entry(head)
            .flags
            .has(PageFlags::PROBED));
        assert!(sys.take_probe_clears().is_empty());
    }

    #[test]
    fn swap_out_aborts_in_flight_migration() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let fast_free = sys.free_frames(TierId::FAST);
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.swap_out(pid, Vpn(100)).unwrap();
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert_eq!(sys.free_frames(TierId::FAST), fast_free);
        assert!(!sys.process(pid).space.entry(Vpn(100)).present());
    }

    #[test]
    fn failed_victim_demotions_are_counted_not_swallowed() {
        // 64 fast + 8 slow: demand paging fills both tiers completely
        // (56 fast, 8 slow, then the last 8 fast), so every reclaim victim
        // demotion hits a full slow tier.
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 8));
        let pid = sys.add_process(72, PageSize::Base);
        for i in 0..72 {
            sys.access(pid, Vpn(i), false);
        }
        assert_eq!(sys.free_frames(TierId::FAST), 0);
        assert_eq!(sys.free_frames(TierId::SLOW), 0);
        let r = sys.promote_with_reclaim_to(pid, Vpn(60), TierId::FAST, MigrateMode::Async);
        assert_eq!(r, Err(MigrateError::NoSpace));
        // The attempt budget is 4 × unit; every victim demotion failed with
        // NoSpace and was counted instead of silently dropped.
        assert_eq!(sys.stats.failed_demotions, 4);
        assert!(sys.stats.failed_promotions > 0);
    }

    #[test]
    fn failed_fast_migrations_table_covers_every_reason() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        // NotPresent.
        assert!(sys
            .migrate(pid, Vpn(5), TierId::FAST, MigrateMode::Async)
            .is_err());
        // SameTier (page 0 landed fast).
        assert!(sys
            .migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async)
            .is_err());
        assert_eq!(
            sys.stats.failed_fast_migrations[MigrateError::NotPresent.index()],
            1
        );
        assert_eq!(
            sys.stats.failed_fast_migrations[MigrateError::SameTier.index()],
            1
        );
        // Demotion failures stay out of the fast-tier table.
        assert!(sys
            .migrate(pid, Vpn(5), TierId::SLOW, MigrateMode::Async)
            .is_err());
        assert_eq!(
            sys.stats.failed_fast_migrations[MigrateError::NotPresent.index()],
            1
        );
        // NoSpace keeps feeding the historical counter too.
        let mut full = TieredSystem::new(SystemConfig::dram_pmem(8, 600));
        let p2 = full.add_process(512, PageSize::Base);
        for i in 0..512 {
            full.access(p2, Vpn(i), false);
        }
        while full.free_frames(TierId::FAST) > 0 {
            let v = 512 - 1 - full.free_frames(TierId::FAST);
            let _ = full.migrate(p2, Vpn(v), TierId::FAST, MigrateMode::Async);
        }
        let before = full.stats.failed_promotions;
        assert_eq!(
            full.migrate(p2, Vpn(500), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::NoSpace)
        );
        assert_eq!(full.stats.failed_promotions, before + 1);
        assert_eq!(
            full.stats.failed_fast_migrations[MigrateError::NoSpace.index()],
            full.stats.failed_promotions
        );
    }

    #[test]
    fn compat_migrate_preserves_flow_conservation() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.access(pid, Vpn(101), true); // abort
        sys.begin_migrate(pid, Vpn(102), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(sys.stats.begun_migrations, 3);
        assert_eq!(
            sys.stats.begun_migrations,
            sys.stats.completed_migrations
                + sys.stats.aborted_migrations
                + sys.migration_in_flight_count() as u64
        );
    }

    #[test]
    fn compat_migrate_leaves_in_flight_promotions_untouched() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        for v in 100..103 {
            sys.begin_migrate(pid, Vpn(v), TierId::FAST, MigrateMode::Async)
                .unwrap();
        }
        let in_flight = |sys: &TieredSystem| {
            sys.in_flight_migrations()
                .map(|t| (t.id, t.head, t.complete_at))
                .collect::<Vec<_>>()
        };
        let before = in_flight(&sys);
        let front = before[0].2;
        // A demotion on the idle down channel, then a promotion queued behind
        // the in-flight ones on the up channel: each is opened and retired in
        // the same call.
        for (vpn, to) in [(Vpn(0), TierId::SLOW), (Vpn(103), TierId::FAST)] {
            sys.migrate(pid, vpn, to, MigrateMode::Async).unwrap();
            assert_eq!(sys.process(pid).space.entry(vpn).tier(), to);
            assert_eq!(in_flight(&sys), before);
            assert!(!sys.engine.any_due(Nanos(front.as_nanos() - 1)));
            assert!(sys.engine.any_due(front));
        }
        assert_eq!(sys.migration_reserved_frames(TierId::FAST), 3);
    }

    /// Every `MigrateError` variant, in `index()` order. The exhaustive
    /// match inside `migrate_error_reasons_table_is_exhaustive` forces a
    /// compile error here whenever a variant is added without updating
    /// `COUNT`/`REASONS` (the `[&str; COUNT]` type already pins the array
    /// length at compile time).
    const ALL_ERRORS: [MigrateError; MigrateError::COUNT] = [
        MigrateError::NotPresent,
        MigrateError::SameTier,
        MigrateError::NoSpace,
        MigrateError::Backpressure,
        MigrateError::CopyFault,
        MigrateError::Poisoned,
        MigrateError::NonAdjacent,
        MigrateError::TierOffline,
    ];

    #[test]
    fn migrate_error_reasons_table_is_exhaustive() {
        for (i, e) in ALL_ERRORS.iter().enumerate() {
            assert_eq!(e.index(), i, "{:?} out of index order", e);
            let expect = match e {
                MigrateError::NotPresent => "not_present",
                MigrateError::SameTier => "same_tier",
                MigrateError::NoSpace => "no_space",
                MigrateError::Backpressure => "backpressure",
                MigrateError::CopyFault => "copy_fault",
                MigrateError::Poisoned => "poisoned",
                MigrateError::NonAdjacent => "non_adjacent",
                MigrateError::TierOffline => "tier_offline",
            };
            assert_eq!(MigrateError::REASONS[i], expect);
        }
    }

    /// Drives every `MigrateError` variant through the promotion path and
    /// checks each lands in its own `failed_fast_migrations` cell.
    #[test]
    fn every_migrate_error_reaches_its_failure_cell() {
        // NotPresent / SameTier on a plain system.
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        let _ = sys.migrate(pid, Vpn(5), TierId::FAST, MigrateMode::Async);
        let _ = sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async);
        // Backpressure via a second begin on the same in-flight unit.
        for i in 1..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        let _ = sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async);
        let t = &sys.stats.failed_fast_migrations;
        assert_eq!(t[MigrateError::NotPresent.index()], 1);
        assert_eq!(t[MigrateError::SameTier.index()], 1);
        assert_eq!(t[MigrateError::Backpressure.index()], 1);

        // NoSpace on a full fast tier.
        let mut full = TieredSystem::new(SystemConfig::dram_pmem(8, 600));
        let p2 = full.add_process(512, PageSize::Base);
        for i in 0..512 {
            full.access(p2, Vpn(i), false);
        }
        while full.free_frames(TierId::FAST) > 0 {
            let v = 512 - 1 - full.free_frames(TierId::FAST);
            let _ = full.migrate(p2, Vpn(v), TierId::FAST, MigrateMode::Async);
        }
        assert_eq!(
            full.migrate(p2, Vpn(500), TierId::FAST, MigrateMode::Async),
            Err(MigrateError::NoSpace)
        );
        assert_eq!(
            full.stats.failed_fast_migrations[MigrateError::NoSpace.index()],
            full.stats.failed_promotions
        );

        // CopyFault / Poisoned via deterministic fault plans.
        for (err, plan) in [
            (MigrateError::CopyFault, {
                let mut p = FaultPlan::inert(1);
                p.copy_transient = 1.0;
                p
            }),
            (MigrateError::Poisoned, {
                let mut p = FaultPlan::inert(1);
                p.copy_poison = 1.0;
                p
            }),
        ] {
            let mut cfg = SystemConfig::dram_pmem(64, 192);
            cfg.fault_plan = Some(plan);
            let mut fsys = TieredSystem::new(cfg);
            let fp = fsys.add_process(128, PageSize::Base);
            for i in 0..128 {
                fsys.access(fp, Vpn(i), false);
            }
            assert_eq!(
                fsys.migrate(fp, Vpn(100), TierId::FAST, MigrateMode::Async),
                Err(err)
            );
            assert_eq!(fsys.stats.failed_fast_migrations[err.index()], 1);
        }

        // NonAdjacent: a two-hop move on a three-tier chain.
        let mut tri = TieredSystem::new(SystemConfig::three_tier(16, 512, 512));
        let p3 = tri.add_process(256, PageSize::Base);
        for i in 0..256 {
            tri.access(p3, Vpn(i), false);
        }
        // Allocation spilled past the tiny fast tier into the middle tier;
        // push one page down to the bottom, then ask for the illegal 2→0 hop.
        let mid_page = (0..256)
            .map(Vpn)
            .find(|&v| tri.process(p3).space.entry(v).tier() == TierId(1))
            .expect("some page landed in the middle tier");
        tri.migrate(p3, mid_page, TierId(2), MigrateMode::Async)
            .unwrap();
        assert_eq!(
            tri.migrate(p3, mid_page, TierId::FAST, MigrateMode::Async),
            Err(MigrateError::NonAdjacent)
        );
        assert_eq!(
            tri.stats.failed_fast_migrations[MigrateError::NonAdjacent.index()],
            1
        );

        // TierOffline: aim a demotion at a tier that has gone offline. The
        // per-reason table only counts promotions, and tier 0 can never go
        // offline, so this variant is checked on the error return alone.
        tri.apply_tier_event(TierEvent {
            at: Nanos(0),
            tier: TierId(2),
            kind: TierEventKind::Offline { deadline: Nanos(0) },
        });
        let still_mid = (0..256)
            .map(Vpn)
            .find(|&v| tri.process(p3).space.entry(v).tier() == TierId(1))
            .expect("a page still sits in the middle tier");
        assert_eq!(
            tri.migrate(p3, still_mid, TierId(2), MigrateMode::Async),
            Err(MigrateError::TierOffline)
        );
    }

    #[test]
    fn transient_copy_fault_releases_reservation_and_reports() {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        let mut plan = FaultPlan::inert(3);
        plan.copy_transient = 1.0;
        cfg.fault_plan = Some(plan);
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let fast_free = sys.free_frames(TierId::FAST);
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.clock.advance(Nanos::from_millis(1));
        // The copy comes due but the roll fails it: nothing completed.
        assert_eq!(sys.complete_due_migrations(), 0);
        assert_eq!(sys.stats.transient_copy_faults, 1);
        assert_eq!(sys.free_frames(TierId::FAST), fast_free);
        let e = sys.process(pid).space.entry(Vpn(100));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(!e.flags.has(PageFlags::MIGRATING));
        let failures = sys.take_migration_failures();
        assert_eq!(
            failures,
            vec![MigrationFailure {
                pid,
                head: Vpn(100),
                unit: 1,
                from: TierId::SLOW,
                to: TierId::FAST,
                reason: MigrateError::CopyFault,
            }]
        );
        assert!(
            sys.take_migration_failures().is_empty(),
            "drain is one-shot"
        );
        // A retry of the same migration is valid and (with the dice removed)
        // would succeed: admission accepts it again.
        assert!(sys
            .begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .is_ok());
    }

    #[test]
    fn poison_copy_fault_quarantines_one_destination_frame() {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        let mut plan = FaultPlan::inert(4);
        plan.copy_poison = 1.0;
        cfg.fault_plan = Some(plan);
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        let fast_free = sys.free_frames(TierId::FAST);
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.clock.advance(Nanos::from_millis(1));
        assert_eq!(sys.complete_due_migrations(), 0);
        assert_eq!(sys.stats.poisoned_copy_faults, 1);
        assert_eq!(sys.stats.quarantined_frames, 1);
        assert_eq!(sys.quarantined_frames(TierId::FAST), 1);
        // One frame went bad: the free pool is one short of where it was.
        assert_eq!(sys.free_frames(TierId::FAST), fast_free - 1);
        assert_eq!(sys.total_frames(TierId::FAST), 63);
        // The source mapping survived.
        assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::SLOW);
    }

    #[test]
    fn poison_frame_soft_offlines_resident_page() {
        let mut sys = small_sys();
        let pid = sys.add_process(16, PageSize::Base);
        sys.access(pid, Vpn(3), false);
        let e = sys.process(pid).space.entry(Vpn(3));
        assert_eq!(e.tier(), TierId::FAST);
        let bad = e.pfn;
        assert!(sys.poison_frame(TierId::FAST, bad));
        // Soft-offline ran inline: the page moved to the slow tier, the bad
        // frame is quarantined, and the POISONED flag cleared with the move.
        let e = sys.process(pid).space.entry(Vpn(3));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(!e.flags.has(PageFlags::POISONED));
        assert!(sys.frame_is_quarantined(TierId::FAST, bad));
        assert_eq!(sys.stats.quarantined_frames, 1);
        assert_eq!(sys.total_frames(TierId::FAST), 63);
        // Poisoning the same frame again is a no-op.
        assert!(!sys.poison_frame(TierId::FAST, bad));
        assert_eq!(sys.stats.quarantined_frames, 1);
    }

    #[test]
    fn poison_mid_tier_frame_rehomes_to_nearest_healthy_neighbor() {
        // Three-tier chain with room everywhere: demote a few pages into
        // the CXL mid tier, then poison one of their frames. Soft-offline
        // must pick the nearest *healthy* neighbor — slower side on a
        // healthy chain, the fast tier once the slower side is gone.
        let mut sys = TieredSystem::new(SystemConfig::three_tier(64, 128, 64));
        let pid = sys.add_process(40, PageSize::Base);
        for i in 0..40 {
            sys.access(pid, Vpn(i), false);
        }
        for i in 0..8 {
            sys.migrate(pid, Vpn(i), TierId(1), MigrateMode::Async)
                .unwrap();
        }
        let bad = sys.process(pid).space.entry(Vpn(3)).pfn;
        assert!(sys.poison_frame(TierId(1), bad));
        // Healthy chain: the mid tier's soft-offline destination is one
        // hop down (slower side preferred), never two hops to the top.
        let e = sys.process(pid).space.entry(Vpn(3));
        assert_eq!(e.tier(), TierId(2));
        assert!(!e.flags.has(PageFlags::POISONED));
        assert!(sys.frame_is_quarantined(TierId(1), bad));

        // Take the bottom tier offline (zero-deadline forced drain pushes
        // its one page back to the mid tier and splices the chain): the
        // slower neighbor no longer accepts pages, so the next mid-tier
        // poison must rehome *up* to the fast tier instead.
        sys.apply_tier_event(TierEvent {
            at: Nanos(0),
            tier: TierId(2),
            kind: TierEventKind::Offline { deadline: Nanos(0) },
        });
        assert_eq!(sys.tier_health(TierId(2)), TierHealth::Offline);
        let bad = sys.process(pid).space.entry(Vpn(5)).pfn;
        assert_eq!(sys.process(pid).space.entry(Vpn(5)).tier(), TierId(1));
        assert!(sys.poison_frame(TierId(1), bad));
        let e = sys.process(pid).space.entry(Vpn(5));
        assert_eq!(e.tier(), TierId::FAST);
        assert!(!e.flags.has(PageFlags::POISONED));
        assert!(sys.frame_is_quarantined(TierId(1), bad));
    }

    #[test]
    fn poison_free_frame_quarantines_directly() {
        let mut sys = small_sys();
        let pid = sys.add_process(4, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        let pfn = sys.process(pid).space.entry(Vpn(0)).pfn;
        sys.swap_out(pid, Vpn(0)).unwrap();
        assert!(sys.poison_frame(TierId::FAST, pfn));
        assert!(sys.frame_is_quarantined(TierId::FAST, pfn));
        assert_eq!(sys.stats.quarantined_frames, 1);
    }

    #[test]
    fn poison_reserved_copy_destination_aborts_and_quarantines() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        let dest = sys
            .in_flight_migrations()
            .next()
            .expect("one txn in flight")
            .dest_pfns[0];
        assert!(sys.poison_frame(TierId::FAST, dest));
        assert_eq!(sys.stats.aborted_migrations, 1);
        assert_eq!(sys.migration_in_flight_count(), 0);
        assert!(sys.frame_is_quarantined(TierId::FAST, dest));
        // The source page survived untouched in the slow tier.
        let e = sys.process(pid).space.entry(Vpn(100));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(!e.flags.has(PageFlags::MIGRATING));
    }

    #[test]
    fn poison_huge_mapped_frame_splits_before_poisoning() {
        let (mut sys, pid) = huge_sys();
        let head = Vpn(700).huge_head();
        let bad = sys.process(pid).space.entry(Vpn(703)).pfn;
        assert!(sys.poison_frame(TierId::FAST, bad));
        // The block was split so the poison stays on one base page; that
        // page soft-offlined to the slow tier.
        assert!(!sys.process(pid).space.is_huge_mapped(head));
        let e = sys.process(pid).space.entry(Vpn(703));
        assert_eq!(e.tier(), TierId::SLOW);
        assert!(!e.flags.has(PageFlags::POISONED));
        assert!(sys.frame_is_quarantined(TierId::FAST, bad));
        // Its neighbours stayed fast.
        assert_eq!(sys.process(pid).space.entry(Vpn(702)).tier(), TierId::FAST);
    }

    #[test]
    fn swap_out_quarantines_poisoned_frame() {
        // Fill the slow tier so soft-offline migration fails and the
        // POISONED flag stays set, then reclaim the page.
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 8));
        let pid = sys.add_process(72, PageSize::Base);
        for i in 0..72 {
            sys.access(pid, Vpn(i), false);
        }
        assert_eq!(sys.free_frames(TierId::SLOW), 0);
        // Vpn(0) landed fast; its soft-offline has nowhere to go.
        let bad = sys.process(pid).space.entry(Vpn(0)).pfn;
        assert!(sys.poison_frame(TierId::FAST, bad));
        let e = sys.process(pid).space.entry(Vpn(0));
        assert!(e.flags.has(PageFlags::POISONED), "soft-offline had no room");
        assert_eq!(sys.stats.quarantined_frames, 0);
        sys.swap_out(pid, Vpn(0)).unwrap();
        assert!(sys.frame_is_quarantined(TierId::FAST, bad));
        assert_eq!(sys.stats.quarantined_frames, 1);
        let e = sys.process(pid).space.entry(Vpn(0));
        assert!(!e.flags.has(PageFlags::POISONED));
        assert!(e.flags.has(PageFlags::SWAPPED));
    }

    #[test]
    fn fast_tier_shrink_offlines_and_rescales_watermarks() {
        let mut sys = small_sys();
        let pid = sys.add_process(32, PageSize::Base);
        for i in 0..32 {
            sys.access(pid, Vpn(i), false);
        }
        assert_eq!(sys.total_frames(TierId::FAST), 64);
        let wm_before = sys.watermarks;
        let got = sys.shrink_tier(TierId::FAST, 16);
        assert_eq!(got, 16);
        assert_eq!(sys.total_frames(TierId::FAST), 48);
        assert_eq!(sys.offlined_frames(TierId::FAST), 16);
        assert_eq!(sys.stats.offlined_frames, 16);
        assert_eq!(sys.tier_shrink_debt(TierId::FAST), 0);
        assert!(sys.watermarks.well_ordered());
        assert!(sys.watermarks.pro <= (48u32 / 4).max(sys.watermarks.high));
        let _ = wm_before;
        // Grow restores them and the usable size returns.
        assert_eq!(sys.grow_tier(TierId::FAST, 16), 16);
        assert_eq!(sys.total_frames(TierId::FAST), 64);
        assert_eq!(sys.stats.restored_frames, 16);
    }

    #[test]
    fn shrink_debt_is_retired_as_frames_free_up() {
        let mut sys = small_sys();
        let pid = sys.add_process(64, PageSize::Base);
        for i in 0..64 {
            sys.access(pid, Vpn(i), false);
        }
        // 56 fast frames used, 8 free; ask for more than the free pool.
        let got = sys.shrink_tier(TierId::FAST, 20);
        assert_eq!(got, 8);
        assert_eq!(sys.tier_shrink_debt(TierId::FAST), 12);
        assert_eq!(sys.total_frames(TierId::FAST), 56);
        // Demote pages; the pump retires debt from the freed frames.
        for i in 0..12 {
            sys.migrate(pid, Vpn(i), TierId::SLOW, MigrateMode::Async)
                .unwrap();
        }
        sys.complete_due_migrations();
        assert_eq!(sys.tier_shrink_debt(TierId::FAST), 0);
        assert_eq!(sys.offlined_frames(TierId::FAST), 20);
        assert_eq!(sys.total_frames(TierId::FAST), 44);
        assert_eq!(sys.stats.offlined_frames, 20);
        // Grow first cancels debt, then restores offlined frames.
        assert_eq!(sys.grow_tier(TierId::FAST, 20), 20);
        assert_eq!(sys.total_frames(TierId::FAST), 64);
    }

    #[test]
    fn planned_capacity_event_fires_at_its_time() {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        let mut plan = FaultPlan::inert(5);
        plan.capacity_events = vec![crate::fault::CapacityEvent {
            at: Nanos::from_millis(10),
            kind: CapacityKind::ShrinkFastFraction(0.25),
        }];
        cfg.fault_plan = Some(plan);
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(16, PageSize::Base);
        for i in 0..16 {
            sys.access(pid, Vpn(i), false);
        }
        sys.clock.advance(Nanos::from_millis(5));
        sys.complete_due_migrations();
        assert_eq!(sys.total_frames(TierId::FAST), 64, "not due yet");
        sys.clock.advance(Nanos::from_millis(6));
        sys.complete_due_migrations();
        assert_eq!(sys.total_frames(TierId::FAST), 48, "25% shrink fired");
    }

    #[test]
    fn degrade_window_stretches_copy_backlog() {
        let healthy = {
            let mut sys = small_sys();
            let pid = sys.add_process(128, PageSize::Base);
            for i in 0..128 {
                sys.access(pid, Vpn(i), false);
            }
            sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
                .unwrap();
            sys.migration_backlog()
        };
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.degrade_channel(DegradeWindow {
            tier: TierId::FAST,
            from: Nanos::ZERO,
            until: Nanos::from_secs(1),
            cost_multiplier: 4.0,
        });
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        let degraded = sys.migration_backlog();
        assert!(
            degraded > healthy,
            "degraded backlog {:?} should exceed healthy {:?}",
            degraded,
            healthy
        );
    }

    #[test]
    fn fault_free_run_draws_nothing_and_changes_nothing() {
        // The same access pattern with and without an inert fault plan must
        // be byte-identical in stats: the plan only matters when armed.
        let run = |plan: Option<FaultPlan>| {
            let mut cfg = SystemConfig::dram_pmem(64, 192);
            cfg.fault_plan = plan;
            let mut sys = TieredSystem::new(cfg);
            let pid = sys.add_process(128, PageSize::Base);
            for i in 0..128 {
                sys.access(pid, Vpn(i), false);
            }
            for i in 64..80 {
                let _ = sys.migrate(pid, Vpn(i), TierId::FAST, MigrateMode::Async);
            }
            sys.clock.advance(Nanos::from_millis(2));
            sys.complete_due_migrations();
            (
                sys.stats.promoted_pages,
                sys.stats.completed_migrations,
                sys.stats.transient_copy_faults,
                sys.free_frames(TierId::FAST),
            )
        };
        assert_eq!(run(None), run(Some(FaultPlan::inert(99))));
    }

    #[test]
    fn stats_track_tier_split() {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        // 56 fast + 72 slow demand accesses.
        assert_eq!(sys.stats.reads[TierId::FAST.index()], 56);
        assert_eq!(sys.stats.reads[TierId::SLOW.index()], 72);
        let fmar = sys.stats.fmar();
        assert!((fmar - 56.0 / 128.0).abs() < 1e-12);
    }
}
