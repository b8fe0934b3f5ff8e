//! The access path: PTE walk, demand and hint faults, latency charging
//! with per-tier device contention, and demand placement.

use sim_clock::Nanos;

use super::TieredSystem;
use crate::addr::{ProcessId, Vpn};
use crate::frame::FrameOwner;
use crate::lru::LruKind;
use crate::page::PageFlags;
use crate::tier::TierId;

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

/// Sliding-window utilization tracker for one tier's memory device.
///
/// Each access contributes its device occupancy (write-weighted) to the
/// current window; at window rollover the utilization becomes the smoothed
/// load estimate driving the queueing penalty.
#[derive(Debug, Clone, Default)]
pub(super) struct TierLoad {
    window_start: Nanos,
    weighted_ops: f64,
    utilization: f64,
}

/// Utilization measurement window.
const LOAD_WINDOW: Nanos = Nanos(50_000); // 50 µs

impl TierLoad {
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
        let unit = self.procs[pid.0 as usize].space.unit_pages(pte_vpn);

        let tier = match self.try_pick_alloc_tier(unit) {
            Some(t) => t,
            None => self.reclaim_for_demand(unit),
        };
        for off in 0..unit {
            let v = Vpn(pte_vpn.0 + off);
            let owner = FrameOwner { pid, vpn: v };
            let pfn = self.frames[tier.index()]
                .alloc(owner)
                .expect("pick_alloc_tier guaranteed space");
            let e = self.procs[pid.0 as usize].space.entry_mut(v);
            e.pfn = pfn;
            e.flags.set_tier(tier);
        }
        let e = self.procs[pid.0 as usize].space.entry_mut(pte_vpn);
        e.flags.set(PageFlags::PRESENT);
        if unit > 1 {
            e.flags.set(PageFlags::HUGE_HEAD);
        }
        self.procs[pid.0 as usize].resident_frames += unit;
        self.lru_insert(pid, pte_vpn, LruKind::Active);
    }

    /// Picks the allocation tier for `unit` frames: fast while above the high
    /// watermark, otherwise the first lower tier with room (top-down, so
    /// placement spills one tier at a time), otherwise fast if it can still
    /// hold the unit at all.
    pub(super) fn try_pick_alloc_tier(&self, unit: u32) -> Option<TierId> {
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
}
