//! LRU maintenance and reclaim: list insertion and aging, victim
//! selection, swap-out, and the demand-side reclaim backstop.

use super::{MigrateError, TieredSystem};
use crate::addr::{ProcessId, Vpn, HUGE_2M_PAGES};
use crate::lru::{LruEntry, LruKind};
use crate::page::PageFlags;
use crate::tier::TierId;

impl TieredSystem {
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

    /// Whether an LRU entry is live: its page is present, in `tier`, and the
    /// entry's stamp is current (not lazily deleted). Also exposed for the
    /// `tiering-verify` invariant oracle.
    pub fn lru_entry_is_live(&self, e: LruEntry, tier: TierId) -> bool {
        let ent = self.procs[e.pid.0 as usize].space.entry(e.vpn);
        ent.present() && ent.lru_stamp == e.stamp && ent.tier() == tier
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
            if !self.lru_entry_is_live(entry, tier) {
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
                if !self.lru_entry_is_live(entry, tier) {
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
        let unit = space.unit_pages(head);
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
                self.quarantine(tier, pfn);
            }
        }
        self.clear_probed(
            pid,
            head,
            PageFlags::PRESENT
                | PageFlags::PROT_NONE
                | PageFlags::ACCESSED
                | PageFlags::DIRTY
                | PageFlags::DEMOTED
                | PageFlags::CANDIDATE
                | PageFlags::POISONED,
        );
        let e = self.procs[pid.0 as usize].space.entry_mut(head);
        e.flags.set(PageFlags::SWAPPED);
        self.lru_remove(pid, head);
        self.procs[pid.0 as usize].resident_frames -= unit;
        self.stats.swapped_out_pages += unit as u64;
        self.stats.kernel_time += self.cfg.swap().writeback_per_page.scale(unit as u64);
        Ok(unit)
    }

    /// Emergency demand-side backstop: every healthy tier is full — a
    /// failure domain is evacuating or offline and the survivors absorbed
    /// its pages — so reclaim swaps victims out of the slowest healthy tier
    /// until the allocation fits. Fault-free runs never come here (capacity
    /// planning keeps the chain allocatable), so the path is digest-neutral
    /// for them; genuine OOM with nothing left to reclaim still panics.
    pub(super) fn reclaim_for_demand(&mut self, unit: u32) -> TierId {
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
}
