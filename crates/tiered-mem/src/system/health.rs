//! Tier failure domains: health transitions, live evacuation of a failing
//! tier, chain splicing and rejoin.

use sim_clock::Nanos;
use tiering_trace::TraceEvent;

use super::{MigrateError, MigrateMode, TieredSystem};
use crate::addr::{Pfn, ProcessId, Vpn};
use crate::fault::{DegradeWindow, TierEvent, TierEventKind};
use crate::page::PageFlags;
use crate::tier::{TierHealth, TierId};

impl TieredSystem {
    /// The nearest tier to `tier` that accepts pages, is reachable over
    /// the (possibly spliced) chain and has at least `room` free frames,
    /// preferring the slower side on distance ties — evacuation and
    /// soft-offline (`room` 0) both protect the fast tier first. `None`
    /// when no such tier exists (the swap backstop remains).
    pub(super) fn nearest_healthy(&self, tier: TierId, room: u32) -> Option<TierId> {
        let n = self.cfg.num_tiers();
        for d in 1..n {
            for cand in [tier.index() + d, tier.index().wrapping_sub(d)] {
                if cand < n
                    && self.health[cand].accepts_pages()
                    && self.route_allowed(tier, TierId(cand as u8))
                    && self.free_frames(TierId(cand as u8)) >= room
                {
                    return Some(TierId(cand as u8));
                }
            }
        }
        None
    }

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
                    self.degrade_channel(DegradeWindow {
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
            let unit = self.procs[owner.pid.0 as usize].space.unit_pages(head);
            match self.nearest_healthy(tier, unit) {
                Some(dest) if forced => {
                    // Synchronous force-drain: open and retire in one step
                    // (admission bypassed — see `begin_migrate_txn`). A
                    // refused open or a copy fault leaves the unit resident;
                    // spill it to swap so the tier still empties.
                    let moved = self.migrate_now(owner.pid, head, dest, MigrateMode::Async, true);
                    if moved.is_err() {
                        self.evac_spill(owner.pid, head, unit);
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
        self.note_capacity(tier, got, 0);
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
            self.note_capacity(TierId(t as u8), 0, restored);
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
    pub(super) fn service_tier_health(&mut self) {
        let now = self.clock.now();
        self.expire_degrades(now);
        self.finish_rejoins();
        for t in 0..self.cfg.num_tiers() {
            if matches!(self.health[t], TierHealth::Evacuating { .. }) {
                self.pump_evacuation(TierId(t as u8));
            }
        }
    }
}
