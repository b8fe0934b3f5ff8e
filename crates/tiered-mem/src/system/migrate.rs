//! Migration: routing, the two phases of a transaction (begin, then
//! complete, fail or abort), the synchronous compat path, reclaim-backed
//! promotion and the completion pump.

use sim_clock::Nanos;
use tiering_trace::{MigrateDir, TraceEvent};

use super::TieredSystem;
use crate::addr::{ProcessId, Vpn, BASE_PAGE_BYTES};
use crate::fault::CopyFault;
use crate::frame::FrameOwner;
use crate::lru::LruKind;
use crate::migration::{MigrationTxn, MigrationTxnId};
use crate::page::PageFlags;
use crate::tier::{TierHealth, TierId};

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

    /// Dense index, in declaration order, for per-reason counter tables
    /// ([`crate::SystemStats::failed_fast_migrations`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
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

/// Trace direction of a migration from the edge it crosses: any move toward
/// the top of the chain is a promotion, any move down a demotion.
fn migrate_dir(from: TierId, to: TierId) -> MigrateDir {
    if to < from {
        MigrateDir::Promote
    } else {
        MigrateDir::Demote
    }
}

impl TieredSystem {
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

    pub(super) fn begin_migrate_txn(
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
            self.lru_insert(pid, head, LruKind::Inactive);
            return self.fail_migrate(to, MigrateError::TierOffline);
        }
        if !self.route_allowed(from, to) {
            return self.fail_migrate(to, MigrateError::NonAdjacent);
        }
        if entry.flags.has(PageFlags::MIGRATING) {
            return self.fail_migrate(to, MigrateError::Backpressure);
        }
        let unit = space.unit_pages(head);
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

        // Costs: copy time at the slower endpoint's bandwidth, on an
        // adjacent hop and on a spliced hop across `Offline` tiers alike,
        // plus a fixed remap cost per unit.
        let mut bw_time = self.cfg.chain.copy_time(from, to, unit as u64);
        if let Some(f) = &self.fault {
            // Channel degradation windows stretch the copy, not the fixed
            // remap cost — only bandwidth is degraded.
            bw_time = bw_time.scale_f64(f.cost_multiplier(to, now));
        }
        let cost = bw_time + self.cfg.cost.migrate_fixed;
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
                self.quarantine(from, old_pfn);
            }
            let e = self.procs[pid.0 as usize].space.entry_mut(v);
            e.pfn = dest_pfns[off as usize];
            e.flags.set_tier(to);
        }

        let promoted = to < from;
        let demoted = if promoted { PageFlags::DEMOTED } else { 0 };
        self.clear_probed(
            pid,
            head,
            PageFlags::MIGRATING
                | PageFlags::PROT_NONE
                | PageFlags::CANDIDATE
                | PageFlags::POISONED
                | demoted,
        );

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

    /// Retires one transaction whose copy is done: rolls the copy-fault
    /// dice (without a fault plan a single branch and zero RNG draws), then
    /// completes or fails it (`record` as for `fail_txn`).
    fn retire_txn(&mut self, txn: MigrationTxn, record: bool) -> Result<(), MigrateError> {
        let fault = match &mut self.fault {
            Some(f) => f.roll_copy_fault(),
            None => CopyFault::None,
        };
        if fault == CopyFault::None {
            self.complete_txn(txn);
            return Ok(());
        }
        self.fail_txn(txn, fault, record)
    }

    /// Applies a copy fault to a transaction popped from the engine: the
    /// destination reservation is released (on poison, one destination frame
    /// goes bad and is quarantined), the head's `MIGRATING` bit clears, and
    /// the source mapping stays authoritative. When `record` is set (async
    /// completion — the caller is gone) the failure is queued for
    /// [`TieredSystem::take_migration_failures`].
    fn fail_txn(
        &mut self,
        txn: MigrationTxn,
        fault: CopyFault,
        record: bool,
    ) -> Result<(), MigrateError> {
        let err = match fault {
            CopyFault::Transient => {
                self.stats.transient_copy_faults += 1;
                MigrateError::CopyFault
            }
            CopyFault::Poison => {
                self.stats.poisoned_copy_faults += 1;
                MigrateError::Poisoned
            }
            CopyFault::None => unreachable!("fail_txn called without a fault"),
        };
        self.release_reservation(&txn);
        if fault == CopyFault::Poison {
            self.quarantine(txn.to, txn.dest_pfns[0]);
        }
        if txn.evac {
            self.stats.evac_faulted_pages += txn.unit as u64;
        }
        self.trace.emit(self.clock.now(), || TraceEvent::CopyFault {
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
        self.fail_migrate(txn.to, err)
    }

    /// Drains the asynchronously failed migrations recorded since the last
    /// call. Policies use this to feed their retry machinery.
    pub fn take_migration_failures(&mut self) -> Vec<MigrationFailure> {
        std::mem::take(&mut self.failed_async)
    }

    /// Clears `PG_probed` and any other bits in `also` on the entry of
    /// `vpn`, logging the page for [`TieredSystem::take_probe_clears`] if
    /// `PG_probed` was set. Every clear of the bit, the substrate's own
    /// included, goes through this, so the log sees them all.
    pub fn clear_probed(&mut self, pid: ProcessId, vpn: Vpn, also: u16) {
        let e = self.procs[pid.0 as usize].space.entry_mut(vpn);
        let probed = e.flags.has(PageFlags::PROBED);
        e.flags.clear(PageFlags::PROBED | also);
        if probed {
            self.probe_clears.push((pid, vpn));
        }
    }

    /// Drains the PTE pages that lost `PG_probed` since the last call, in
    /// clear order. Four places clear the bit, all through
    /// [`TieredSystem::clear_probed`]: migration completion, `swap_out`, and
    /// the two policy clears. DCSC uses the log to drop completed
    /// or aborted probes without re-reading every outstanding one.
    pub fn take_probe_clears(&mut self) -> Vec<(ProcessId, Vpn)> {
        std::mem::take(&mut self.probe_clears)
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
            n += u32::from(self.retire_txn(txn, true).is_ok());
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
        self.release_reservation(&txn);
        if redirty {
            let e = self.procs[pid.0 as usize].space.entry_mut(head);
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
        self.migrate_now(pid, vpn, to, mode, false)
    }

    /// Opens a transaction and retires it in the same call: the compat
    /// [`TieredSystem::migrate`] and, with `evac`, the evacuation
    /// force-drain. Returns base pages moved.
    pub(super) fn migrate_now(
        &mut self,
        pid: ProcessId,
        vpn: Vpn,
        to: TierId,
        mode: MigrateMode,
        evac: bool,
    ) -> Result<u32, MigrateError> {
        let (id, unit) = self.begin_migrate_txn(pid, vpn, to, mode, evac)?;
        let txn = self.engine.remove_newest(id);
        // The caller is present and sees a copy fault directly, so the
        // failure is not queued for the async drain.
        self.retire_txn(txn, false).map(|()| unit)
    }

    /// Frees a transaction's reserved destination frames and clears its
    /// head's `MIGRATING` bit; the source mapping stays authoritative.
    fn release_reservation(&mut self, txn: &MigrationTxn) {
        for pfn in &txn.dest_pfns {
            self.frames[txn.to.index()].free(*pfn);
        }
        self.procs[txn.pid.0 as usize]
            .space
            .entry_mut(txn.head)
            .flags
            .clear(PageFlags::MIGRATING);
    }

    /// Splits the 2 MiB block containing `vpn` into base mappings. A split
    /// invalidates the in-flight unit, so any transaction on the block is
    /// aborted first. Policies must use this over raw
    /// [`crate::AddressSpace::split_block`] so the abort rule holds.
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
    /// [`crate::MigrationEngine::set_inflight_slots`]). The multi-tenant admission
    /// hook calls this at every barrier with the tenant's granted share.
    pub fn set_inflight_slots(&mut self, slots: usize) {
        self.engine.set_inflight_slots(slots);
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
        let unit = space.unit_pages(head);
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
}
