//! Capacity and the fault plan: scheduled capacity events, hotplug
//! shrink and grow with shrink debt, degrade windows and frame poisoning.

use sim_clock::Nanos;
use tiering_trace::TraceEvent;

use super::{MigrateMode, TieredSystem};
use crate::addr::Pfn;
use crate::fault::{CapacityKind, DegradeWindow, FaultPlan, FaultState};
use crate::page::PageFlags;
use crate::tier::TierId;
use crate::watermark::Watermarks;

impl TieredSystem {
    /// Fires capacity and tier events from the fault plan that are due at
    /// `now`, in each queue's firing order.
    pub(super) fn service_fault_plan(&mut self, now: Nanos) {
        let (capacity, tiers) = match &mut self.fault {
            Some(f) => (f.due_capacity_events(now), f.due_tier_events(now)),
            None => return,
        };
        for ev in capacity {
            match ev.kind {
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
    pub(super) fn drain_shrink_debt(&mut self) {
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
                self.note_capacity(TierId(t as u8), got, 0);
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

    /// Books a capacity change of `tier`: the lifetime offlined/restored
    /// counters, the fast-tier watermark rescale and the `Capacity` trace
    /// event.
    pub(super) fn note_capacity(&mut self, tier: TierId, offlined: u32, restored: u32) {
        self.stats.offlined_frames += offlined as u64;
        self.stats.restored_frames += restored as u64;
        if tier == TierId::FAST {
            self.rescale_watermarks();
        }
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
        self.shrink_debt[tier.index()] += frames - got;
        self.shrink_debt_total += (frames - got) as u64;
        self.note_capacity(tier, got, 0);
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
        self.note_capacity(tier, 0, restored);
        restored
    }

    /// Installs a channel-degradation window (fuzz ops and procfs-style
    /// knobs). Creates an inert fault state if no plan was configured.
    pub fn degrade_channel(&mut self, w: DegradeWindow) {
        self.fault
            .get_or_insert_with(|| FaultState::new(FaultPlan::inert(0)))
            .add_degrade_window(w);
    }

    /// Retires `pfn` of `tier` for good after an uncorrectable error: out of
    /// the offlined pool if a capacity shrink holds it, else out of the free
    /// pool. Counts and traces the quarantine.
    pub(super) fn quarantine(&mut self, tier: TierId, pfn: Pfn) {
        let table = &mut self.frames[tier.index()];
        if !table.quarantine_offlined(pfn) {
            table.quarantine(pfn);
        }
        self.stats.quarantined_frames += 1;
        self.trace
            .emit(self.clock.now(), || TraceEvent::Quarantine {
                tier: tier.index() as u8,
                pfn: pfn.0,
            });
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
        let table = &self.frames[tier.index()];
        if pfn.0 >= table.total() || table.is_quarantined(pfn) {
            return false;
        }
        // A free frame, or one offlined by a capacity shrink: not in
        // service, but a grow event must never bring it back.
        let Some(owner) = table.owner(pfn) else {
            self.quarantine(tier, pfn);
            return true;
        };
        let head = self.procs[owner.pid.0 as usize].space.pte_page(owner.vpn);
        // A reserved copy destination: the PTE does not point at it yet.
        if self.procs[owner.pid.0 as usize].space.entry(owner.vpn).pfn != pfn {
            self.abort_migration(owner.pid, head, false);
            self.quarantine(tier, pfn);
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
        if let Some(dest) = self.nearest_healthy(tier, 0) {
            let _ = self.migrate(owner.pid, base, dest, MigrateMode::Async);
        }
        true
    }
}
