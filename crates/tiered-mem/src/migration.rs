//! Two-phase transactional page migration.
//!
//! The engine models what Nomad calls *transactional* migration: a copy
//! races with application writes and must be able to abort. A transaction
//! is opened by `TieredSystem::begin_migrate`, which reserves the
//! destination frames, marks the mapping unit's head with
//! [`crate::PageFlags::MIGRATING`], and enqueues the copy on the bandwidth
//! channel of the directed edge it crosses (a FIFO — copies are serviced in
//! admission order). The PTE keeps pointing at the *old* frames while the
//! copy is in flight, so reads hit the old copy; a write aborts the
//! transaction once its copy is *active* on the channel (a write to a
//! still-queued transaction lands in the source frames before the copy
//! reads them, so it merely re-dirties the unit);
//! `TieredSystem::complete_due_migrations` retires due transactions,
//! flipping the PTE to the reserved frames.
//!
//! Channels are keyed by *directed adjacent edge* of the tier chain: each
//! pair of adjacent tiers has an up channel (promotions into the faster
//! tier) and a down channel (demotions into the slower one), modelling
//! independent copy engines per link direction. On a two-tier chain that is
//! exactly the historical per-destination-tier pair — the up edge into tier
//! 0 is channel 0 and the down edge into tier 1 is channel 1 — so admission
//! order, backlog accounting and retire order are unchanged there.
//!
//! Admission control (TierBPF-style): the table is bounded by
//! [`crate::config::MigrationSpec::inflight_slots`] and each channel's
//! backlog by [`crate::config::MigrationSpec::backlog_cap`]; past either
//! bound `begin_migrate` rejects with `MigrateError::Backpressure`.
//!
//! The engine is pure bookkeeping: frame tables, PTEs, LRU lists, stats and
//! trace events stay owned by [`crate::TieredSystem`], which drives the
//! engine and applies the side effects of completion/abort itself.

use std::collections::VecDeque;

use sim_clock::Nanos;

use crate::addr::{Pfn, ProcessId, Vpn};
use crate::config::MigrationSpec;
use crate::system::MigrateMode;
use crate::tier::TierId;

/// Identifier of one in-flight migration transaction.
pub type MigrationTxnId = u64;

/// One in-flight migration transaction.
#[derive(Debug, Clone)]
pub struct MigrationTxn {
    /// Transaction id (monotonically assigned at `begin_migrate`).
    pub id: MigrationTxnId,
    /// Owning process.
    pub pid: ProcessId,
    /// Head page of the migrating mapping unit.
    pub head: Vpn,
    /// Source tier (where the PTE still points while in flight).
    pub from: TierId,
    /// Destination tier (where the reservation lives).
    pub to: TierId,
    /// Base pages in the unit (512 for an intact huge block).
    pub unit: u32,
    /// Reserved destination frames, one per base page in offset order.
    pub dest_pfns: Vec<Pfn>,
    /// Instant the channel starts this copy (it may queue behind others).
    pub start_at: Nanos,
    /// Instant the copy finishes on the destination channel.
    pub complete_at: Nanos,
    /// Whose time the copy was charged to.
    pub mode: MigrateMode,
    /// Whether this copy rides the emergency evacuation lane (draining a
    /// failing tier). Completion/abort accounting attributes these to the
    /// evacuation flow-conservation counters.
    pub evac: bool,
}

/// The directed-edge channel index for a migration `from → to` on a chain
/// of `n_tiers` managed tiers.
///
/// Adjacent edges between tiers `k` and `k+1` occupy channels `2k` (up,
/// into `k`) and `2k + 1` (down, into `k+1`); a chain of `n` tiers has
/// `2(n-1)` adjacent channels, and on a two-tier chain that is the old
/// destination-tier index. *Skip-pair* channels — splice edges crossing one
/// or more `Offline` tiers — are appended after them (all gap-2 pairs in
/// low-endpoint order, then gap-3, …) so they are digest-neutral whenever
/// empty: existing channel numbering, iteration order, and tie-breaks are
/// untouched.
#[inline]
fn channel_index(from: TierId, to: TierId, n_tiers: usize) -> usize {
    let (lo, hi) = (from.index().min(to.index()), from.index().max(to.index()));
    let gap = hi - lo;
    debug_assert!(gap >= 1 && hi < n_tiers, "migration must cross the chain");
    let down = usize::from(to > from);
    if gap == 1 {
        return 2 * lo + down;
    }
    let mut base = 2 * (n_tiers - 1);
    for g in 2..gap {
        base += 2 * (n_tiers - g);
    }
    base + 2 * lo + down
}

/// Total channel count for a chain of `n_tiers`: two directed channels per
/// (ordered-by-index) tier pair, adjacent and skip alike.
#[inline]
fn channel_count(n_tiers: usize) -> usize {
    n_tiers * (n_tiers - 1)
}

/// Bounded in-flight transaction table with per-edge bandwidth FIFOs.
#[derive(Debug)]
pub struct MigrationEngine {
    spec: MigrationSpec,
    next_id: MigrationTxnId,
    /// Per directed edge, transactions in admission (== completion) order.
    channels: Vec<VecDeque<MigrationTxn>>,
    /// When each edge's copy channel drains.
    busy_until: Vec<Nanos>,
    /// Reserved (allocated but not yet mapped) frames per tier.
    reserved: Vec<u32>,
    /// Earliest `complete_at` across all channel fronts (`Nanos::MAX` when
    /// all are empty). Kept current by every channel mutation so the
    /// per-access [`MigrationEngine::any_due`] probe is one compare instead
    /// of per-channel deque-front inspections.
    earliest_front: Nanos,
}

impl MigrationEngine {
    /// An empty engine with the given admission bounds, serving a chain of
    /// `n_tiers` managed tiers.
    pub fn new(spec: MigrationSpec, n_tiers: usize) -> MigrationEngine {
        debug_assert!(n_tiers >= 2);
        MigrationEngine {
            spec,
            next_id: 0,
            channels: vec![VecDeque::new(); channel_count(n_tiers)],
            busy_until: vec![Nanos::ZERO; channel_count(n_tiers)],
            reserved: vec![0; n_tiers],
            earliest_front: Nanos::MAX,
        }
    }

    /// Number of managed tiers this engine serves.
    #[inline]
    fn n_tiers(&self) -> usize {
        self.reserved.len()
    }

    /// Recomputes the cached earliest front completion; O(edges), called
    /// after any mutation that can change a channel front.
    fn refresh_earliest_front(&mut self) {
        self.earliest_front = self
            .channels
            .iter()
            .map(|c| c.front().map_or(Nanos::MAX, |t| t.complete_at))
            .min()
            .unwrap_or(Nanos::MAX);
    }

    /// The admission bounds the engine was built with.
    pub fn spec(&self) -> &MigrationSpec {
        &self.spec
    }

    /// Re-caps the in-flight slot budget. Used by the multi-tenant barrier
    /// scheduler to grant each shard its admission share for the next scan
    /// period; transactions already in flight above a lowered cap are not
    /// aborted — they drain, and `admits` stays false until they do.
    pub fn set_inflight_slots(&mut self, slots: usize) {
        self.spec.inflight_slots = slots;
    }

    /// Number of transactions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.channels.iter().map(VecDeque::len).sum()
    }

    /// Whether a new transaction may be admitted at `now` on the directed
    /// edge `from → to` (slot and backlog bounds both satisfied).
    pub fn admits(&self, from: TierId, to: TierId, now: Nanos) -> bool {
        self.in_flight() < self.spec.inflight_slots
            && self.backlog(from, to, now) <= self.spec.backlog_cap
    }

    /// Outstanding copy backlog on the directed edge `from → to`.
    pub fn backlog(&self, from: TierId, to: TierId, now: Nanos) -> Nanos {
        self.busy_until[channel_index(from, to, self.n_tiers())].saturating_sub(now)
    }

    /// In-flight evacuation-lane pages (units still being drained off a
    /// failing tier). Part of the evacuation flow-conservation invariant:
    /// `evacuated == rehomed + swapped + faulted + in_flight_evac`.
    pub fn in_flight_evac_pages(&self) -> u64 {
        self.iter().filter(|t| t.evac).map(|t| t.unit as u64).sum()
    }

    /// The largest outstanding backlog across all edge channels.
    pub fn max_backlog(&self, now: Nanos) -> Nanos {
        self.busy_until
            .iter()
            .map(|b| b.saturating_sub(now))
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Reserved destination frames held by in-flight transactions in `tier`.
    pub fn reserved_frames(&self, tier: TierId) -> u32 {
        self.reserved[tier.index()]
    }

    /// Iterates all in-flight transactions (channel order — top edge's up
    /// channel first — then admission order within a channel): deterministic.
    pub fn iter(&self) -> impl Iterator<Item = &MigrationTxn> {
        self.channels.iter().flatten()
    }

    /// The transaction migrating the unit headed by `(pid, head)`, if any.
    pub fn find(&self, pid: ProcessId, head: Vpn) -> Option<MigrationTxnId> {
        self.iter()
            .find(|t| t.pid == pid && t.head == head)
            .map(|t| t.id)
    }

    /// Whether the copy for `(pid, head)` is *active* at `now` — i.e. the
    /// channel has started reading the source. A write only conflicts with
    /// an active copy; while the transaction is still queued behind the
    /// channel backlog the store simply lands in the source frames and will
    /// be carried over when the copy eventually runs.
    pub fn copy_started(&self, pid: ProcessId, head: Vpn, now: Nanos) -> bool {
        self.iter()
            .any(|t| t.pid == pid && t.head == head && t.start_at <= now)
    }

    /// Admits a transaction whose copy costs `cost` on the edge channel.
    /// `Sync` transactions are due immediately (the waiter already paid for
    /// the copy in its own context); `Async` ones queue FIFO behind the
    /// channel's backlog. Returns the transaction id.
    ///
    /// The caller has already performed admission checks ([`Self::admits`])
    /// and reserved `dest_pfns` in the destination frame table. `evac = true`
    /// marks the copy as emergency evacuation traffic for flow-conservation
    /// accounting.
    /// Evacuation copies still queue FIFO on their edge channel — the
    /// "priority" of the lane is that the pump issues them ahead of policy
    /// traffic, not that they preempt copies already admitted.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_lane(
        &mut self,
        pid: ProcessId,
        head: Vpn,
        from: TierId,
        to: TierId,
        unit: u32,
        dest_pfns: Vec<Pfn>,
        mode: MigrateMode,
        cost: Nanos,
        now: Nanos,
        evac: bool,
    ) -> MigrationTxnId {
        debug_assert_eq!(dest_pfns.len(), unit as usize);
        let id = self.next_id;
        self.next_id += 1;
        let chan = channel_index(from, to, self.n_tiers());
        let (start_at, complete_at) = match mode {
            MigrateMode::Sync(_) => (now, now),
            MigrateMode::Async => {
                let start = self.busy_until[chan].max(now);
                let done = start + cost;
                self.busy_until[chan] = done;
                (start, done)
            }
        };
        self.reserved[to.index()] += unit;
        self.channels[chan].push_back(MigrationTxn {
            id,
            pid,
            head,
            from,
            to,
            unit,
            dest_pfns,
            start_at,
            complete_at,
            mode,
            evac,
        });
        self.refresh_earliest_front();
        id
    }

    /// Whether any channel's front transaction is complete by `now` — the
    /// O(1) early-out [`TieredSystem::complete_due_migrations`] takes on
    /// every access before touching the retire machinery.
    ///
    /// [`TieredSystem::complete_due_migrations`]: ../system/struct.TieredSystem.html
    #[inline]
    pub fn any_due(&self, now: Nanos) -> bool {
        self.earliest_front <= now
    }

    /// Removes and returns the transaction with the earliest `complete_at`
    /// that is due at `now`, releasing its reservation accounting (the
    /// caller maps or frees the reserved frames). Ties break toward the
    /// lowest channel index so the retire order is deterministic; on a
    /// two-tier chain that is the historical fast-channel-first order.
    pub fn pop_due(&mut self, now: Nanos) -> Option<MigrationTxn> {
        let chosen = self
            .channels
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                c.front()
                    .map(|t| t.complete_at)
                    .filter(|&t| t <= now)
                    .map(|t| (i, t))
            })
            // min_by_key on (complete_at, index) keeps the first (lowest
            // index) channel among ties because min_by_key keeps the
            // earliest element on equal keys.
            .min_by_key(|&(_, t)| t)
            .map(|(i, _)| i)?;
        let txn = self.channels[chosen]
            .pop_front()
            .expect("front checked due");
        self.reserved[txn.to.index()] -= txn.unit;
        self.refresh_earliest_front();
        Some(txn)
    }

    /// Removes the transaction `id` from the table regardless of its
    /// deadline (force-completion by the compat wrapper, or an abort). The
    /// channel's scheduled bandwidth is *not* refunded — an aborted copy
    /// still occupied the link. Releases reservation accounting.
    pub fn remove(&mut self, id: MigrationTxnId) -> Option<MigrationTxn> {
        for chan in &mut self.channels {
            if let Some(pos) = chan.iter().position(|t| t.id == id) {
                let txn = chan.remove(pos).expect("position just found");
                self.reserved[txn.to.index()] -= txn.unit;
                self.refresh_earliest_front();
                return Some(txn);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eng(slots: usize, cap_millis: u64) -> MigrationEngine {
        MigrationEngine::new(
            MigrationSpec {
                inflight_slots: slots,
                backlog_cap: Nanos::from_millis(cap_millis),
            },
            2,
        )
    }

    fn other(t: TierId) -> TierId {
        TierId(1 - t.0)
    }

    fn begin_one(e: &mut MigrationEngine, id_vpn: u32, to: TierId, cost: Nanos) -> MigrationTxnId {
        e.begin_lane(
            ProcessId(0),
            Vpn(id_vpn),
            other(to),
            to,
            1,
            vec![Pfn(id_vpn)],
            MigrateMode::Async,
            cost,
            Nanos::ZERO,
            false,
        )
    }

    #[test]
    fn two_tier_channels_match_destination_indexing() {
        // Byte-compat contract: on two tiers the directed-edge channels are
        // exactly the historical per-destination pair.
        assert_eq!(channel_index(TierId::SLOW, TierId::FAST, 4), 0);
        assert_eq!(channel_index(TierId::FAST, TierId::SLOW, 4), 1);
        // Deeper edges extend past them without renumbering.
        assert_eq!(channel_index(TierId(2), TierId(1), 4), 2);
        assert_eq!(channel_index(TierId(1), TierId(2), 4), 3);
        assert_eq!(channel_index(TierId(3), TierId(2), 4), 4);
        assert_eq!(channel_index(TierId(2), TierId(3), 4), 5);
    }

    #[test]
    fn skip_pair_channels_append_after_adjacent_ones() {
        // A 3-chain: 4 adjacent channels, then the single gap-2 pair.
        assert_eq!(channel_count(2), 2);
        assert_eq!(channel_count(3), 6);
        assert_eq!(channel_index(TierId(2), TierId(0), 3), 4);
        assert_eq!(channel_index(TierId(0), TierId(2), 3), 5);
        // A 4-chain: 6 adjacent, gap-2 pairs (0,2) and (1,3), then (0,3).
        assert_eq!(channel_count(4), 12);
        assert_eq!(channel_index(TierId(2), TierId(0), 4), 6);
        assert_eq!(channel_index(TierId(0), TierId(2), 4), 7);
        assert_eq!(channel_index(TierId(3), TierId(1), 4), 8);
        assert_eq!(channel_index(TierId(1), TierId(3), 4), 9);
        assert_eq!(channel_index(TierId(3), TierId(0), 4), 10);
        assert_eq!(channel_index(TierId(0), TierId(3), 4), 11);
        // Every (from, to, n) maps to a distinct in-range channel.
        for n in 2..=4usize {
            let mut seen = std::collections::BTreeSet::new();
            for from in 0..n as u8 {
                for to in 0..n as u8 {
                    if from == to {
                        continue;
                    }
                    let c = channel_index(TierId(from), TierId(to), n);
                    assert!(c < channel_count(n));
                    assert!(seen.insert(c), "channel {c} reused");
                }
            }
            assert_eq!(seen.len(), channel_count(n));
        }
    }

    #[test]
    fn splice_channels_carry_copies_across_an_offline_tier() {
        let mut e = MigrationEngine::new(
            MigrationSpec {
                inflight_slots: 8,
                backlog_cap: Nanos::from_millis(100),
            },
            3,
        );
        // Tier 1 offline: the splice edge 2 → 0 carries the copy.
        let id = e.begin_lane(
            ProcessId(0),
            Vpn(9),
            TierId(2),
            TierId(0),
            1,
            vec![Pfn(9)],
            MigrateMode::Async,
            Nanos(120),
            Nanos::ZERO,
            true,
        );
        assert_eq!(e.backlog(TierId(2), TierId(0), Nanos::ZERO), Nanos(120));
        // Adjacent channels stay idle: the splice lane is its own FIFO.
        assert_eq!(e.backlog(TierId(2), TierId(1), Nanos::ZERO), Nanos::ZERO);
        assert_eq!(e.backlog(TierId(1), TierId(0), Nanos::ZERO), Nanos::ZERO);
        assert_eq!(e.in_flight_evac_pages(), 1);
        assert_eq!(e.reserved_frames(TierId(0)), 1);
        let txn = e.pop_due(Nanos(120)).unwrap();
        assert_eq!(txn.id, id);
        assert!(txn.evac);
        assert_eq!(e.in_flight_evac_pages(), 0);
    }

    #[test]
    fn channels_are_fifo_and_backlog_accumulates() {
        let mut e = eng(8, 100);
        let a = begin_one(&mut e, 1, TierId::FAST, Nanos(100));
        let b = begin_one(&mut e, 2, TierId::FAST, Nanos(100));
        assert_eq!(e.in_flight(), 2);
        assert_eq!(
            e.backlog(TierId::SLOW, TierId::FAST, Nanos::ZERO),
            Nanos(200)
        );
        assert_eq!(
            e.backlog(TierId::FAST, TierId::SLOW, Nanos::ZERO),
            Nanos::ZERO
        );
        assert_eq!(e.max_backlog(Nanos::ZERO), Nanos(200));
        assert!(e.pop_due(Nanos(99)).is_none());
        assert_eq!(e.pop_due(Nanos(100)).unwrap().id, a);
        assert!(e.pop_due(Nanos(100)).is_none());
        assert_eq!(e.pop_due(Nanos(500)).unwrap().id, b);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn pop_due_orders_across_channels() {
        let mut e = eng(8, 100);
        let slow = begin_one(&mut e, 1, TierId::SLOW, Nanos(50));
        let fast = begin_one(&mut e, 2, TierId::FAST, Nanos(80));
        assert_eq!(e.pop_due(Nanos(1000)).unwrap().id, slow);
        assert_eq!(e.pop_due(Nanos(1000)).unwrap().id, fast);
    }

    #[test]
    fn pop_due_tie_breaks_toward_lowest_channel() {
        let mut e = eng(8, 100);
        let down = begin_one(&mut e, 1, TierId::SLOW, Nanos(60));
        let up = begin_one(&mut e, 2, TierId::FAST, Nanos(60));
        // Same completion instant on both channels: the up channel (index 0)
        // — historically the fast channel — wins.
        assert_eq!(e.pop_due(Nanos(60)).unwrap().id, up);
        assert_eq!(e.pop_due(Nanos(60)).unwrap().id, down);
    }

    #[test]
    fn admission_bounds() {
        let mut e = eng(2, 0);
        assert!(e.admits(TierId::SLOW, TierId::FAST, Nanos::ZERO));
        begin_one(&mut e, 1, TierId::FAST, Nanos(10));
        // Zero backlog cap: the queued copy already exceeds it.
        assert!(!e.admits(TierId::SLOW, TierId::FAST, Nanos::ZERO));
        // The other channel is idle, but a second txn still fits the slots.
        assert!(e.admits(TierId::FAST, TierId::SLOW, Nanos::ZERO));
        begin_one(&mut e, 2, TierId::SLOW, Nanos(10));
        assert!(
            !e.admits(TierId::FAST, TierId::SLOW, Nanos::ZERO),
            "slots exhausted"
        );
    }

    #[test]
    fn any_due_cache_tracks_begin_pop_and_remove() {
        let mut e = eng(8, 100);
        assert!(!e.any_due(Nanos(u64::MAX - 1)), "empty engine never due");
        let a = begin_one(&mut e, 1, TierId::FAST, Nanos(100));
        let b = begin_one(&mut e, 2, TierId::SLOW, Nanos(40));
        assert!(!e.any_due(Nanos(39)));
        assert!(e.any_due(Nanos(40)), "slow front due at its completion");
        assert_eq!(e.pop_due(Nanos(40)).unwrap().id, b);
        assert!(!e.any_due(Nanos(40)), "cache advanced to the fast front");
        assert!(e.any_due(Nanos(100)));
        assert!(e.remove(a).is_some());
        assert!(!e.any_due(Nanos(u64::MAX - 1)), "cache reset on removal");
    }

    #[test]
    fn remove_releases_reservation_without_refunding_bandwidth() {
        let mut e = eng(8, 100);
        let id = begin_one(&mut e, 7, TierId::FAST, Nanos(300));
        assert_eq!(e.reserved_frames(TierId::FAST), 1);
        let txn = e.remove(id).unwrap();
        assert_eq!(txn.dest_pfns, vec![Pfn(7)]);
        assert_eq!(e.reserved_frames(TierId::FAST), 0);
        assert_eq!(e.in_flight(), 0);
        // Bandwidth stays consumed.
        assert_eq!(
            e.backlog(TierId::SLOW, TierId::FAST, Nanos::ZERO),
            Nanos(300)
        );
        assert!(e.remove(id).is_none());
    }

    #[test]
    fn sync_transactions_are_due_immediately_and_skip_the_channel() {
        let mut e = eng(8, 100);
        e.begin_lane(
            ProcessId(1),
            Vpn(3),
            TierId::SLOW,
            TierId::FAST,
            1,
            vec![Pfn(0)],
            MigrateMode::Sync(ProcessId(1)),
            Nanos(500),
            Nanos(40),
            false,
        );
        assert_eq!(
            e.backlog(TierId::SLOW, TierId::FAST, Nanos(40)),
            Nanos::ZERO
        );
        let txn = e.pop_due(Nanos(40)).unwrap();
        assert_eq!(txn.complete_at, Nanos(40));
    }

    #[test]
    fn find_locates_in_flight_heads() {
        let mut e = eng(8, 100);
        let id = begin_one(&mut e, 42, TierId::FAST, Nanos(10));
        assert_eq!(e.find(ProcessId(0), Vpn(42)), Some(id));
        assert_eq!(e.find(ProcessId(0), Vpn(41)), None);
        assert_eq!(e.find(ProcessId(1), Vpn(42)), None);
    }

    #[test]
    fn three_tier_edges_are_independent_channels() {
        let mut e = MigrationEngine::new(
            MigrationSpec {
                inflight_slots: 8,
                backlog_cap: Nanos::from_millis(100),
            },
            3,
        );
        // One copy on each directed edge of the 3-chain.
        e.begin_lane(
            ProcessId(0),
            Vpn(1),
            TierId(2),
            TierId(1),
            1,
            vec![Pfn(1)],
            MigrateMode::Async,
            Nanos(70),
            Nanos::ZERO,
            false,
        );
        e.begin_lane(
            ProcessId(0),
            Vpn(2),
            TierId(1),
            TierId(2),
            1,
            vec![Pfn(2)],
            MigrateMode::Async,
            Nanos(90),
            Nanos::ZERO,
            false,
        );
        let top = begin_one(&mut e, 3, TierId::FAST, Nanos(30));
        // Backlogs accumulate per edge, not per destination tier.
        assert_eq!(e.backlog(TierId(2), TierId(1), Nanos::ZERO), Nanos(70));
        assert_eq!(e.backlog(TierId(1), TierId(2), Nanos::ZERO), Nanos(90));
        assert_eq!(
            e.backlog(TierId::SLOW, TierId::FAST, Nanos::ZERO),
            Nanos(30)
        );
        assert_eq!(e.max_backlog(Nanos::ZERO), Nanos(90));
        // Each transaction reserves its destination frames in that tier.
        assert_eq!(e.reserved_frames(TierId::FAST), 1);
        assert_eq!(e.reserved_frames(TierId(1)), 1);
        assert_eq!(e.reserved_frames(TierId(2)), 1);
        // Earliest completion wins regardless of which edge carries it.
        assert_eq!(e.pop_due(Nanos(1000)).unwrap().id, top);
        assert_eq!(e.pop_due(Nanos(1000)).unwrap().head, Vpn(1));
        assert_eq!(e.pop_due(Nanos(1000)).unwrap().head, Vpn(2));
    }
}
