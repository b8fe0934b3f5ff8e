//! The substrate invariant oracle.
//!
//! [`InvariantOracle::check`] walks a [`TieredSystem`] and returns every
//! violated invariant. It is pure observation — no mutation, deterministic
//! output order — so it can run after every step of a fuzzed schedule. The
//! invariants are the ones page migration must never break (the class of
//! bug Nomad's transactional migration exists to prevent): frame
//! conservation, reverse-map agreement, PFN exclusivity, LRU/residency
//! consistency, watermark ordering, and migration-accounting identities.

use std::collections::HashMap;
use std::fmt;

use chrono_core::{QueueFlow, RetryFlow};
use tiered_mem::{
    FrameOwner, LruKind, PageFlags, Pfn, ProcessId, TierHealth, TierId, TieredSystem, Vpn,
    BASE_PAGE_BYTES, HUGE_2M_PAGES, MAX_TIERS,
};

/// One violated invariant, with enough detail to debug the failing state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the invariant (used in reports and assertions).
    pub invariant: &'static str,
    /// Human-readable specifics: which page/frame/counter disagreed and how.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Checks every substrate invariant against a system snapshot.
#[derive(Debug, Default)]
pub struct InvariantOracle {
    /// Snapshots checked so far (for fuzz-run reporting).
    pub checks: u64,
}

impl InvariantOracle {
    /// Creates an oracle with a zeroed check counter.
    pub fn new() -> InvariantOracle {
        InvariantOracle::default()
    }

    /// Runs every invariant against `sys`; returns all violations found
    /// (empty means the snapshot is consistent).
    pub fn check(&mut self, sys: &TieredSystem) -> Vec<Violation> {
        self.checks += 1;
        let mut out = Vec::new();
        self.check_frame_conservation(sys, &mut out);
        self.check_page_tables(sys, &mut out);
        self.check_migrations(sys, &mut out);
        self.check_flag_words(sys, &mut out);
        self.check_lru(sys, &mut out);
        self.check_watermarks(sys, &mut out);
        self.check_stats(sys, &mut out);
        self.check_fault_quarantine(sys, &mut out);
        self.check_tier_health(sys, &mut out);
        out
    }

    /// Failure-domain invariants: a tier that has gone `Offline` holds no
    /// residency whatsoever (evacuation must have drained it — pages,
    /// reservations, everything), and the emergency evacuation lane
    /// conserves flow: every evacuated unit is rehomed on a healthy tier,
    /// spilled to swap, lost to a copy fault (and re-issued), or still in
    /// flight.
    fn check_tier_health(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        let offline: Vec<TierId> = sys
            .config()
            .chain
            .ids()
            .filter(|&t| sys.tier_health(t) == TierHealth::Offline)
            .collect();
        for &tier in &offline {
            if sys.used_frames(tier) != 0 {
                out.push(Violation {
                    invariant: "tier_offline_residency",
                    detail: format!(
                        "{tier:?} is Offline but still holds {} used frames",
                        sys.used_frames(tier)
                    ),
                });
            }
        }
        // Walk direction: no PTE may claim residency in an offline tier
        // (catches tier-bit corruption the frame table cannot see). One
        // violation per offline tier keeps the report bounded.
        if !offline.is_empty() {
            for &tier in &offline {
                'walk: for pid in sys.pids() {
                    let space = &sys.process(pid).space;
                    for v in 0..space.pages() {
                        let e = space.entry(Vpn(v));
                        if !e.pfn.is_none() && e.tier() == tier {
                            out.push(Violation {
                                invariant: "tier_offline_residency",
                                detail: format!(
                                    "pid {} vpn {} claims residency in Offline {tier:?}",
                                    pid.0, v
                                ),
                            });
                            break 'walk;
                        }
                    }
                }
            }
        }
        let s = &sys.stats;
        let accounted = s.evac_rehomed_pages
            + s.evac_swapped_pages
            + s.evac_faulted_pages
            + sys.in_flight_evac_pages();
        if s.evacuated_pages != accounted {
            out.push(Violation {
                invariant: "evac_flow",
                detail: format!(
                    "evacuated {} != rehomed {} + swapped {} + faulted {} + in-flight {}",
                    s.evacuated_pages,
                    s.evac_rehomed_pages,
                    s.evac_swapped_pages,
                    s.evac_faulted_pages,
                    sys.in_flight_evac_pages()
                ),
            });
        }
    }

    /// Fault-injection bookkeeping: quarantined frames are permanently out
    /// of service — never on a free list, never owned by a mapping, never
    /// reserved by an in-flight copy (ownership covers both) — the
    /// quarantine counter matches the pools exactly, and offlined-frame
    /// flow balances: every offlined frame is still offline, restored, or
    /// was quarantined in place (that remainder bounded by the quarantine
    /// counter).
    fn check_fault_quarantine(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        let mut quarantined_now = 0u64;
        for tier in sys.config().chain.ids() {
            for pfn in sys.quarantined_pfns(tier) {
                quarantined_now += 1;
                if sys.frame_is_free(tier, pfn) {
                    out.push(Violation {
                        invariant: "quarantine_isolation",
                        detail: format!(
                            "{tier:?} pfn {} is quarantined but sits on the free list",
                            pfn.0
                        ),
                    });
                }
                if let Some(owner) = sys.frame_owner(tier, pfn) {
                    out.push(Violation {
                        invariant: "quarantine_isolation",
                        detail: format!(
                            "{tier:?} pfn {} is quarantined but owned by pid {} vpn {}",
                            pfn.0, owner.pid.0, owner.vpn.0
                        ),
                    });
                }
            }
        }
        let s = &sys.stats;
        if s.quarantined_frames != quarantined_now {
            out.push(Violation {
                invariant: "quarantine_conservation",
                detail: format!(
                    "stats.quarantined_frames {} != {} frames in quarantine pools",
                    s.quarantined_frames, quarantined_now
                ),
            });
        }
        // Offlined frames can sit in any tier: capacity shrink targets one
        // tier at a time and a whole-tier offline empties its frame pool.
        let current: u64 = sys
            .config()
            .chain
            .ids()
            .map(|t| sys.offlined_frames(t) as u64)
            .sum();
        let outflow = s.restored_frames + current;
        if s.offlined_frames < outflow || s.offlined_frames - outflow > s.quarantined_frames {
            out.push(Violation {
                invariant: "offline_flow",
                detail: format!(
                    "offlined {} !~ restored {} + currently-offline {} (+ quarantined {})",
                    s.offlined_frames, s.restored_frames, current, s.quarantined_frames
                ),
            });
        }
    }

    /// Checks retry-pool flow conservation
    /// (`failed == retried + abandoned + pending`).
    pub fn check_retry_flow(flow: &RetryFlow) -> Option<Violation> {
        if flow.conserved() {
            None
        } else {
            Some(Violation {
                invariant: "retry_flow",
                detail: format!(
                    "failed {} != retried {} + abandoned {} + pending {}",
                    flow.failed, flow.retried, flow.abandoned, flow.pending
                ),
            })
        }
    }

    /// The runtime ⊆ static bridge check: every flag word in every page
    /// table must be inside the reachable set the tiering-analysis model
    /// checker enumerated from the declared transition relation. A word
    /// outside it means either the substrate performed a transition the
    /// model does not declare (a lifecycle bug or an undocumented
    /// behaviour) or the model's guards drifted from the code.
    fn check_flag_words(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        for pid in sys.pids() {
            let space = &sys.process(pid).space;
            for v in 0..space.pages() {
                let e = space.entry(Vpn(v));
                let word = e.flags.bits();
                if !tiering_analysis::flag_word_reachable(word) {
                    out.push(Violation {
                        invariant: "flags_reachable",
                        detail: format!(
                            "pid {} vpn {} holds statically unreachable flag word {:#06x} ({})",
                            pid.0,
                            v,
                            word,
                            e.flags.describe()
                        ),
                    });
                }
            }
        }
    }

    /// Panics with a readable report if any invariant is violated. Meant for
    /// tests where a violation is a hard failure.
    pub fn assert_clean(&mut self, sys: &TieredSystem, context: &str) {
        let violations = self.check(sys);
        if !violations.is_empty() {
            let mut msg = format!("invariant violations ({context}):\n");
            for v in &violations {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }

    /// Checks promotion-queue flow conservation
    /// (`offered == dequeued + dropped + queued`).
    pub fn check_queue_flow(flow: &QueueFlow) -> Option<Violation> {
        if flow.conserved() {
            None
        } else {
            Some(Violation {
                invariant: "queue_flow",
                detail: format!(
                    "offered {} != dequeued {} + dropped {} + queued {}",
                    flow.offered_pages, flow.dequeued_pages, flow.dropped_pages, flow.queued_pages
                ),
            })
        }
    }

    /// `used + free == total` per tier (frame-table internal consistency).
    fn check_frame_conservation(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        for tier in sys.config().chain.ids() {
            let used = sys.used_frames(tier);
            let free = sys.free_frames(tier);
            let total = sys.total_frames(tier);
            if used + free != total {
                out.push(Violation {
                    invariant: "frame_conservation",
                    detail: format!("{tier:?}: used {used} + free {free} != total {total}"),
                });
            }
        }
    }

    /// Walks every page table: each resident base page maps a distinct,
    /// in-range PFN whose reverse-map entry points straight back; per-tier
    /// residency counts agree with the frame tables and the cached
    /// process/space counters; present huge blocks are fully resident in one
    /// tier.
    fn check_page_tables(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        // PFN numbering spans the raw frame space: capacity shrink and
        // quarantine reduce the usable count without renumbering survivors.
        let tiers: Vec<TierId> = sys.config().chain.ids().collect();
        let totals: Vec<u32> = tiers.iter().map(|&t| sys.raw_frames(t)).collect();
        // One mapping seen per frame, per tier: `mapped_by[tier][pfn]`.
        let mut mapped_by: Vec<Vec<Option<(ProcessId, Vpn)>>> =
            totals.iter().map(|&n| vec![None; n as usize]).collect();
        let mut counted = vec![0u32; tiers.len()];

        for pid in sys.pids() {
            let space = &sys.process(pid).space;
            let mut resident_here = [0u32; MAX_TIERS];
            for v in 0..space.pages() {
                let vpn = Vpn(v);
                let e = space.entry(vpn);
                if e.pfn.is_none() {
                    continue;
                }
                let tier = e.tier();
                let ti = tier.index();
                resident_here[ti] += 1;
                counted[ti] += 1;
                if e.pfn.0 >= totals[ti] {
                    out.push(Violation {
                        invariant: "pfn_in_range",
                        detail: format!(
                            "pid {} vpn {} maps out-of-range {:?} in {tier:?}",
                            pid.0, v, e.pfn
                        ),
                    });
                    continue;
                }
                if let Some((opid, ovpn)) = mapped_by[ti][e.pfn.0 as usize] {
                    out.push(Violation {
                        invariant: "pfn_exclusive",
                        detail: format!(
                            "{tier:?} pfn {} mapped by pid {} vpn {} and pid {} vpn {}",
                            e.pfn.0, opid.0, ovpn.0, pid.0, v
                        ),
                    });
                } else {
                    mapped_by[ti][e.pfn.0 as usize] = Some((pid, vpn));
                }
                let expected = FrameOwner { pid, vpn };
                match sys.frame_owner(tier, Pfn(e.pfn.0)) {
                    Some(owner) if owner == expected => {}
                    other => out.push(Violation {
                        invariant: "reverse_map",
                        detail: format!(
                            "{tier:?} pfn {}: owner {:?}, but mapped by pid {} vpn {}",
                            e.pfn.0, other, pid.0, v
                        ),
                    }),
                }
            }

            let cached = space.resident_pages();
            if cached != resident_here {
                out.push(Violation {
                    invariant: "residency_cache",
                    detail: format!(
                        "pid {}: space counts {:?}, page walk counts {:?}",
                        pid.0, cached, resident_here
                    ),
                });
            }
            let proc_frames = sys.process(pid).resident_frames;
            let walked: u32 = resident_here.iter().sum();
            if proc_frames != walked {
                out.push(Violation {
                    invariant: "residency_cache",
                    detail: format!(
                        "pid {}: process.resident_frames {} != walked {}",
                        pid.0, proc_frames, walked
                    ),
                });
            }

            // Present, unsplit huge blocks are fully resident in one tier.
            if space.is_huge() {
                let mut head = 0u32;
                while head < space.pages() {
                    let hv = Vpn(head);
                    if space.is_huge_mapped(hv) && space.entry(hv).present() {
                        let tier = space.entry(hv).tier();
                        for off in 0..HUGE_2M_PAGES {
                            let e = space.entry(Vpn(head + off));
                            if e.pfn.is_none() || e.tier() != tier {
                                out.push(Violation {
                                    invariant: "huge_block_integrity",
                                    detail: format!(
                                        "pid {} block @{head}: base page {} not in {tier:?}",
                                        pid.0,
                                        head + off
                                    ),
                                });
                            }
                        }
                    }
                    head += HUGE_2M_PAGES;
                }
            }
        }

        // Frames-side conservation: every used frame is either mapped
        // exactly once or reserved by exactly one in-flight migration.
        for &tier in &tiers {
            let used = sys.used_frames(tier);
            let reserved = sys.migration_reserved_frames(tier);
            if counted[tier.index()] + reserved != used {
                out.push(Violation {
                    invariant: "frame_conservation",
                    detail: format!(
                        "{tier:?}: page walk found {} resident pages + {} reserved, \
                         frame table has {} used",
                        counted[tier.index()],
                        reserved,
                        used
                    ),
                });
            }
        }
    }

    /// Two-phase migration invariants: flow conservation
    /// (`begun == completed + aborted + in_flight`), reservation conservation
    /// (every transaction holds exactly `unit` distinct allocated destination
    /// frames that no PTE maps, and per-tier reservation sums agree), and the
    /// `MIGRATING` flag protocol (set on exactly the heads of in-flight
    /// transactions, which must be present and still resident in `from`).
    fn check_migrations(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        let s = &sys.stats;
        let in_flight = sys.migration_in_flight_count() as u64;
        let faulted = s.transient_copy_faults + s.poisoned_copy_faults;
        if s.begun_migrations != s.completed_migrations + s.aborted_migrations + faulted + in_flight
        {
            out.push(Violation {
                invariant: "migration_flow",
                detail: format!(
                    "begun {} != completed {} + aborted {} + faulted {} + in-flight {}",
                    s.begun_migrations,
                    s.completed_migrations,
                    s.aborted_migrations,
                    faulted,
                    in_flight
                ),
            });
        }

        let tiers: Vec<TierId> = sys.config().chain.ids().collect();
        let totals: Vec<u32> = tiers.iter().map(|&t| sys.raw_frames(t)).collect();
        let mut reserved_seen: Vec<Vec<bool>> =
            totals.iter().map(|&n| vec![false; n as usize]).collect();
        let mut sums = vec![0u32; tiers.len()];
        // Heads with an open transaction, for the page-walk direction below.
        let mut txn_heads: std::collections::BTreeSet<(u16, u32)> =
            std::collections::BTreeSet::new();

        for txn in sys.in_flight_migrations() {
            txn_heads.insert((txn.pid.0, txn.head.0));
            let e = sys.process(txn.pid).space.entry(txn.head);
            if !e.flags.has(PageFlags::MIGRATING) || !e.present() || e.tier() != txn.from {
                out.push(Violation {
                    invariant: "migrating_flag",
                    detail: format!(
                        "txn {} pid {} head {}: expected PRESENT|MIGRATING in {:?}, \
                         found {} in {:?}",
                        txn.id,
                        txn.pid.0,
                        txn.head.0,
                        txn.from,
                        e.flags.describe(),
                        e.tier()
                    ),
                });
            }
            if txn.dest_pfns.len() != txn.unit as usize {
                out.push(Violation {
                    invariant: "reservation_conservation",
                    detail: format!(
                        "txn {}: holds {} reserved frames for a {}-page unit",
                        txn.id,
                        txn.dest_pfns.len(),
                        txn.unit
                    ),
                });
            }
            sums[txn.to.index()] += txn.unit;
            let ti = txn.to.index();
            for (off, &pfn) in txn.dest_pfns.iter().enumerate() {
                if pfn.0 >= totals[ti] {
                    out.push(Violation {
                        invariant: "reservation_conservation",
                        detail: format!(
                            "txn {}: reserved pfn {} out of range for {:?}",
                            txn.id, pfn.0, txn.to
                        ),
                    });
                    continue;
                }
                if reserved_seen[ti][pfn.0 as usize] {
                    out.push(Violation {
                        invariant: "reservation_conservation",
                        detail: format!("{:?} pfn {} reserved by two transactions", txn.to, pfn.0),
                    });
                }
                reserved_seen[ti][pfn.0 as usize] = true;
                let expected = FrameOwner {
                    pid: txn.pid,
                    vpn: Vpn(txn.head.0 + off as u32),
                };
                match sys.frame_owner(txn.to, pfn) {
                    Some(owner) if owner == expected => {}
                    other => out.push(Violation {
                        invariant: "reservation_conservation",
                        detail: format!(
                            "txn {}: {:?} pfn {} owner {:?}, expected {:?}",
                            txn.id, txn.to, pfn.0, other, expected
                        ),
                    }),
                }
            }
        }

        for &tier in &tiers {
            let engine = sys.migration_reserved_frames(tier);
            if sums[tier.index()] != engine {
                out.push(Violation {
                    invariant: "reservation_conservation",
                    detail: format!(
                        "{tier:?}: transactions hold {} frames, engine accounts {}",
                        sums[tier.index()],
                        engine
                    ),
                });
            }
        }

        // Walk direction: a MIGRATING bit without an open transaction is a
        // leak (the abort/complete path forgot to clear it).
        for pid in sys.pids() {
            let space = &sys.process(pid).space;
            for v in 0..space.pages() {
                let e = space.entry(Vpn(v));
                if e.flags.has(PageFlags::MIGRATING) {
                    if !e.present() {
                        out.push(Violation {
                            invariant: "migrating_flag",
                            detail: format!("pid {} vpn {} is MIGRATING but not PRESENT", pid.0, v),
                        });
                    }
                    if !txn_heads.contains(&(pid.0, v)) {
                        out.push(Violation {
                            invariant: "migrating_flag",
                            detail: format!(
                                "pid {} vpn {} is MIGRATING with no open transaction",
                                pid.0, v
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Live LRU entries reference resident pages of their own tier, carry a
    /// list-kind flag matching the list they sit on, and no page is live on
    /// two lists of one tier at once.
    fn check_lru(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        for tier in sys.config().chain.ids() {
            let mut live: HashMap<(u16, u32), LruKind> = HashMap::new();
            for kind in [LruKind::Active, LruKind::Inactive] {
                for entry in sys.lru_entries(tier, kind) {
                    if !sys.lru_entry_is_live(*entry, tier) {
                        continue; // lazily deleted; discarded when it surfaces
                    }
                    let e = sys.process(entry.pid).space.entry(entry.vpn);
                    let flagged_active = e.flags.has(PageFlags::LRU_ACTIVE);
                    if flagged_active != (kind == LruKind::Active) {
                        out.push(Violation {
                            invariant: "lru_kind_flag",
                            detail: format!(
                                "{tier:?} {kind:?}: pid {} vpn {} has LRU_ACTIVE={flagged_active}",
                                entry.pid.0, entry.vpn.0
                            ),
                        });
                    }
                    if let Some(prev) = live.insert((entry.pid.0, entry.vpn.0), kind) {
                        out.push(Violation {
                            invariant: "lru_exclusive",
                            detail: format!(
                                "{tier:?}: pid {} vpn {} live on {prev:?} and {kind:?}",
                                entry.pid.0, entry.vpn.0
                            ),
                        });
                    }
                }
            }
        }
    }

    /// `min <= low <= high <= pro` must hold whenever the system is
    /// observable.
    fn check_watermarks(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        if !sys.watermarks.well_ordered() {
            out.push(Violation {
                invariant: "watermark_order",
                detail: format!("{:?}", sys.watermarks),
            });
        }
    }

    /// Counter identities: hint faults each cost a context switch, and
    /// migration bytes equal moved pages times the base page size — the
    /// huge-page and base-page accounting paths must agree on totals.
    fn check_stats(&self, sys: &TieredSystem, out: &mut Vec<Violation>) {
        let s = &sys.stats;
        if s.hint_faults > s.context_switches {
            out.push(Violation {
                invariant: "stats_context_switches",
                detail: format!(
                    "hint_faults {} > context_switches {}",
                    s.hint_faults, s.context_switches
                ),
            });
        }
        let moved = s.promoted_pages + s.demoted_pages;
        if s.migration_bytes != moved * BASE_PAGE_BYTES {
            out.push(Violation {
                invariant: "migration_accounting",
                detail: format!(
                    "migration_bytes {} != (promoted {} + demoted {}) * {}",
                    s.migration_bytes, s.promoted_pages, s.demoted_pages, BASE_PAGE_BYTES
                ),
            });
        }
        // Per-edge migration counters partition the totals exactly.
        let edge_promoted: u64 = s.promoted_per_edge.iter().sum();
        let edge_demoted: u64 = s.demoted_per_edge.iter().sum();
        if edge_promoted != s.promoted_pages || edge_demoted != s.demoted_pages {
            out.push(Violation {
                invariant: "migration_accounting",
                detail: format!(
                    "per-edge sums ({edge_promoted} promoted, {edge_demoted} demoted) != \
                     totals ({}, {})",
                    s.promoted_pages, s.demoted_pages
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{MigrateMode, PageSize, SystemConfig};

    fn small_sys() -> (TieredSystem, ProcessId) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 512));
        let pid = sys.add_process(256, PageSize::Base);
        (sys, pid)
    }

    #[test]
    fn fresh_and_exercised_systems_are_clean() {
        let (mut sys, pid) = small_sys();
        let mut oracle = InvariantOracle::new();
        assert!(oracle.check(&sys).is_empty());
        for v in 0..128 {
            sys.access(pid, Vpn(v), v % 3 == 0);
        }
        let _ = sys.migrate(pid, Vpn(0), TierId::SLOW, MigrateMode::Async);
        let _ = sys.promote_with_reclaim_to(pid, Vpn(0), TierId::FAST, MigrateMode::Async);
        let _ = sys.swap_out(pid, Vpn(1));
        oracle.assert_clean(&sys, "exercised");
        assert_eq!(oracle.checks, 2);
    }

    #[test]
    fn duplicate_pfn_is_caught() {
        let (mut sys, pid) = small_sys();
        sys.access(pid, Vpn(0), false);
        sys.access(pid, Vpn(1), false);
        // Corrupt: vpn 1 steals vpn 0's frame.
        let stolen = sys.process(pid).space.entry(Vpn(0)).pfn;
        sys.process_mut(pid).space.entry_mut(Vpn(1)).pfn = stolen;
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations.iter().any(|v| v.invariant == "pfn_exclusive"),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.invariant == "reverse_map"),
            "{violations:?}"
        );
    }

    #[test]
    fn residency_undercount_is_caught() {
        let (mut sys, pid) = small_sys();
        sys.access(pid, Vpn(0), false);
        sys.access(pid, Vpn(1), false);
        // Corrupt: drop a mapping without freeing its frame.
        sys.process_mut(pid).space.entry_mut(Vpn(1)).pfn = Pfn::NONE;
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "frame_conservation"),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.invariant == "residency_cache"),
            "{violations:?}"
        );
    }

    #[test]
    fn broken_watermarks_are_caught() {
        let (mut sys, _) = small_sys();
        sys.watermarks.pro = 0;
        sys.watermarks.high = 10;
        let violations = InvariantOracle::new().check(&sys);
        assert!(violations.iter().any(|v| v.invariant == "watermark_order"));
    }

    #[test]
    fn skewed_migration_bytes_are_caught() {
        let (mut sys, pid) = small_sys();
        sys.access(pid, Vpn(0), false);
        let _ = sys.migrate(pid, Vpn(0), TierId::SLOW, MigrateMode::Async);
        sys.stats.migration_bytes += 1;
        let violations = InvariantOracle::new().check(&sys);
        assert!(violations
            .iter()
            .any(|v| v.invariant == "migration_accounting"));
    }

    #[test]
    fn in_flight_and_retired_migration_states_are_clean() {
        let (mut sys, pid) = small_sys();
        let mut oracle = InvariantOracle::new();
        for v in 0..64 {
            sys.access(pid, Vpn(v), false);
        }
        // Open a demotion, check mid-flight, abort it with a write.
        sys.begin_migrate(pid, Vpn(0), TierId::SLOW, MigrateMode::Async)
            .unwrap();
        oracle.assert_clean(&sys, "demotion in flight");
        sys.access(pid, Vpn(0), true);
        oracle.assert_clean(&sys, "after write-abort");
        // Open another and let it retire.
        sys.begin_migrate(pid, Vpn(1), TierId::SLOW, MigrateMode::Async)
            .unwrap();
        sys.clock.advance(sim_clock::Nanos::from_millis(5));
        assert_eq!(sys.complete_due_migrations(), 1);
        oracle.assert_clean(&sys, "after completion");
    }

    #[test]
    fn leaked_migrating_flag_is_caught() {
        let (mut sys, pid) = small_sys();
        sys.access(pid, Vpn(0), false);
        sys.process_mut(pid)
            .space
            .entry_mut(Vpn(0))
            .flags
            .set(PageFlags::MIGRATING);
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations.iter().any(|v| v.invariant == "migrating_flag"),
            "{violations:?}"
        );
    }

    #[test]
    fn migration_flow_skew_is_caught() {
        let (mut sys, _) = small_sys();
        sys.stats.begun_migrations += 1;
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations.iter().any(|v| v.invariant == "migration_flow"),
            "{violations:?}"
        );
    }

    #[test]
    fn poisoned_and_shrunk_systems_are_clean() {
        let (mut sys, pid) = small_sys();
        let mut oracle = InvariantOracle::new();
        for v in 0..48 {
            sys.access(pid, Vpn(v), false);
        }
        let bad = sys.process(pid).space.entry(Vpn(3)).pfn;
        assert!(sys.poison_frame(TierId::FAST, bad));
        oracle.assert_clean(&sys, "after poison + soft-offline");
        sys.shrink_tier(TierId::FAST, 8);
        oracle.assert_clean(&sys, "after shrink");
        sys.grow_tier(TierId::FAST, 8);
        oracle.assert_clean(&sys, "after grow");
    }

    #[test]
    fn quarantine_counter_skew_is_caught() {
        let (mut sys, pid) = small_sys();
        sys.access(pid, Vpn(0), false);
        let pfn = sys.process(pid).space.entry(Vpn(0)).pfn;
        assert!(sys.poison_frame(TierId::FAST, pfn));
        sys.stats.quarantined_frames += 1;
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "quarantine_conservation"),
            "{violations:?}"
        );
    }

    #[test]
    fn offline_flow_skew_is_caught() {
        let (mut sys, _) = small_sys();
        sys.shrink_tier(TierId::FAST, 4);
        sys.stats.restored_frames += 2; // claim restores that never happened
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations.iter().any(|v| v.invariant == "offline_flow"),
            "{violations:?}"
        );
    }

    #[test]
    fn offline_tier_state_is_clean_and_skews_are_caught() {
        use sim_clock::Nanos;
        use tiered_mem::{TierEvent, TierEventKind};
        let mut sys = TieredSystem::new(SystemConfig::three_tier(64, 128, 512));
        let pid = sys.add_process(256, PageSize::Base);
        let mut oracle = InvariantOracle::new();
        for v in 0..192 {
            sys.access(pid, Vpn(v), false);
        }
        // Demote a few pages into the bottom tier so the drain has work.
        for v in 0..16 {
            let _ = sys.migrate(pid, Vpn(v), TierId(2), MigrateMode::Async);
        }
        sys.clock.advance(sim_clock::Nanos::from_millis(5));
        sys.complete_due_migrations();
        // Deadline already passed ⇒ the event force-drains synchronously.
        sys.apply_tier_event(TierEvent {
            at: Nanos(0),
            tier: TierId(2),
            kind: TierEventKind::Offline { deadline: Nanos(0) },
        });
        assert_eq!(sys.tier_health(TierId(2)), TierHealth::Offline);
        oracle.assert_clean(&sys, "after forced whole-tier offline");

        // Skew the evacuation ledger: flow conservation must flag it.
        sys.stats.evacuated_pages += 1;
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations.iter().any(|v| v.invariant == "evac_flow"),
            "{violations:?}"
        );
        sys.stats.evacuated_pages -= 1;

        // Corrupt a live page's residency bits to point at the offline
        // tier: the no-residency-when-offline invariant must fire (the
        // residency cache goes with it — the corruption is deliberate).
        let live = (0..256)
            .map(Vpn)
            .find(|&v| sys.process(pid).space.entry(v).present())
            .expect("something is resident");
        sys.process_mut(pid)
            .space
            .entry_mut(live)
            .flags
            .set_tier(TierId(2));
        let violations = InvariantOracle::new().check(&sys);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "tier_offline_residency"),
            "{violations:?}"
        );
    }

    #[test]
    fn retry_flow_check() {
        let ok = RetryFlow {
            failed: 10,
            retried: 4,
            abandoned: 1,
            pending: 5,
        };
        assert!(InvariantOracle::check_retry_flow(&ok).is_none());
        let bad = RetryFlow { pending: 6, ..ok };
        assert!(InvariantOracle::check_retry_flow(&bad).is_some());
    }

    #[test]
    fn queue_flow_check() {
        let ok = QueueFlow {
            offered_pages: 10,
            dequeued_pages: 4,
            dropped_pages: 1,
            queued_pages: 5,
        };
        assert!(InvariantOracle::check_queue_flow(&ok).is_none());
        let bad = QueueFlow {
            queued_pages: 6,
            ..ok
        };
        assert!(InvariantOracle::check_queue_flow(&bad).is_some());
    }
}
