//! System-wide run-time statistics.
//!
//! These counters back the paper's run-time characteristics (Fig 8: fast-tier
//! memory access ratio, kernel-time share, context-switch rate) and the
//! migration accounting used throughout the evaluation.

use sim_clock::Nanos;

use crate::system::MigrateError;
use crate::tier::{TierId, MAX_TIERS};

/// Aggregated counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Loads served per tier, indexed by [`TierId::index`]. Slots beyond the
    /// configured chain length stay zero.
    pub reads: [u64; MAX_TIERS],
    /// Stores served per tier.
    pub writes: [u64; MAX_TIERS],
    /// Demand (first-touch) page faults.
    pub demand_faults: u64,
    /// Hint faults taken on `PROT_NONE` pages (NUMA balancing / Ticking-scan).
    pub hint_faults: u64,
    /// Pages promoted toward the top of the chain (any up edge).
    pub promoted_pages: u64,
    /// Pages demoted toward the bottom of the chain (any down edge).
    pub demoted_pages: u64,
    /// Pages promoted per chain edge; edge `i` connects tiers `i` and
    /// `i + 1`. Slots beyond the configured chain stay zero, and the sums
    /// over edges equal `promoted_pages` / `demoted_pages`.
    pub promoted_per_edge: [u64; MAX_TIERS - 1],
    /// Pages demoted per chain edge (same indexing).
    pub demoted_per_edge: [u64; MAX_TIERS - 1],
    /// Promotion attempts that failed for lack of fast-tier space.
    pub failed_promotions: u64,
    /// Victim demotions inside `promote_with_reclaim_to` that failed.
    pub failed_demotions: u64,
    /// Failed promotion (up-edge) migrate attempts by reason, indexed by
    /// `MigrateError::index` — one cell per entry of
    /// [`MigrateError::REASONS`]. The `no_space` cell mirrors
    /// `failed_promotions`.
    pub failed_fast_migrations: [u64; MigrateError::COUNT],
    /// Migration transactions opened by `begin_migrate`.
    pub begun_migrations: u64,
    /// Migration transactions retired (PTE flipped to the reserved frames).
    pub completed_migrations: u64,
    /// Migration transactions aborted (write hit an in-flight unit, or the
    /// unit was split, swapped out, or reclaimed mid-copy).
    pub aborted_migrations: u64,
    /// Bytes moved by migration in either direction.
    pub migration_bytes: u64,
    /// PTE entries visited by scanners (cost accounting).
    pub scanned_ptes: u64,
    /// Context switches (faults + daemon wake-ups), the Fig 8 metric.
    pub context_switches: u64,
    /// Simulated time spent in kernel work (faults, scans, migrations).
    pub kernel_time: Nanos,
    /// Simulated time spent in user execution, including memory stalls.
    pub user_time: Nanos,
    /// Thrashing events flagged by the demotion monitor.
    pub thrash_events: u64,
    /// Pages written out to the swap device (last-tier reclamation).
    pub swapped_out_pages: u64,
    /// Major faults served from the swap device.
    pub swap_in_faults: u64,
    /// Due migration copies that failed transiently (fault injection); the
    /// transaction was released and the source copy stayed authoritative.
    pub transient_copy_faults: u64,
    /// Due migration copies that failed permanently, poisoning one
    /// destination frame (fault injection).
    pub poisoned_copy_faults: u64,
    /// Frames permanently quarantined after uncorrectable errors (both the
    /// copy-poison and resident-frame-poison paths).
    pub quarantined_frames: u64,
    /// Frames taken offline by capacity-shrink (hotplug) events, lifetime.
    pub offlined_frames: u64,
    /// Frames brought back online by capacity-grow events, lifetime.
    pub restored_frames: u64,
    /// Pages issued on the emergency evacuation lane (drained off a failing
    /// tier). Flow-conserved: `evacuated_pages == evac_rehomed_pages +
    /// evac_swapped_pages + evac_faulted_pages + engine in-flight evac`.
    pub evacuated_pages: u64,
    /// Evacuation-lane pages successfully re-homed on a healthy tier.
    pub evac_rehomed_pages: u64,
    /// Evacuation pages spilled to the swap backstop (no healthy neighbor
    /// had room inside the deadline).
    pub evac_swapped_pages: u64,
    /// Evacuation-lane pages whose copy faulted or aborted; they stayed on
    /// the failing tier and were re-issued or force-drained later, each
    /// re-issue counting as a fresh `evacuated_pages` entry.
    pub evac_faulted_pages: u64,
    /// Tier-health transitions applied (offline, degrade, rejoin — the
    /// failure-domain lifecycle).
    pub tier_health_transitions: u64,
}

impl SystemStats {
    /// Total accesses across tiers and kinds.
    pub fn total_accesses(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Accesses served by a given tier.
    pub fn tier_accesses(&self, tier: TierId) -> u64 {
        self.reads[tier.index()] + self.writes[tier.index()]
    }

    /// Fast-tier memory access ratio (FMAR), the Fig 8 headline metric.
    pub fn fmar(&self) -> f64 {
        self.fmar_since(&SystemStats::default())
    }

    /// FMAR over the accesses counted since `earlier`, an older snapshot
    /// of these counters (period and interval FMARs).
    pub fn fmar_since(&self, earlier: &SystemStats) -> f64 {
        let total = self.total_accesses() - earlier.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let fast = self.tier_accesses(TierId::FAST) - earlier.tier_accesses(TierId::FAST);
        fast as f64 / total as f64
    }

    /// Fraction of execution time spent in kernel work.
    pub fn kernel_time_fraction(&self) -> f64 {
        let total = self.kernel_time.as_nanos() + self.user_time.as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.kernel_time.as_nanos() as f64 / total as f64
    }

    /// Context switches per simulated second of total execution.
    pub fn context_switch_rate(&self) -> f64 {
        let secs = (self.kernel_time + self.user_time).as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.context_switches as f64 / secs
    }

    /// Counts one access in the tier counters.
    #[inline]
    pub fn count_access(&mut self, tier: TierId, write: bool) {
        if write {
            self.writes[tier.index()] += 1;
        } else {
            self.reads[tier.index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmar_counts_fast_share() {
        let mut s = SystemStats::default();
        s.count_access(TierId::FAST, false);
        s.count_access(TierId::FAST, true);
        s.count_access(TierId::SLOW, false);
        s.count_access(TierId::SLOW, true);
        assert!((s.fmar() - 0.5).abs() < 1e-12);
        assert_eq!(s.total_accesses(), 4);
        assert_eq!(s.tier_accesses(TierId::FAST), 2);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = SystemStats::default();
        assert_eq!(s.fmar(), 0.0);
        assert_eq!(s.kernel_time_fraction(), 0.0);
        assert_eq!(s.context_switch_rate(), 0.0);
    }

    #[test]
    fn kernel_fraction() {
        let s = SystemStats {
            kernel_time: Nanos(250),
            user_time: Nanos(750),
            ..Default::default()
        };
        assert!((s.kernel_time_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn context_switch_rate_per_second() {
        let s = SystemStats {
            context_switches: 500,
            user_time: Nanos::from_secs(2),
            ..Default::default()
        };
        assert!((s.context_switch_rate() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn fmar_since_counts_only_the_newer_accesses() {
        let mut a = SystemStats::default();
        a.count_access(TierId::SLOW, false);
        let mut b = a.clone();
        b.count_access(TierId::FAST, false);
        b.count_access(TierId::FAST, true);
        b.count_access(TierId(2), true);
        b.count_access(TierId::SLOW, false);
        assert_eq!(b.fmar_since(&a), 0.5);
        assert_eq!(b.fmar_since(&b), 0.0);
        assert_eq!(b.fmar(), 0.4);
    }

    #[test]
    fn failure_table_stays_in_sync_with_reasons() {
        // Length-sync guard: the counter table, the reason-name table and the
        // variant count must agree, so adding a MigrateError variant without
        // widening the table is a compile- or test-time error, not a silent
        // truncation.
        let s = SystemStats::default();
        assert_eq!(s.failed_fast_migrations.len(), MigrateError::REASONS.len());
        assert_eq!(MigrateError::REASONS.len(), MigrateError::COUNT);
    }
}
