//! Per-scan-period counter rows.

use sim_clock::Nanos;

use crate::export::Value;

/// Policy-side control state contributed to a period sample. Baselines that
/// have no threshold/queue machinery pass [`PolicyTraceState::default`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyTraceState {
    /// Active CIT threshold (zero for policies without one).
    pub cit_threshold: Nanos,
    /// Promotion rate limit in bytes/second (zero if unlimited/absent).
    pub rate_limit_bps: u64,
    /// Entries sitting in the promotion queue right now.
    pub queue_depth: u64,
    /// Base pages enqueued during this period.
    pub enqueued_pages: u64,
    /// Lifetime base pages dequeued (migration-started).
    pub dequeued_pages: u64,
    /// Lifetime base pages dropped on queue overflow.
    pub dropped_pages: u64,
    /// Latest DCSC heat-map misplacement ratio (zero when DCSC is off).
    pub heat_overlap_ratio: f64,
}

/// One exported row: the policy's control state plus the substrate's
/// activity during the period ending at `timestamp`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeriodSample {
    /// Simulated time at the end of the period.
    pub timestamp: Nanos,
    /// Policy control state at sampling time.
    pub policy: PolicyTraceState,
    /// Pages promoted slow → fast during the period.
    pub promoted_pages: u64,
    /// Pages demoted fast → slow during the period.
    pub demoted_pages: u64,
    /// Thrashing events flagged during the period.
    pub thrash_events: u64,
    /// Hint faults taken during the period.
    pub hint_faults: u64,
    /// Fast-tier memory access ratio over the period's accesses.
    pub period_fmar: f64,
    /// Cumulative FMAR over the whole run so far.
    pub fmar: f64,
    /// Fast-tier frames in use at sampling time.
    pub fast_used_frames: u64,
    /// Slow-tier frames in use at sampling time.
    pub slow_used_frames: u64,
    /// Migration transactions in flight at sampling time (gauge).
    pub in_flight_migrations: u64,
    /// Frames permanently quarantined across both tiers at sampling time
    /// (gauge; uncorrectable-error retirements).
    pub quarantined_frames: u64,
    /// Fast-tier frames offlined by capacity events at sampling time (gauge).
    pub offlined_frames: u64,
    /// Packed per-tier health gauge: 4 bits per tier in chain order
    /// (0 = Online). An all-healthy chain packs to 0, and the digest only
    /// folds non-zero values ([`Value::Health`]), so fault-free runs hash
    /// as they always did.
    pub tier_health: u32,
}

impl PeriodSample {
    /// The row's columns in export order, as `(name, value)` pairs with
    /// the policy state flattened in. The JSON object, the CSV header and
    /// row, and the digest all read this one list.
    pub fn fields(&self, mut f: impl FnMut(&'static str, Value)) {
        let p = &self.policy;
        f("timestamp_ns", Value::U64(self.timestamp.as_nanos()));
        f("cit_threshold_ns", Value::U64(p.cit_threshold.as_nanos()));
        f("rate_limit_bps", Value::U64(p.rate_limit_bps));
        f("queue_depth", Value::U64(p.queue_depth));
        f("enqueued_pages", Value::U64(p.enqueued_pages));
        f("dequeued_pages", Value::U64(p.dequeued_pages));
        f("dropped_pages", Value::U64(p.dropped_pages));
        f("heat_overlap_ratio", Value::F64(p.heat_overlap_ratio));
        f("promoted_pages", Value::U64(self.promoted_pages));
        f("demoted_pages", Value::U64(self.demoted_pages));
        f("thrash_events", Value::U64(self.thrash_events));
        f("hint_faults", Value::U64(self.hint_faults));
        f("period_fmar", Value::F64(self.period_fmar));
        f("fmar", Value::F64(self.fmar));
        f("fast_used_frames", Value::U64(self.fast_used_frames));
        f("slow_used_frames", Value::U64(self.slow_used_frames));
        f(
            "in_flight_migrations",
            Value::U64(self.in_flight_migrations),
        );
        f("quarantined_frames", Value::U64(self.quarantined_frames));
        f("offlined_frames", Value::U64(self.offlined_frames));
        f("tier_health", Value::Health(self.tier_health));
    }
}
