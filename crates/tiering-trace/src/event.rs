//! Discrete trace events.

use sim_clock::Nanos;

use crate::export::Value;

/// Direction of a migration event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateDir {
    /// Slow → fast.
    Promote,
    /// Fast → slow.
    Demote,
}

impl MigrateDir {
    /// Lower-case label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            MigrateDir::Promote => "promote",
            MigrateDir::Demote => "demote",
        }
    }
}

/// One discrete policy/substrate event.
///
/// Events are cheap POD values; anything that would need allocation
/// (labels, maps) is reduced to scalars at the emit site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A ticking-scan chunk completed: `visited` PTEs walked for `pid`.
    Scan {
        /// Scanned process.
        pid: u16,
        /// PTE entries visited in this chunk.
        visited: u64,
    },
    /// A hint fault was classified: the measured CIT and whether it fell
    /// below the active threshold.
    HintFault {
        /// Faulting process.
        pid: u16,
        /// Faulting virtual page.
        vpn: u32,
        /// Measured CIT.
        cit: Nanos,
        /// `cit <= threshold` at classification time.
        below_threshold: bool,
    },
    /// A page passed candidate filtering and entered the promotion queue.
    Enqueue {
        /// Owning process.
        pid: u16,
        /// PTE page (base page or huge-block head).
        vpn: u32,
        /// Base pages the promotion will move.
        pages: u32,
    },
    /// A two-phase migration transaction opened: destination frames
    /// reserved, copy enqueued on the destination tier's bandwidth FIFO.
    MigrateBegin {
        /// Owning process.
        pid: u16,
        /// PTE page.
        vpn: u32,
        /// Base pages in flight.
        pages: u32,
        /// Promotion or demotion.
        dir: MigrateDir,
    },
    /// An in-flight migration aborted (write hit the unit mid-copy, or the
    /// unit was split/swapped out); the reservation was released.
    MigrateAbort {
        /// Owning process.
        pid: u16,
        /// PTE page.
        vpn: u32,
        /// Base pages whose reservation was released.
        pages: u32,
        /// Direction of the aborted transaction.
        dir: MigrateDir,
    },
    /// A migration completed: the PTE flipped to the reserved frames.
    MigrateComplete {
        /// Owning process.
        pid: u16,
        /// PTE page.
        vpn: u32,
        /// Base pages moved.
        pages: u32,
        /// Promotion or demotion.
        dir: MigrateDir,
    },
    /// The thrashing monitor flagged a re-promoted recently-demoted page.
    Thrash {
        /// Base pages involved.
        pages: u64,
    },
    /// A tune period ran: the control state it settled on.
    Tune {
        /// CIT threshold after the update.
        cit_threshold: Nanos,
        /// Promotion rate limit after the update (bytes/second).
        rate_limit_bps: u64,
    },
    /// DCSC compared the per-tier heat maps.
    DcscOverlap {
        /// Bucket index of the overlap point.
        cutoff_bucket: u32,
        /// Estimated misplaced slow-tier pages.
        misplaced_pages: f64,
        /// Misplaced pages over fast-tier capacity.
        misplacement_ratio: f64,
    },
    /// A due migration copy failed (fault injection): the reservation was
    /// released and the source mapping stayed authoritative.
    CopyFault {
        /// Owning process.
        pid: u16,
        /// PTE page of the failed unit.
        vpn: u32,
        /// Base pages the transaction covered.
        pages: u32,
        /// Direction of the failed copy.
        dir: MigrateDir,
        /// Retryable (`true`) or permanent with a poisoned frame (`false`).
        transient: bool,
    },
    /// A frame was permanently quarantined after an uncorrectable error.
    Quarantine {
        /// Tier index of the quarantined frame.
        tier: u8,
        /// The frame number.
        pfn: u32,
    },
    /// A resident page's frame took an uncorrectable error: the page was
    /// marked poisoned and awaits soft-offline migration.
    FramePoison {
        /// Owning process.
        pid: u16,
        /// The poisoned page.
        vpn: u32,
    },
    /// Tier capacity changed (hotplug): frames offlined or restored.
    Capacity {
        /// Tier index whose capacity changed.
        tier: u8,
        /// Frames taken out of service by this event.
        offlined: u32,
        /// Frames brought back into service by this event.
        restored: u32,
        /// Usable frames in the tier after the event.
        usable: u32,
    },
    /// The policy re-tried a previously failed or deferred promotion.
    Retry {
        /// Owning process.
        pid: u16,
        /// The retried page.
        vpn: u32,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// The promotion circuit breaker changed state.
    Breaker {
        /// `true` when the breaker opened (promotions paused).
        open: bool,
        /// Recent migration-failure ratio that drove the transition.
        failure_ratio: f64,
    },
    /// The multi-tenant admission hook granted a tenant its migration-slot
    /// share for the next barrier interval. Emitted into the tenant's own
    /// trace, only when the hook is enabled — hook-off runs record the same
    /// event stream they always did.
    Admission {
        /// Tenant the grant applies to.
        tenant: u32,
        /// In-flight migration slots granted until the next barrier.
        granted: u32,
        /// Migrations still in flight at grant time.
        in_flight: u32,
        /// Consecutive barriers this tenant had demand but won zero spare
        /// slots (0 when it was served).
        starvation: u32,
    },
    /// A tier's health state changed (failure-domain lifecycle). Emitted
    /// only on chaos runs that schedule tier events; fault-free runs never
    /// record it, so their digests are untouched.
    TierHealth {
        /// Tier whose health changed.
        tier: u8,
        /// Dense health-state code (0 = Online).
        state: u8,
    },
}

impl TraceEvent {
    /// The kind's export label and digest tag. The tags are frozen (every
    /// committed digest folds them) and do not follow declaration order.
    fn label_and_tag(&self) -> (&'static str, u64) {
        match self {
            TraceEvent::Scan { .. } => ("scan", 1),
            TraceEvent::HintFault { .. } => ("hint_fault", 2),
            TraceEvent::Enqueue { .. } => ("enqueue", 3),
            TraceEvent::MigrateComplete { .. } => ("migrate_complete", 4),
            TraceEvent::Thrash { .. } => ("thrash", 5),
            TraceEvent::Tune { .. } => ("tune", 6),
            TraceEvent::DcscOverlap { .. } => ("dcsc_overlap", 7),
            TraceEvent::MigrateBegin { .. } => ("migrate_begin", 8),
            TraceEvent::MigrateAbort { .. } => ("migrate_abort", 9),
            TraceEvent::CopyFault { .. } => ("copy_fault", 10),
            TraceEvent::Quarantine { .. } => ("quarantine", 11),
            TraceEvent::FramePoison { .. } => ("frame_poison", 12),
            TraceEvent::Capacity { .. } => ("capacity", 13),
            TraceEvent::Retry { .. } => ("retry", 14),
            TraceEvent::Breaker { .. } => ("breaker", 15),
            TraceEvent::Admission { .. } => ("admission", 16),
            TraceEvent::TierHealth { .. } => ("tier_health", 17),
        }
    }

    /// Stable event-kind label used in exports.
    pub fn kind(&self) -> &'static str {
        self.label_and_tag().0
    }

    /// Stable per-kind tag the digest folds ahead of the fields.
    pub(crate) fn tag(&self) -> u64 {
        self.label_and_tag().1
    }

    /// The event's fields (excluding timestamp and kind) in export order,
    /// as `(name, value)` pairs. The JSONL line and the digest both read
    /// this one list.
    pub fn fields(&self, mut f: impl FnMut(&'static str, Value)) {
        match *self {
            TraceEvent::Scan { pid, visited } => {
                f("pid", Value::U64(pid.into()));
                f("visited", Value::U64(visited));
            }
            TraceEvent::HintFault {
                pid,
                vpn,
                cit,
                below_threshold,
            } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
                f("cit_ns", Value::U64(cit.as_nanos()));
                f("below_threshold", Value::Bool(below_threshold));
            }
            TraceEvent::Enqueue { pid, vpn, pages } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
                f("pages", Value::U64(pages.into()));
            }
            TraceEvent::MigrateBegin {
                pid,
                vpn,
                pages,
                dir,
            }
            | TraceEvent::MigrateAbort {
                pid,
                vpn,
                pages,
                dir,
            }
            | TraceEvent::MigrateComplete {
                pid,
                vpn,
                pages,
                dir,
            } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
                f("pages", Value::U64(pages.into()));
                f("dir", Value::Dir(dir));
            }
            TraceEvent::Thrash { pages } => f("pages", Value::U64(pages)),
            TraceEvent::Tune {
                cit_threshold,
                rate_limit_bps,
            } => {
                f("cit_threshold_ns", Value::U64(cit_threshold.as_nanos()));
                f("rate_limit_bps", Value::U64(rate_limit_bps));
            }
            TraceEvent::DcscOverlap {
                cutoff_bucket,
                misplaced_pages,
                misplacement_ratio,
            } => {
                f("cutoff_bucket", Value::U64(cutoff_bucket.into()));
                f("misplaced_pages", Value::F64(misplaced_pages));
                f("misplacement_ratio", Value::F64(misplacement_ratio));
            }
            TraceEvent::CopyFault {
                pid,
                vpn,
                pages,
                dir,
                transient,
            } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
                f("pages", Value::U64(pages.into()));
                f("dir", Value::Dir(dir));
                f("transient", Value::Bool(transient));
            }
            TraceEvent::Quarantine { tier, pfn } => {
                f("tier", Value::U64(tier.into()));
                f("pfn", Value::U64(pfn.into()));
            }
            TraceEvent::FramePoison { pid, vpn } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
            }
            TraceEvent::Capacity {
                tier,
                offlined,
                restored,
                usable,
            } => {
                f("tier", Value::U64(tier.into()));
                f("offlined", Value::U64(offlined.into()));
                f("restored", Value::U64(restored.into()));
                f("usable", Value::U64(usable.into()));
            }
            TraceEvent::Retry { pid, vpn, attempt } => {
                f("pid", Value::U64(pid.into()));
                f("vpn", Value::U64(vpn.into()));
                f("attempt", Value::U64(attempt.into()));
            }
            TraceEvent::Breaker {
                open,
                failure_ratio,
            } => {
                f("open", Value::Bool(open));
                f("failure_ratio", Value::F64(failure_ratio));
            }
            TraceEvent::Admission {
                tenant,
                granted,
                in_flight,
                starvation,
            } => {
                f("tenant", Value::U64(tenant.into()));
                f("granted", Value::U64(granted.into()));
                f("in_flight", Value::U64(in_flight.into()));
                f("starvation", Value::U64(starvation.into()));
            }
            TraceEvent::TierHealth { tier, state } => {
                f("tier", Value::U64(tier.into()));
                f("state", Value::U64(state.into()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_labels() {
        let evs = [
            TraceEvent::Scan { pid: 0, visited: 1 },
            TraceEvent::HintFault {
                pid: 0,
                vpn: 0,
                cit: Nanos(1),
                below_threshold: true,
            },
            TraceEvent::Enqueue {
                pid: 0,
                vpn: 0,
                pages: 1,
            },
            TraceEvent::MigrateBegin {
                pid: 0,
                vpn: 0,
                pages: 1,
                dir: MigrateDir::Promote,
            },
            TraceEvent::MigrateAbort {
                pid: 0,
                vpn: 0,
                pages: 1,
                dir: MigrateDir::Promote,
            },
            TraceEvent::MigrateComplete {
                pid: 0,
                vpn: 0,
                pages: 1,
                dir: MigrateDir::Promote,
            },
            TraceEvent::Thrash { pages: 1 },
            TraceEvent::Tune {
                cit_threshold: Nanos(1),
                rate_limit_bps: 1,
            },
            TraceEvent::DcscOverlap {
                cutoff_bucket: 0,
                misplaced_pages: 0.0,
                misplacement_ratio: 0.0,
            },
            TraceEvent::CopyFault {
                pid: 0,
                vpn: 0,
                pages: 1,
                dir: MigrateDir::Promote,
                transient: true,
            },
            TraceEvent::Quarantine { tier: 0, pfn: 0 },
            TraceEvent::FramePoison { pid: 0, vpn: 0 },
            TraceEvent::Capacity {
                tier: 0,
                offlined: 1,
                restored: 0,
                usable: 1,
            },
            TraceEvent::Retry {
                pid: 0,
                vpn: 0,
                attempt: 1,
            },
            TraceEvent::Breaker {
                open: true,
                failure_ratio: 0.5,
            },
            TraceEvent::Admission {
                tenant: 0,
                granted: 1,
                in_flight: 0,
                starvation: 0,
            },
            TraceEvent::TierHealth { tier: 1, state: 3 },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn migrate_dir_labels() {
        assert_eq!(MigrateDir::Promote.label(), "promote");
        assert_eq!(MigrateDir::Demote.label(), "demote");
    }
}
