//! The [`TieringPolicy`] trait and shared policy plumbing: the daemon
//! mechanics every scan- and LRU-based policy runs underneath its own
//! hotness criterion ([`ScanCursor`] scanning, [`age_tier`],
//! [`demote_until`], [`lower_tier_headroom`], [`promote_deferred`]).

use sim_clock::Nanos;
use tiered_mem::{
    scan_budget_pages, AccessResult, MigrateMode, PageEntry, PageFlags, ProcessId, TierId,
    TieredSystem, Vpn,
};

/// A kernel tiering policy driving page placement on a [`TieredSystem`].
///
/// The simulation driver calls the hooks in this order:
///
/// 1. [`TieringPolicy::init`] once, to schedule daemon events;
/// 2. [`TieringPolicy::on_event`] whenever a scheduled event comes due;
/// 3. [`TieringPolicy::on_hint_fault`] after an access takes a `PROT_NONE`
///    fault (the policy decides whether to migrate);
/// 4. [`TieringPolicy::on_access`] after *every* access (for sampling-based
///    policies; must be cheap).
pub trait TieringPolicy: Send {
    /// Short name used in reports ("Linux-NB", "Chrono", ...).
    fn name(&self) -> &'static str;

    /// Schedules initial daemon events and performs per-process setup.
    fn init(&mut self, sys: &mut TieredSystem);

    /// Handles a due daemon event carrying a token built by [`encode_token`].
    fn on_event(&mut self, sys: &mut TieredSystem, token: u64);

    /// Handles a hint fault (`PROT_NONE` cleared by an access of `pid` to
    /// `vpn`). `res` carries the fault timestamp used by CIT.
    fn on_hint_fault(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        vpn: Vpn,
        write: bool,
        res: &AccessResult,
    );

    /// Observes an access (sampling hook). Default: nothing.
    fn on_access(&mut self, _sys: &mut TieredSystem, _pid: ProcessId, _vpn: Vpn, _write: bool) {}
}

/// Packs an event token: a policy-defined `kind`, the process it concerns,
/// and a 32-bit argument.
pub fn encode_token(kind: u16, pid: u16, arg: u32) -> u64 {
    (kind as u64) << 48 | (pid as u64) << 32 | arg as u64
}

/// Unpacks a token produced by [`encode_token`].
pub fn decode_token(token: u64) -> (u16, u16, u32) {
    ((token >> 48) as u16, (token >> 32) as u16, token as u32)
}

/// Per-process scan cursor shared by every chunked page-table scanner:
/// Linux-NB, Auto-Tiering, TPP, FlexMem, Multi-Clock's clock sweep and
/// Chrono's Ticking-scan.
///
/// A full pass over the address space takes one scan period; each scan event
/// covers `step_pages` and the events are spaced so the pass completes on
/// time, mirroring `task_numa_work`'s chunked scanning.
#[derive(Debug, Clone)]
pub struct ScanCursor {
    /// Next page to scan.
    cursor: Vpn,
    /// Pages marked per scan event.
    step_pages: u32,
    /// Delay between scan events for this process.
    pub event_interval: Nanos,
}

impl ScanCursor {
    /// Builds a cursor for a space of `space_pages`, covering it once per
    /// `scan_period` in chunks of `step_pages`.
    fn new(space_pages: u32, step_pages: u32, scan_period: Nanos) -> ScanCursor {
        let step_pages = step_pages.max(1).min(space_pages.max(1));
        let chunks = space_pages.div_ceil(step_pages).max(1);
        ScanCursor {
            cursor: Vpn(0),
            step_pages,
            event_interval: scan_period / chunks as u64,
        }
    }

    /// Builds one cursor per process of `sys`, indexed by pid, and schedules
    /// each process's first scan event, `encode_token(kind, pid, tag)`, one
    /// event interval out.
    pub fn arm(
        sys: &mut TieredSystem,
        step_pages: u32,
        scan_period: Nanos,
        kind: u16,
        tag: u32,
    ) -> Vec<ScanCursor> {
        let pids: Vec<ProcessId> = sys.pids().collect();
        pids.into_iter()
            .map(|pid| {
                let pages = sys.process(pid).space.pages();
                let cursor = ScanCursor::new(pages, step_pages, scan_period);
                sys.schedule_in(cursor.event_interval, encode_token(kind, pid.0, tag));
                cursor
            })
            .collect()
    }

    /// Walks the next window of `pid`'s address space, calling `f` on every
    /// present PTE page, schedules the process's next scan event `token` one
    /// event interval out, and returns the PTEs visited. Charging the scan
    /// is the caller's: policies price a PTE visit differently.
    pub fn step(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        token: u64,
        mut f: impl FnMut(Vpn, &mut PageEntry),
    ) -> u64 {
        let mut visited = 0u64;
        self.cursor =
            sys.process_mut(pid)
                .space
                .walk_range(self.cursor, self.step_pages, |vpn, e| {
                    visited += 1;
                    f(vpn, e);
                });
        sys.schedule_in(self.event_interval, token);
        visited
    }
}

/// Ages `tier`'s active LRU list by one `interval` tick's share of a full
/// pass per `period` ([`scan_budget_pages`]), at least 16 pages, so the
/// inactive list reflects period-granularity coldness.
pub fn age_tier(sys: &mut TieredSystem, tier: TierId, interval: Nanos, period: Nanos) {
    let budget = scan_budget_pages(sys.total_frames(tier), interval, period);
    sys.age_active_list(tier, budget.max(16));
}

/// Demotes from `tier` while its free frames are under `target`: pops at
/// most `budget` inactive victims and hands each to `demote`, which decides
/// what happens to it. Stops early when `tier` has no victim left.
pub fn demote_until(
    sys: &mut TieredSystem,
    tier: TierId,
    target: u32,
    mut budget: u32,
    mut demote: impl FnMut(&mut TieredSystem, ProcessId, Vpn),
) {
    while sys.free_frames(tier) < target && budget > 0 {
        budget -= 1;
        let Some((pid, vpn)) = sys.pop_inactive_victim(tier) else {
            break;
        };
        demote(sys, pid, vpn);
    }
}

/// Free-frame headroom a demotion daemon holds on `tier` below the top. The
/// system watermarks are sized for the top tier, so deeper tiers hold a
/// fixed 1/32 of their frames instead, enough that one-hop promotions from
/// below find room.
pub fn lower_tier_headroom(sys: &TieredSystem, tier: TierId) -> u32 {
    (sys.total_frames(tier) / 32).max(1)
}

/// Drains a deferred promotion list: clears each unit's `CANDIDATE` mark
/// and promotes the units still in the slow tier to the top tier,
/// reclaiming room there first.
pub fn promote_deferred(sys: &mut TieredSystem, deferred: &mut Vec<(ProcessId, Vpn)>) {
    for (pid, unit) in deferred.drain(..) {
        let e = sys.process_mut(pid).space.entry_mut(unit);
        e.flags.clear(PageFlags::CANDIDATE);
        if e.tier() == TierId::SLOW {
            let _ = sys.promote_with_reclaim_to(pid, unit, TierId::FAST, MigrateMode::Async);
        }
    }
}

/// A policy that never migrates: first-touch placement only. The control
/// every evaluation needs, and a useful base case in tests.
#[derive(Debug, Default)]
pub struct NullPolicy;

impl TieringPolicy for NullPolicy {
    fn name(&self) -> &'static str {
        "Static"
    }

    fn init(&mut self, _sys: &mut TieredSystem) {}

    fn on_event(&mut self, _sys: &mut TieredSystem, _token: u64) {}

    fn on_hint_fault(
        &mut self,
        _sys: &mut TieredSystem,
        _pid: ProcessId,
        _vpn: Vpn,
        _write: bool,
        _res: &AccessResult,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let t = encode_token(7, 42, 0xDEADBEEF);
        assert_eq!(decode_token(t), (7, 42, 0xDEADBEEF));
    }

    #[test]
    fn token_extremes() {
        let t = encode_token(u16::MAX, u16::MAX, u32::MAX);
        assert_eq!(decode_token(t), (u16::MAX, u16::MAX, u32::MAX));
        assert_eq!(decode_token(encode_token(0, 0, 0)), (0, 0, 0));
    }

    #[test]
    fn scan_cursor_divides_period() {
        let c = ScanCursor::new(1000, 100, Nanos::from_secs(10));
        assert_eq!(c.step_pages, 100);
        assert_eq!(c.event_interval, Nanos::from_secs(1));
    }

    #[test]
    fn scan_cursor_clamps_step_to_space() {
        let c = ScanCursor::new(50, 1000, Nanos::from_secs(1));
        assert_eq!(c.step_pages, 50);
        assert_eq!(c.event_interval, Nanos::from_secs(1));
    }

    #[test]
    fn scan_cursor_handles_tiny_space() {
        let c = ScanCursor::new(0, 64, Nanos::from_secs(1));
        assert_eq!(c.step_pages, 1);
    }
}
