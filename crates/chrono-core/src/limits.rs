//! cgroup memory-limit enforcement via slow-tier reclamation.
//!
//! Section 3.3.1: "Chrono \[accommodates\] user-defined memory limits (e.g.
//! cgroups memory.limit), while prioritizing the retention of hot pages in
//! the fast tier. When memory limits are reached, Chrono initiates slow-tier
//! reclamation to relieve memory pressure while maintaining the placement
//! for hot pages." The enforcer therefore swaps out *slow-tier* pages of
//! over-limit processes, preferring pages whose accessed bit is clear, and
//! never touches the fast tier.

use tiered_mem::{PageFlags, ProcessId, TierId, TieredSystem, Vpn};

/// Per-process reclamation cursors for limit enforcement.
#[derive(Debug, Default)]
pub struct LimitEnforcer {
    cursors: Vec<u32>,
}

impl LimitEnforcer {
    /// Creates an enforcer.
    pub fn new() -> LimitEnforcer {
        LimitEnforcer::default()
    }

    /// Reclaims until every confined process is back under its limit, or
    /// `budget` swap-outs have been spent. Returns pages swapped out.
    pub fn enforce(&mut self, sys: &mut TieredSystem, mut budget: u32) -> u64 {
        let mut reclaimed = 0u64;
        let pids: Vec<ProcessId> = sys.pids().collect();
        self.cursors.resize(pids.len(), 0);
        for pid in pids {
            while sys.over_limit_frames(pid) > 0 && budget > 0 {
                match self.pick_slow_victim(sys, pid) {
                    Some(vpn) => {
                        budget -= 1;
                        if let Ok(pages) = sys.swap_out(pid, vpn) {
                            reclaimed += pages as u64;
                        }
                    }
                    None => break, // nothing reclaimable from the slow tier
                }
            }
        }
        reclaimed
    }

    /// Finds a slow-tier page of `pid` to reclaim: two passes from a
    /// rotating cursor — first idle pages (accessed bit clear), then any
    /// slow page — so hot fast-tier placement is never disturbed.
    fn pick_slow_victim(&mut self, sys: &TieredSystem, pid: ProcessId) -> Option<Vpn> {
        let space = &sys.process(pid).space;
        let pages = space.pages();
        if pages == 0 {
            return None;
        }
        let cursor = &mut self.cursors[pid.0 as usize];
        for require_idle in [true, false] {
            let mut pos = *cursor % pages;
            for _ in 0..pages {
                let vpn = Vpn(pos);
                let pte = space.pte_page(vpn);
                let e = space.entry(pte);
                let idle_ok = !require_idle || !e.flags.has(PageFlags::ACCESSED);
                if e.present() && e.tier() == TierId::SLOW && idle_ok {
                    *cursor = (pos + 1) % pages;
                    return Some(pte);
                }
                pos = (pos + 1) % pages;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiered_mem::{PageSize, SystemConfig};

    fn overfull_system() -> (TieredSystem, ProcessId) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(32, 256));
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        (sys, pid)
    }

    #[test]
    fn enforce_brings_process_under_limit() {
        let (mut sys, pid) = overfull_system();
        sys.set_memory_limit(pid, Some(100));
        let mut enf = LimitEnforcer::new();
        let reclaimed = enf.enforce(&mut sys, 1024);
        assert_eq!(reclaimed, 28);
        assert_eq!(sys.over_limit_frames(pid), 0);
        assert_eq!(sys.stats.swapped_out_pages, 28);
    }

    #[test]
    fn enforcement_never_touches_the_fast_tier() {
        let (mut sys, pid) = overfull_system();
        let fast_before = sys.used_frames(TierId::FAST);
        sys.set_memory_limit(pid, Some(60));
        LimitEnforcer::new().enforce(&mut sys, 1024);
        assert_eq!(sys.used_frames(TierId::FAST), fast_before);
        // The limit may be unreachable without touching fast pages; the
        // enforcer must stop rather than evict hot placement.
        assert!(sys.over_limit_frames(pid) <= fast_before);
    }

    #[test]
    fn budget_caps_reclamation() {
        let (mut sys, pid) = overfull_system();
        sys.set_memory_limit(pid, Some(50));
        let reclaimed = LimitEnforcer::new().enforce(&mut sys, 5);
        assert_eq!(reclaimed, 5);
    }

    #[test]
    fn idle_pages_are_reclaimed_first() {
        let (mut sys, pid) = overfull_system();
        // Touch a slow page so its accessed bit is set.
        let hot_slow = Vpn(120);
        sys.access(pid, hot_slow, false);
        sys.set_memory_limit(pid, Some(127));
        LimitEnforcer::new().enforce(&mut sys, 1);
        // The single reclaimed page must not be the recently touched one.
        assert!(sys.process(pid).space.entry(hot_slow).present());
    }

    #[test]
    fn unconfined_processes_are_untouched() {
        let (mut sys, _pid) = overfull_system();
        let reclaimed = LimitEnforcer::new().enforce(&mut sys, 1024);
        assert_eq!(reclaimed, 0);
    }
}
