//! Telescope (Nair et al., USENIX ATC '24).
//!
//! Region-based profiling for gargantuan memories: instead of tracking every
//! base page, Telescope exploits the accessed bits of *interior* page-table
//! levels — a PMD/PUD entry's accessed bit summarizes 2 MB/1 GB of address
//! space — and "telescopes" into regions that show activity, drilling from
//! coarse to fine across fixed profiling windows. Table 1 lists its
//! effective frequency scale as 0–5 accesses/sec with a 200 ms window: each
//! level of the tree still yields only accessed-or-not per window, so hot
//! and warm pages inside an active region remain indistinguishable until
//! the tree reaches leaf granularity, and the frontier budget caps how much
//! of the space can be at leaf granularity at once.
//!
//! The simulator models a three-level tree over each address space
//! (region sizes [`L2_PAGES`] → [`L1_PAGES`] → page) with a bounded
//! profiling frontier. Interior accessed bits are derived by sampling a few
//! resident pages of the region — the cost model charges only those visits,
//! which is precisely Telescope's scalability argument.

use sim_clock::Nanos;
use tiered_mem::{AccessResult, MigrateMode, PageFlags, ProcessId, TierId, TieredSystem, Vpn};

use crate::policy::{age_tier, decode_token, demote_until, encode_token, TieringPolicy};

const EV_PROFILE: u16 = 1;
const EV_DEMOTE: u16 = 2;

/// Pages per level-1 region (a PMD-like 64-page granule at simulator scale).
pub const L1_PAGES: u32 = 64;
/// Pages per level-2 region (a PUD-like granule).
pub const L2_PAGES: u32 = 4096;

/// Telescope configuration.
#[derive(Debug, Clone)]
pub struct TelescopeConfig {
    /// Fixed profiling window (the paper's 200 ms, scaled).
    pub window: Nanos,
    /// Maximum tree nodes examined per window (profiling budget).
    pub frontier_budget: usize,
    /// Consecutive active windows a leaf page needs before promotion.
    pub hot_windows: u32,
    /// Demotion daemon interval.
    pub demote_interval: Nanos,
}

impl Default for TelescopeConfig {
    fn default() -> Self {
        TelescopeConfig {
            window: Nanos::from_millis(200),
            frontier_budget: 1024,
            hot_windows: 2,
            demote_interval: Nanos::from_secs(2),
        }
    }
}

/// A node in the profiling frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    pid: ProcessId,
    /// First page of the region.
    start: Vpn,
    /// Region size in pages (L2, L1, or 1).
    pages: u32,
    /// Consecutive windows this node was observed active.
    active_windows: u32,
}

/// The Telescope baseline policy.
pub struct Telescope {
    cfg: TelescopeConfig,
    frontier: Vec<Node>,
}

impl Telescope {
    /// Creates the policy.
    pub fn new(cfg: TelescopeConfig) -> Telescope {
        Telescope {
            cfg,
            frontier: Vec::new(),
        }
    }

    /// Current frontier size (diagnostic).
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Checks (and clears) whether any page of the region was accessed since
    /// the last profile, by sampling resident pages. Interior accessed bits
    /// summarize their subtree, so a handful of probes suffices; the cost is
    /// charged per visited PTE.
    fn region_active(sys: &mut TieredSystem, node: &Node) -> bool {
        let mut active = false;
        let step = (node.pages / 16).max(1);
        let mut visited = 0u64;
        let space_pages = sys.process(node.pid).space.pages();
        let mut v = node.start.0;
        let end = (node.start.0 + node.pages).min(space_pages);
        while v < end {
            visited += 1;
            let e = sys.process_mut(node.pid).space.entry_mut(Vpn(v));
            if e.present() && e.flags.has(PageFlags::ACCESSED) {
                // Clear only at leaf granularity; interior "bits" are
                // summaries and clearing one page per granule models the
                // interior-entry clear.
                e.flags.clear(PageFlags::ACCESSED);
                active = true;
                if node.pages > 1 {
                    break;
                }
            }
            v += step;
        }
        sys.stats.scanned_ptes += visited;
        sys.stats.kernel_time += Nanos(120).scale(visited.max(1));
        active
    }

    fn profile(&mut self, sys: &mut TieredSystem) {
        if self.frontier.is_empty() {
            // Seed with the coarsest regions of every process.
            for pid in sys.pids().collect::<Vec<_>>() {
                let pages = sys.process(pid).space.pages();
                let mut start = 0;
                while start < pages {
                    self.frontier.push(Node {
                        pid,
                        start: Vpn(start),
                        pages: L2_PAGES.min(pages - start),
                        active_windows: 0,
                    });
                    start += L2_PAGES;
                }
            }
        }

        let mut next: Vec<Node> = Vec::with_capacity(self.frontier.len());
        let mut promote: Vec<(ProcessId, Vpn)> = Vec::new();
        let frontier = std::mem::take(&mut self.frontier);
        let mut budget = self.cfg.frontier_budget;

        for mut node in frontier {
            if budget == 0 {
                // Out of budget: keep the node unexamined for next window.
                next.push(node);
                continue;
            }
            budget -= 1;
            let active = Self::region_active(sys, &node);
            if !active {
                // Cold: collapse one level up by merging (approximated by
                // resetting to the coarse region), dropping leaf detail.
                node.active_windows = 0;
                if node.pages == 1 || node.pages == L1_PAGES {
                    // Re-aggregate into its L2 region; dedup below.
                    let l2_start = Vpn(node.start.0 / L2_PAGES * L2_PAGES);
                    if !next
                        .iter()
                        .any(|n| n.pid == node.pid && n.start == l2_start && n.pages >= L1_PAGES)
                    {
                        next.push(Node {
                            pid: node.pid,
                            start: l2_start,
                            pages: L2_PAGES,
                            active_windows: 0,
                        });
                    }
                } else {
                    next.push(node);
                }
                continue;
            }
            node.active_windows += 1;
            if node.pages > L1_PAGES {
                // Drill down into L1 children.
                let mut s = node.start.0;
                let end = node.start.0 + node.pages;
                while s < end {
                    next.push(Node {
                        pid: node.pid,
                        start: Vpn(s),
                        pages: L1_PAGES.min(end - s),
                        active_windows: 0,
                    });
                    s += L1_PAGES;
                }
            } else if node.pages > 1 {
                // Drill down into leaf pages.
                for off in 0..node.pages {
                    next.push(Node {
                        pid: node.pid,
                        start: Vpn(node.start.0 + off),
                        pages: 1,
                        active_windows: 0,
                    });
                }
            } else {
                // Leaf: promote after enough consecutive active windows.
                if node.active_windows >= self.cfg.hot_windows {
                    promote.push((node.pid, node.start));
                    node.active_windows = 0;
                }
                next.push(node);
            }
        }

        // Keep the frontier bounded: prefer fine-grained (hot) nodes.
        next.sort_by_key(|n| n.pages);
        next.truncate(self.cfg.frontier_budget * 4);
        self.frontier = next;

        for (pid, vpn) in promote {
            let pte = sys.process(pid).space.pte_page(vpn);
            if sys.process(pid).space.entry(pte).present()
                && sys.process(pid).space.entry(pte).tier() == TierId::SLOW
            {
                let _ = sys.promote_with_reclaim_to(pid, pte, TierId::FAST, MigrateMode::Async);
            }
        }
    }
}

impl TieringPolicy for Telescope {
    fn name(&self) -> &'static str {
        "Telescope"
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        self.frontier.clear();
        sys.schedule_in(self.cfg.window, encode_token(EV_PROFILE, 0, 0));
        sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, _, _) = decode_token(token);
        match kind {
            EV_PROFILE => {
                self.profile(sys);
                sys.schedule_in(self.cfg.window, encode_token(EV_PROFILE, 0, 0));
            }
            EV_DEMOTE => {
                let period = Nanos(self.cfg.window.as_nanos().saturating_mul(8));
                age_tier(sys, TierId::FAST, self.cfg.demote_interval, period);
                let target = sys.watermarks.high;
                demote_until(sys, TierId::FAST, target, 128, |sys, pid, vpn| {
                    let _ = sys.migrate(pid, vpn, TierId::SLOW, MigrateMode::Async);
                });
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
            }
            _ => unreachable!("unknown Telescope event {}", kind),
        }
    }

    fn on_hint_fault(
        &mut self,
        _sys: &mut TieredSystem,
        _pid: ProcessId,
        _vpn: Vpn,
        _write: bool,
        _res: &AccessResult,
    ) {
        // Telescope profiles with accessed bits only; no PTE poisoning.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_ts(run_ms: u64) -> (TieredSystem, Telescope) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Telescope::new(TelescopeConfig {
            window: Nanos::from_millis(10),
            frontier_budget: 512,
            hot_windows: 2,
            demote_interval: Nanos::from_millis(25),
        });
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        (sys, policy)
    }

    #[test]
    fn no_hint_faults() {
        let (sys, _) = run_ts(200);
        assert_eq!(sys.stats.hint_faults, 0);
    }

    #[test]
    fn drills_down_and_promotes() {
        let (sys, policy) = run_ts(500);
        assert!(sys.stats.promoted_pages > 0, "no promotions");
        assert!(policy.frontier_len() > 0, "frontier vanished");
    }

    #[test]
    fn profiling_cost_is_region_bounded() {
        // Telescope's pitch: profiling cost scales with the frontier, not
        // the address space. The scanned-PTE count per window must stay far
        // below a full-space scan.
        let (sys, _) = run_ts(300);
        let windows = 300 / 10;
        let per_window = sys.stats.scanned_ptes / windows;
        assert!(
            per_window < 4096 / 2,
            "profiled {} PTEs per window for a 4096-page space",
            per_window
        );
    }

    #[test]
    fn improves_fmar_over_static() {
        let (sys, _) = run_ts(600);
        assert!(sys.stats.fmar() > 0.3, "fmar {}", sys.stats.fmar());
    }
}
