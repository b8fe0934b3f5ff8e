//! TPP — Transparent Page Placement (Maruf et al., ASPLOS '23).
//!
//! Combines NUMA hint faults with an LRU *recency* gate: a slow-tier page is
//! promoted only if it is already on the active LRU list (i.e., it has shown
//! recent reuse); a first fault merely activates it. TPP also decouples
//! allocation from reclaim with proactive, watermark-driven demotion of
//! inactive fast-tier pages, so promotions usually find free frames. The
//! promotion criterion is still "faulted + recently used" — a 0–2
//! accesses/minute resolution per Table 1 — so warm and hot pages remain
//! indistinguishable.

use sim_clock::Nanos;
use tiered_mem::{
    scan_budget_pages, AccessResult, LruKind, MigrateMode, PageFlags, ProcessId, TierId,
    TieredSystem, Vpn,
};

use crate::policy::{decode_token, encode_token, ScanCursor, TieringPolicy};

const EV_SCAN: u16 = 1;
const EV_DEMOTE: u16 = 2;

/// TPP configuration.
#[derive(Debug, Clone)]
pub struct TppConfig {
    /// NUMA scan period (slow tier only — TPP's scan optimization).
    pub scan_period: Nanos,
    /// Pages marked per scan event.
    pub scan_step_pages: u32,
    /// Demotion daemon interval (kswapd-style).
    pub demote_interval: Nanos,
}

impl Default for TppConfig {
    fn default() -> Self {
        TppConfig {
            scan_period: Nanos::from_secs(60),
            scan_step_pages: 4096,
            demote_interval: Nanos::from_secs(2),
        }
    }
}

/// The TPP baseline policy.
///
/// Over a longer tier chain the mechanism generalizes hop-wise: the scan
/// poisons every non-top managed tier, a recency-gated fault promotes the
/// page one hop toward the top, and the demotion daemon runs per tier,
/// pushing inactive pages one hop down — the cascaded shape Meta describes
/// for multi-NUMA-class systems.
pub struct Tpp {
    cfg: TppConfig,
    cursors: Vec<ScanCursor>,
    /// Managed tiers the policy operates across (2 = classic TPP).
    tiers: usize,
}

impl Tpp {
    /// Creates the classic two-tier policy.
    pub fn new(cfg: TppConfig) -> Tpp {
        Tpp::for_tiers(cfg, 2)
    }

    /// Creates the policy over `tiers` managed tiers.
    pub fn for_tiers(cfg: TppConfig, tiers: usize) -> Tpp {
        assert!(
            (2..=tiered_mem::MAX_TIERS).contains(&tiers),
            "TPP needs 2..={} managed tiers, got {tiers}",
            tiered_mem::MAX_TIERS
        );
        Tpp {
            cfg,
            cursors: Vec::new(),
            tiers,
        }
    }
}

impl TieringPolicy for Tpp {
    fn name(&self) -> &'static str {
        match self.tiers {
            2 => "TPP",
            3 => "TPP-3",
            _ => "TPP-N",
        }
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        self.cursors.clear();
        for pid in sys.pids().collect::<Vec<_>>() {
            let pages = sys.process(pid).space.pages();
            let cursor = ScanCursor::new(pages, self.cfg.scan_step_pages, self.cfg.scan_period);
            sys.schedule_in(cursor.event_interval, encode_token(EV_SCAN, pid.0, 0));
            self.cursors.push(cursor);
        }
        sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, pid_raw, _) = decode_token(token);
        match kind {
            EV_SCAN => {
                let pid = ProcessId(pid_raw);
                let cur = &mut self.cursors[pid_raw as usize];
                let mut visited = 0u64;
                cur.cursor =
                    sys.process_mut(pid)
                        .space
                        .walk_range(cur.cursor, cur.step_pages, |_vpn, e| {
                            visited += 1;
                            // TPP only poisons CPU-less-node (non-top) pages,
                            // halving scan-fault overhead vs. vanilla NB.
                            if e.tier() != TierId::FAST {
                                e.flags.set(PageFlags::PROT_NONE);
                            }
                        });
                sys.charge_scan(pid, visited.max(1));
                let interval = cur.event_interval;
                sys.schedule_in(interval, encode_token(EV_SCAN, pid.0, 0));
            }
            EV_DEMOTE => {
                // Cascaded demotion daemon, top tier down: each non-terminal
                // tier ages its LRU at scan-period timescale, then pushes
                // inactive pages one hop down to hold free-frame headroom.
                for t in 0..(self.tiers - 1) as u8 {
                    let tier = TierId(t);
                    let age_budget = scan_budget_pages(
                        sys.total_frames(tier),
                        self.cfg.demote_interval,
                        self.cfg.scan_period,
                    );
                    sys.age_active_list(tier, age_budget.max(16));
                    // The system watermarks are sized for the top tier;
                    // deeper tiers hold a fixed 1/32 headroom instead.
                    let high = if t == 0 {
                        sys.watermarks.high
                    } else {
                        (sys.total_frames(tier) / 32).max(1)
                    };
                    let mut budget = 256u32;
                    while sys.free_frames(tier) < high && budget > 0 {
                        budget -= 1;
                        match sys.pop_inactive_victim(tier) {
                            Some((pid, vpn)) => {
                                let _ = sys.migrate(pid, vpn, TierId(t + 1), MigrateMode::Async);
                            }
                            None => break,
                        }
                    }
                }
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
            }
            _ => unreachable!("unknown TPP event {}", kind),
        }
    }

    fn on_hint_fault(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        vpn: Vpn,
        _write: bool,
        _res: &AccessResult,
    ) {
        let pte = sys.process(pid).space.pte_page(vpn);
        let e = sys.process(pid).space.entry(pte);
        let t = e.tier();
        if t == TierId::FAST {
            return;
        }
        if e.flags.has(PageFlags::LRU_ACTIVE) {
            // Recency gate passed: the page was already activated by a prior
            // fault, so this is its second observed touch — promote one hop
            // toward the top.
            let dest = TierId(t.0 - 1);
            let _ = sys.promote_with_reclaim_to(pid, pte, dest, MigrateMode::Sync(pid));
        } else {
            // First observed touch: activate, don't promote yet.
            sys.lru_insert(pid, pte, LruKind::Active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_tpp(run_ms: u64) -> TieredSystem {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Tpp::new(TppConfig {
            scan_period: Nanos::from_millis(40),
            scan_step_pages: 512,
            demote_interval: Nanos::from_millis(20),
        });
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        sys
    }

    #[test]
    fn fig10_shape_leaves_the_probe_clear_log_empty() {
        // Nothing drains the substrate's probe-clear log under TPP, so it
        // must never grow: TPP sets no `PG_probed`, and only set bits are
        // logged, however much the run migrates and swaps.
        let pages = 8192;
        let mut sys = TieredSystem::new(SystemConfig::quarter_fast(pages + pages / 4));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.95, 1010));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Tpp::new(TppConfig {
            scan_period: Nanos::from_millis(40),
            scan_step_pages: 512,
            demote_interval: Nanos::from_millis(10),
        });
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(300),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert!(sys.stats.promoted_pages > 0 && sys.stats.demoted_pages > 0);
        assert!(sys.take_probe_clears().is_empty());
    }

    #[test]
    fn scans_only_poison_slow_pages() {
        // Fast-tier pages never hint-fault under TPP, so hint faults must be
        // well below what Linux-NB (which marks everything) generates.
        let tpp = run_tpp(300);
        let nb = {
            let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
            let mut policy =
                crate::linux_nb::LinuxNumaBalancing::new(crate::linux_nb::LinuxNbConfig {
                    scan_period: Nanos::from_millis(40),
                    scan_step_pages: 512,
                    promote_tier_frac_per_period: 0.23,
                });
            SimulationDriver::new(DriverConfig {
                run_for: Nanos::from_millis(300),
                ..Default::default()
            })
            .run(&mut sys, &mut wls, &mut policy);
            sys
        };
        assert!(
            tpp.stats.hint_faults < nb.stats.hint_faults,
            "TPP {} vs NB {}",
            tpp.stats.hint_faults,
            nb.stats.hint_faults
        );
    }

    #[test]
    fn two_touch_gate_reduces_promotions() {
        let sys = run_tpp(300);
        // Promotions happen, but each requires two faults, so the count is
        // below the slow-tier hint-fault count.
        assert!(sys.stats.promoted_pages > 0);
        assert!(sys.stats.promoted_pages < sys.stats.hint_faults);
    }

    #[test]
    fn proactive_demotion_keeps_headroom() {
        let sys = run_tpp(500);
        assert!(
            sys.free_frames(TierId::FAST) > 0,
            "demotion daemon should maintain free frames"
        );
        assert!(sys.stats.demoted_pages > 0);
    }

    #[test]
    fn three_tier_tpp_populates_every_tier() {
        let mut sys = TieredSystem::new(SystemConfig::three_tier(768, 1536, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Tpp::for_tiers(
            TppConfig {
                scan_period: Nanos::from_millis(40),
                scan_step_pages: 512,
                demote_interval: Nanos::from_millis(20),
            },
            3,
        );
        assert_eq!(policy.name(), "TPP-3");
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(500),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert!(sys.stats.promoted_pages > 0);
        assert!(sys.stats.demoted_pages > 0);
        for t in 0..3 {
            assert!(sys.used_frames(TierId(t)) > 0, "tier {t} empty");
        }
    }
}
