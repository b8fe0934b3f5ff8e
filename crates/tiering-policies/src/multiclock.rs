//! Multi-Clock (Maruf et al., HPCA '22).
//!
//! Extends the kernel's clock page-reclamation algorithm with multi-level
//! LRU lists driven purely by hardware accessed bits — no forced page
//! faults, hence Multi-Clock's low context-switch rate in Fig 8. Each scan
//! period, a clock hand sweeps the address spaces: pages with the accessed
//! bit set climb one level (bit cleared), idle pages sink one level.
//! Slow-tier pages at the top level are promoted; fast-tier pages at the
//! bottom level are demoted under memory pressure. The frequency resolution
//! is still 0–1 observed access per sweep — levels encode *recency streaks*,
//! not rates.

use sim_clock::Nanos;
use tiered_mem::{
    AccessResult, LruKind, MigrateMode, PageFlags, ProcessId, TierId, TieredSystem, Vpn,
};

use crate::policy::{
    age_tier, decode_token, demote_until, encode_token, lower_tier_headroom, ScanCursor,
    TieringPolicy,
};

const EV_SWEEP: u16 = 1;
const EV_DEMOTE: u16 = 2;

/// Multi-Clock configuration.
#[derive(Debug, Clone)]
pub struct MultiClockConfig {
    /// Clock sweep period over each address space.
    pub sweep_period: Nanos,
    /// Pages visited per sweep event.
    pub sweep_step_pages: u32,
    /// Number of LRU levels (the paper's multi-level lists).
    pub levels: u32,
    /// Level at which a slow-tier page becomes a promotion candidate.
    pub promote_level: u32,
    /// Demotion check interval.
    pub demote_interval: Nanos,
}

impl Default for MultiClockConfig {
    fn default() -> Self {
        MultiClockConfig {
            sweep_period: Nanos::from_secs(60),
            sweep_step_pages: 4096,
            levels: 4,
            promote_level: 3,
            demote_interval: Nanos::from_secs(5),
        }
    }
}

/// The Multi-Clock baseline policy.
///
/// On a longer chain the multi-level-LRU mechanism cascades hop-wise: the
/// sweep still grades every page by recency streak, a non-top page reaching
/// the promote level climbs one hop, and the demotion daemon runs per tier,
/// pushing bottom-level pages one hop down.
pub struct MultiClock {
    cfg: MultiClockConfig,
    cursors: Vec<ScanCursor>,
    /// Managed tiers the policy operates across (2 = classic Multi-Clock).
    tiers: usize,
}

impl MultiClock {
    /// Creates the policy over `tiers` managed tiers (2 = the classic
    /// two-tier policy).
    pub fn for_tiers(cfg: MultiClockConfig, tiers: usize) -> MultiClock {
        assert!(
            (2..=tiered_mem::MAX_TIERS).contains(&tiers),
            "Multi-Clock needs 2..={} managed tiers, got {tiers}",
            tiered_mem::MAX_TIERS
        );
        MultiClock {
            cfg,
            cursors: Vec::new(),
            tiers,
        }
    }
}

impl TieringPolicy for MultiClock {
    fn name(&self) -> &'static str {
        match self.tiers {
            2 => "MultiClock",
            3 => "MultiClock-3",
            _ => "MultiClock-N",
        }
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        let cfg = &self.cfg;
        self.cursors = ScanCursor::arm(sys, cfg.sweep_step_pages, cfg.sweep_period, EV_SWEEP, 0);
        sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, pid_raw, _) = decode_token(token);
        match kind {
            EV_SWEEP => {
                let pid = ProcessId(pid_raw);
                let top = self.cfg.promote_level;
                let max_level = self.cfg.levels - 1;
                let mut promote: Vec<(Vpn, TierId)> = Vec::new();
                let visited = self.cursors[pid_raw as usize].step(sys, pid, token, |vpn, e| {
                    let level = e.policy_extra;
                    if e.flags.has(PageFlags::ACCESSED) {
                        e.flags.clear(PageFlags::ACCESSED);
                        e.policy_extra = (level + 1).min(max_level);
                        let t = e.tier();
                        if t != TierId::FAST && e.policy_extra >= top {
                            // Climb one hop toward the top tier.
                            promote.push((vpn, TierId(t.0 - 1)));
                        }
                    } else {
                        e.policy_extra = level.saturating_sub(1);
                    }
                });
                // Sweeping reads/clears accessed bits; no faults are forced.
                sys.charge_scan(pid, visited.max(1));
                for (vpn, dest) in promote {
                    // Opportunistic: promote into available headroom; the
                    // demotion daemon opens space at its own pace. Forcing
                    // reclaim here would let one process's sweep evict
                    // another's working set wholesale.
                    let _ = sys.migrate(pid, vpn, dest, MigrateMode::Async);
                }
            }
            EV_DEMOTE => {
                // Cascaded demotion, top tier down: each non-terminal tier
                // ages its LRU at sweep-period timescale, then demotes
                // bottom-level pages one hop to keep promotion headroom.
                for t in 0..(self.tiers - 1) as u8 {
                    let tier = TierId(t);
                    age_tier(sys, tier, self.cfg.demote_interval, self.cfg.sweep_period);
                    let target = if t == 0 {
                        sys.watermarks
                            .high
                            .saturating_add(sys.total_frames(tier) / 32)
                    } else {
                        lower_tier_headroom(sys, tier)
                    };
                    demote_until(sys, tier, target, 128, |sys, pid, vpn| {
                        // Respect levels: only genuinely cold pages leave.
                        if sys.process(pid).space.entry(vpn).policy_extra == 0 {
                            let _ = sys.migrate(pid, vpn, TierId(t + 1), MigrateMode::Async);
                        } else {
                            // Referenced at some level: rotate back.
                            sys.lru_insert(pid, vpn, LruKind::Active);
                        }
                    });
                }
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
            }
            _ => unreachable!("unknown MultiClock event {}", kind),
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
        // Multi-Clock never poisons PTEs, so it installs no fault handler.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_mc(run_ms: u64) -> TieredSystem {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = MultiClock::for_tiers(
            MultiClockConfig {
                sweep_period: Nanos::from_millis(40),
                sweep_step_pages: 512,
                levels: 4,
                promote_level: 3,
                demote_interval: Nanos::from_millis(20),
            },
            2,
        );
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        sys
    }

    #[test]
    fn no_hint_faults_at_all() {
        let sys = run_mc(300);
        assert_eq!(
            sys.stats.hint_faults, 0,
            "Multi-Clock must not force faults"
        );
    }

    #[test]
    fn hot_pages_climb_and_promote() {
        let sys = run_mc(500);
        assert!(sys.stats.promoted_pages > 0, "{}", sys.stats.promoted_pages);
    }

    #[test]
    fn levels_stay_bounded() {
        let sys = run_mc(300);
        let pid = ProcessId(0);
        for i in 0..sys.process(pid).space.pages() {
            assert!(sys.process(pid).space.entry(Vpn(i)).policy_extra < 4);
        }
    }

    #[test]
    fn three_tier_multiclock_populates_every_tier() {
        let mut sys = TieredSystem::new(SystemConfig::three_tier(768, 1536, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = MultiClock::for_tiers(
            MultiClockConfig {
                sweep_period: Nanos::from_millis(40),
                sweep_step_pages: 512,
                levels: 4,
                promote_level: 3,
                demote_interval: Nanos::from_millis(20),
            },
            3,
        );
        assert_eq!(policy.name(), "MultiClock-3");
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(500),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert_eq!(
            sys.stats.hint_faults, 0,
            "Multi-Clock must not force faults"
        );
        assert!(sys.stats.promoted_pages > 0);
        for t in 0..3 {
            assert!(sys.used_frames(TierId(t)) > 0, "tier {t} empty");
        }
    }

    #[test]
    fn context_switch_rate_lower_than_nb() {
        // The Fig 8 claim: lowest context switches because no forced faults.
        let mc = run_mc(300);
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
            mc.stats.context_switch_rate() < nb.stats.context_switch_rate(),
            "MC {} vs NB {}",
            mc.stats.context_switch_rate(),
            nb.stats.context_switch_rate()
        );
    }
}
