//! Auto-Tiering (Kim et al., USENIX ATC '21), OPM-BD mode.
//!
//! Keeps an 8-bit LAP (least accessed page) vector per page, shifted once per
//! scan period, with the low bit set when the page hint-faulted during that
//! period (Section 2.3). Pages whose LAP vector shows enough recent activity
//! are promoted opportunistically on fault; a background daemon demotes cold
//! fast-tier pages. The effective frequency resolution is 0–1 access per
//! scan period per page — exactly the coarseness the paper criticizes — and
//! maintaining the LAP lists costs extra kernel time (the 14 % kernel
//! overhead of Fig 8).

use sim_clock::Nanos;
use tiered_mem::{AccessResult, MigrateMode, PageFlags, ProcessId, TierId, TieredSystem, Vpn};

use crate::policy::{
    age_tier, decode_token, demote_until, encode_token, ScanCursor, TieringPolicy,
};

const EV_SCAN: u16 = 1;
const EV_DEMOTE: u16 = 2;

/// Auto-Tiering configuration.
#[derive(Debug, Clone)]
pub struct AutoTieringConfig {
    /// Scan (LAP shift) period.
    pub scan_period: Nanos,
    /// Pages marked per scan event.
    pub scan_step_pages: u32,
    /// Bits that must be set in the LAP vector for a page to count as hot.
    pub hot_lap_bits: u32,
    /// Background demotion check interval.
    pub demote_interval: Nanos,
}

impl Default for AutoTieringConfig {
    fn default() -> Self {
        AutoTieringConfig {
            scan_period: Nanos::from_secs(60),
            scan_step_pages: 4096,
            hot_lap_bits: 2,
            demote_interval: Nanos::from_secs(5),
        }
    }
}

/// The Auto-Tiering baseline policy.
pub struct AutoTiering {
    cfg: AutoTieringConfig,
    cursors: Vec<ScanCursor>,
}

impl AutoTiering {
    /// Creates the policy.
    pub fn new(cfg: AutoTieringConfig) -> AutoTiering {
        AutoTiering {
            cfg,
            cursors: Vec::new(),
        }
    }
}

impl TieringPolicy for AutoTiering {
    fn name(&self) -> &'static str {
        "AutoTiering"
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        let cfg = &self.cfg;
        self.cursors = ScanCursor::arm(sys, cfg.scan_step_pages, cfg.scan_period, EV_SCAN, 0);
        sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, pid_raw, _) = decode_token(token);
        match kind {
            EV_SCAN => {
                let pid = ProcessId(pid_raw);
                let visited = self.cursors[pid_raw as usize].step(sys, pid, token, |_, e| {
                    // Shift the LAP vector; a fault during the coming period
                    // will set bit 0.
                    e.policy_extra = (e.policy_extra << 1) & 0xFF;
                    e.flags.set(PageFlags::PROT_NONE);
                });
                // LAP maintenance is far costlier than a plain PTE visit:
                // the vector update plus reshuffling pages across the
                // per-level LAP lists (the overhead behind Auto-Tiering's
                // 14 % kernel time in Fig 8, 2.2× the Linux-NB baseline).
                sys.charge_scan(pid, visited.saturating_mul(6).max(1));
            }
            EV_DEMOTE => {
                // Age the LRU at scan-period timescale, then demote.
                age_tier(
                    sys,
                    TierId::FAST,
                    self.cfg.demote_interval,
                    self.cfg.scan_period,
                );
                // Background demotion (the BD in OPM-BD) keeps fast-tier
                // headroom well above the plain watermarks so opportunistic
                // promotions usually find a free frame.
                let target = sys
                    .watermarks
                    .high
                    .saturating_add(sys.total_frames(TierId::FAST) / 32);
                demote_until(sys, TierId::FAST, target, 128, |sys, pid, vpn| {
                    let _ = sys.migrate(pid, vpn, TierId::SLOW, MigrateMode::Async);
                });
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
            }
            _ => unreachable!("unknown AutoTiering event {}", kind),
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
        let e = sys.process_mut(pid).space.entry_mut(pte);
        e.policy_extra |= 1;
        let hot = (e.policy_extra & 0xFF).count_ones() >= self.cfg.hot_lap_bits;
        if hot && e.tier() == TierId::SLOW {
            // Opportunistic promotion (OPM): migrate if the fast tier has a
            // free frame; otherwise rely on the background demotion daemon
            // to open headroom for a later attempt.
            let _ = sys.migrate(pid, pte, TierId::FAST, MigrateMode::Sync(pid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_at(run_ms: u64) -> TieredSystem {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = AutoTiering::new(AutoTieringConfig {
            scan_period: Nanos::from_millis(50),
            scan_step_pages: 512,
            hot_lap_bits: 2,
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
    fn lap_vector_gates_promotion() {
        // A page needs ≥2 faulting periods before promotion, so promotions
        // must be fewer than hint faults on slow pages.
        let sys = run_at(300);
        assert!(sys.stats.promoted_pages > 0);
        assert!(sys.stats.promoted_pages < sys.stats.hint_faults);
    }

    #[test]
    fn background_demotion_maintains_headroom() {
        let sys = run_at(500);
        assert!(sys.free_frames(TierId::FAST) > 0);
        assert!(sys.stats.demoted_pages > 0);
    }

    #[test]
    fn kernel_overhead_exceeds_linux_nb() {
        // LAP maintenance makes Auto-Tiering's kernel share the highest of
        // the baselines (Fig 8: 14.1 % vs 6.4 %).
        let at = run_at(300);
        let nb = {
            let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
            let mut policy =
                crate::linux_nb::LinuxNumaBalancing::new(crate::linux_nb::LinuxNbConfig {
                    scan_period: Nanos::from_millis(50),
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
            at.stats.kernel_time_fraction() > nb.stats.kernel_time_fraction(),
            "AT {} vs NB {}",
            at.stats.kernel_time_fraction(),
            nb.stats.kernel_time_fraction()
        );
    }

    #[test]
    fn lap_shift_keeps_history_bounded() {
        let sys = run_at(300);
        // All LAP vectors must fit in 8 bits.
        let pid = ProcessId(0);
        for i in 0..sys.process(pid).space.pages() {
            assert!(sys.process(pid).space.entry(Vpn(i)).policy_extra <= 0xFF);
        }
    }
}
