//! Linux NUMA balancing on tiered memory (the paper's Linux-NB baseline).
//!
//! The vanilla `numa_balancing=2` scheme of Section 2.1: `task_numa_work`
//! periodically poisons a chunk of each task's address space with
//! `PROT_NONE`; any subsequent access hint-faults, and a fault on a page
//! resident in the CPU-less slow node triggers an immediate synchronous
//! promotion. This is effectively *most-recently-used* promotion — no
//! frequency information whatsoever — which is exactly the weakness the
//! paper builds on: every page, however lukewarm, gets promoted once per
//! scan period, churning the fast tier.

use sim_clock::Nanos;
use tiered_mem::{AccessResult, MigrateMode, PageFlags, ProcessId, TierId, TieredSystem, Vpn};

use crate::policy::{
    age_tier, decode_token, demote_until, encode_token, ScanCursor, TieringPolicy,
};

const EV_SCAN: u16 = 1;
const EV_KSWAPD: u16 = 2;

/// Configuration of the NUMA-balancing scanner.
#[derive(Debug, Clone)]
pub struct LinuxNbConfig {
    /// Full pass period over each address space (`scan_period_max`-ish).
    pub scan_period: Nanos,
    /// Pages marked per scan event (the kernel's 256 MB default = 65536
    /// base pages; scaled-down systems use proportionally smaller steps).
    pub scan_step_pages: u32,
    /// Promotion rate limit as a fraction of the fast tier per scan period.
    /// The kernel's tiering mode caps promotion at 256 MB/s
    /// (`numa_balancing_promote_rate_limit_MBps`), ≈ 23 % of the paper's
    /// 64 GB DRAM per 60 s scan period.
    pub promote_tier_frac_per_period: f64,
}

impl Default for LinuxNbConfig {
    fn default() -> Self {
        LinuxNbConfig {
            scan_period: Nanos::from_secs(60),
            scan_step_pages: 4096,
            promote_tier_frac_per_period: 0.23,
        }
    }
}

/// The Linux-NB baseline policy.
pub struct LinuxNumaBalancing {
    cfg: LinuxNbConfig,
    cursors: Vec<ScanCursor>,
    /// Remaining promotion budget in the current pacing window (pages).
    promo_budget: u32,
}

impl LinuxNumaBalancing {
    /// Creates the policy with kernel-default parameters.
    pub fn new(cfg: LinuxNbConfig) -> LinuxNumaBalancing {
        LinuxNumaBalancing {
            cfg,
            cursors: Vec::new(),
            promo_budget: 0,
        }
    }
}

impl TieringPolicy for LinuxNumaBalancing {
    fn name(&self) -> &'static str {
        "Linux-NB"
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        let cfg = &self.cfg;
        self.cursors = ScanCursor::arm(sys, cfg.scan_step_pages, cfg.scan_period, EV_SCAN, 0);
        sys.schedule_in(self.cfg.scan_period / 16, encode_token(EV_KSWAPD, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, pid_raw, _) = decode_token(token);
        match kind {
            EV_SCAN => {
                let pid = ProcessId(pid_raw);
                let cur = &mut self.cursors[pid_raw as usize];

                // Poison the next chunk with PROT_NONE; NUMA balancing marks
                // every present page regardless of tier (faults on fast pages
                // are "local" and migrate nothing, but still cost a fault —
                // part of NB's overhead).
                let marked = cur.step(sys, pid, token, |_, e| e.flags.set(PageFlags::PROT_NONE));
                sys.charge_scan(pid, marked.max(1));
                // LRU aging at scan-period timescale, spread across chunks.
                age_tier(sys, TierId::FAST, cur.event_interval, self.cfg.scan_period);
            }
            EV_KSWAPD => {
                // kswapd with v5.18 tiering-mode reclaim-demotion and
                // watermark boosting: refill the paced promotion budget and
                // demote enough inactive pages to serve it. The kernel caps
                // promotion at `numa_balancing_promote_rate_limit_MBps`
                // (256 MB/s); the resulting steady churn — promote whatever
                // faulted most recently, demote whatever kswapd found — is
                // what turns NB's placement into an MRU lottery.
                let refill = (sys.total_frames(TierId::FAST) as f64
                    * self.cfg.promote_tier_frac_per_period
                    / 16.0) as u32;
                self.promo_budget = refill;
                let target = sys.watermarks.high.saturating_add(refill);
                let budget = refill.saturating_mul(2).max(64);
                demote_until(sys, TierId::FAST, target, budget, |sys, vp, vv| {
                    let _ = sys.migrate(vp, vv, TierId::SLOW, MigrateMode::Async);
                });
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.scan_period / 16, encode_token(EV_KSWAPD, 0, 0));
            }
            _ => unreachable!("unknown Linux-NB event {}", kind),
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
        // MRU promotion: the touched page migrates synchronously, within the
        // pacing budget and only if the fast tier has free frames —
        // `migrate_misplaced_page` does not reclaim on its own.
        let pte = sys.process(pid).space.pte_page(vpn);
        if self.promo_budget > 0
            && sys.process(pid).space.entry(pte).tier() == TierId::SLOW
            && sys
                .migrate(pid, pte, TierId::FAST, MigrateMode::Sync(pid))
                .is_ok()
        {
            self.promo_budget -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_nb(run_ms: u64) -> (TieredSystem, crate::driver::RunResult) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = LinuxNumaBalancing::new(LinuxNbConfig {
            scan_period: Nanos::from_millis(50),
            scan_step_pages: 512,
            promote_tier_frac_per_period: 0.23,
        });
        let r = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        (sys, r)
    }

    #[test]
    fn scanning_generates_hint_faults() {
        let (sys, _r) = run_nb(200);
        assert!(sys.stats.hint_faults > 100, "{}", sys.stats.hint_faults);
        assert!(sys.stats.scanned_ptes > 1000);
    }

    #[test]
    fn faults_trigger_promotions() {
        let (sys, _r) = run_nb(200);
        assert!(
            sys.stats.promoted_pages > 50,
            "{}",
            sys.stats.promoted_pages
        );
    }

    #[test]
    fn promotion_is_mru_and_churns() {
        // With a working set far exceeding the fast tier and a scan-driven
        // fault rate, NB promotes far more pages than the fast tier can
        // hold — churn, visible as demotions of recently promoted pages.
        let (sys, _r) = run_nb(400);
        assert!(
            sys.stats.demoted_pages > 0,
            "reclaim should demote to make room"
        );
    }

    #[test]
    fn improves_fmar_over_nothing_on_skewed_load() {
        // Even MRU beats static placement on a skewed workload: hot pages
        // fault often and end up in DRAM more than cold ones.
        let (sys, _r) = run_nb(400);
        let static_fmar = {
            let mut sys2 = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
            sys2.add_process(w.address_space_pages(), PageSize::Base);
            let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
            let mut p = crate::policy::NullPolicy;
            SimulationDriver::new(DriverConfig {
                run_for: Nanos::from_millis(400),
                ..Default::default()
            })
            .run(&mut sys2, &mut wls, &mut p);
            sys2.stats.fmar()
        };
        assert!(
            sys.stats.fmar() > static_fmar,
            "NB {} vs static {}",
            sys.stats.fmar(),
            static_fmar
        );
    }
}
