//! FlexMem (Xu et al., USENIX ATC '24).
//!
//! A synthetic criterion combining Memtis's PEBS histogram statistics with
//! the software page-fault method: PEBS counters supply the frequency
//! ranking, while NUMA hint faults supply *timeliness* — a sampled-hot page
//! that also hint-faults recently is promoted immediately instead of
//! waiting for the next migration epoch. Table 1 classifies it with Memtis
//! (0–10 access/sec effective scale, huge pages by default); the paper
//! describes it as "enhancing Memtis with timely migration decisions".

use sim_clock::Nanos;
use tiered_mem::{AccessResult, MigrateMode, PageFlags, ProcessId, TierId, TieredSystem, Vpn};

use crate::pebs::PebsSampler;
use crate::policy::{
    age_tier, decode_token, demote_until, encode_token, promote_deferred, ScanCursor, TieringPolicy,
};

const EV_SCAN: u16 = 1;
const EV_MIGRATE: u16 = 2;
const EV_COOL: u16 = 3;
const EV_DEMOTE: u16 = 4;

/// FlexMem configuration.
#[derive(Debug, Clone)]
pub struct FlexMemConfig {
    /// Mean accesses per PEBS sample.
    pub sample_period: u64,
    /// NUMA scan period (slow tier only, for the timeliness faults).
    pub scan_period: Nanos,
    /// Pages marked per scan event.
    pub scan_step_pages: u32,
    /// Deferred-promotion drain interval.
    pub migrate_interval: Nanos,
    /// Counter cooling interval.
    pub cooling_interval: Nanos,
    /// Counter value at which a page is sampled-hot.
    pub hot_counter: u32,
    /// Demotion daemon interval.
    pub demote_interval: Nanos,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for FlexMemConfig {
    fn default() -> Self {
        FlexMemConfig {
            sample_period: 997,
            scan_period: Nanos::from_secs(60),
            scan_step_pages: 4096,
            migrate_interval: Nanos::from_millis(100),
            cooling_interval: Nanos::from_secs(2),
            hot_counter: 4,
            demote_interval: Nanos::from_secs(2),
            seed: 0xF1E,
        }
    }
}

/// The FlexMem baseline policy.
pub struct FlexMem {
    cfg: FlexMemConfig,
    sampler: PebsSampler,
    cursors: Vec<ScanCursor>,
    deferred: Vec<(ProcessId, Vpn)>,
}

impl FlexMem {
    /// Creates the policy.
    pub fn new(cfg: FlexMemConfig) -> FlexMem {
        let sampler = PebsSampler::new(cfg.sample_period, cfg.seed);
        FlexMem {
            cfg,
            sampler,
            cursors: Vec::new(),
            deferred: Vec::new(),
        }
    }
}

impl TieringPolicy for FlexMem {
    fn name(&self) -> &'static str {
        "FlexMem"
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        let cfg = &self.cfg;
        self.cursors = ScanCursor::arm(sys, cfg.scan_step_pages, cfg.scan_period, EV_SCAN, 0);
        sys.schedule_in(self.cfg.migrate_interval, encode_token(EV_MIGRATE, 0, 0));
        sys.schedule_in(self.cfg.cooling_interval, encode_token(EV_COOL, 0, 0));
        sys.schedule_in(self.cfg.demote_interval, encode_token(EV_DEMOTE, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, pid_raw, _) = decode_token(token);
        match kind {
            EV_SCAN => {
                let pid = ProcessId(pid_raw);
                let visited = self.cursors[pid_raw as usize].step(sys, pid, token, |_, e| {
                    if e.tier() == TierId::SLOW {
                        e.flags.set(PageFlags::PROT_NONE);
                    }
                });
                sys.charge_scan(pid, visited.max(1));
            }
            EV_MIGRATE => {
                promote_deferred(sys, &mut self.deferred);
                sys.schedule_in(self.cfg.migrate_interval, encode_token(EV_MIGRATE, 0, 0));
            }
            EV_COOL => {
                for pid in sys.pids().collect::<Vec<_>>() {
                    let pages = sys.process(pid).space.pages();
                    sys.process_mut(pid)
                        .space
                        .walk_range(Vpn(0), pages, |_v, e| {
                            e.policy_extra >>= 1;
                        });
                }
                sys.schedule_in(self.cfg.cooling_interval, encode_token(EV_COOL, 0, 0));
            }
            EV_DEMOTE => {
                age_tier(
                    sys,
                    TierId::FAST,
                    self.cfg.demote_interval,
                    self.cfg.scan_period,
                );
                // Keep headroom above the plain watermarks so both the
                // deferred drain and the timeliness faults find free frames.
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
            _ => unreachable!("unknown FlexMem event {}", kind),
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
        // Synthetic criterion: a hint fault on a *sampled-warm* page
        // promotes immediately (frequency + recency evidence together);
        // pages the rate-capped sampler never saw fall back to the pure
        // page-fault method — promote on the second observed fault.
        let pte = sys.process(pid).space.pte_page(vpn);
        let e = sys.process_mut(pid).space.entry_mut(pte);
        if e.tier() != TierId::SLOW {
            return;
        }
        let sampled_warm = e.policy_extra >= self.cfg.hot_counter / 2;
        let second_fault = e.flags.has(PageFlags::POLICY_BIT);
        if sampled_warm || second_fault {
            e.flags.clear(PageFlags::POLICY_BIT);
            let _ = sys.promote_with_reclaim_to(pid, pte, TierId::FAST, MigrateMode::Sync(pid));
        } else {
            e.flags.set(PageFlags::POLICY_BIT);
        }
    }

    fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, _write: bool) {
        if !self.sampler.observe() {
            return;
        }
        let pte = sys.process(pid).space.pte_page(vpn);
        let hot = self.cfg.hot_counter;
        let e = sys.process_mut(pid).space.entry_mut(pte);
        e.policy_extra = e.policy_extra.saturating_add(1);
        if e.policy_extra >= hot && e.tier() == TierId::SLOW && !e.flags.has(PageFlags::CANDIDATE) {
            e.flags.set(PageFlags::CANDIDATE);
            self.deferred.push((pid, pte));
        }
        sys.stats.kernel_time += Nanos(100);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn run_fm(run_ms: u64) -> TieredSystem {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = FlexMem::new(FlexMemConfig {
            sample_period: 199,
            scan_period: Nanos::from_millis(50),
            scan_step_pages: 512,
            migrate_interval: Nanos::from_millis(5),
            cooling_interval: Nanos::from_millis(200),
            hot_counter: 4,
            demote_interval: Nanos::from_millis(25),
            seed: 3,
        });
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        sys
    }

    #[test]
    fn combines_faults_and_sampling() {
        let sys = run_fm(400);
        assert!(sys.stats.hint_faults > 0, "scan faults expected");
        assert!(sys.stats.promoted_pages > 0, "promotions expected");
    }

    #[test]
    fn beats_static_placement() {
        let sys = run_fm(500);
        assert!(sys.stats.fmar() > 0.3, "fmar {}", sys.stats.fmar());
    }

    #[test]
    fn cooling_keeps_counters_bounded() {
        let sys = run_fm(400);
        let pid = ProcessId(0);
        let max_counter = (0..sys.process(pid).space.pages())
            .map(|i| sys.process(pid).space.entry(Vpn(i)).policy_extra)
            .max()
            .unwrap_or(0);
        assert!(max_counter < 1_000_000, "counter runaway: {}", max_counter);
    }
}
