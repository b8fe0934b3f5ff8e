//! Cascaded Chrono over an N-tier chain.
//!
//! A [`CascadeChrono`] stacks one [`ChronoPolicy`] per adjacent tier pair of
//! the chain's managed tiers: pair `i` promotes `TierId(i+1) → TierId(i)`
//! and demotes the other way, so pages climb or sink one hop at a time —
//! the chain never teleports a page across an intermediate tier. Each pair
//! keeps its own CIT classification, candidate filter, promotion queue with
//! per-edge rate limit, DCSC heat-map pair, and thrashing monitor; the
//! cascade's job is pure routing:
//!
//! - **Events** carry the owning pair's index in the token's 32-bit arg
//!   (the `tag` every pair stamps into what it schedules).
//! - **Scan faults** go to the pair whose lower tier holds the page (the
//!   pair whose Ticking-scan poisoned the PTE).
//! - **Probe faults** go to the first pair that lists the page as an
//!   outstanding probe (an O(1) index lookup per pair) — a middle tier is
//!   sampled by two pairs, so PTE state alone is ambiguous.
//! - **Migration failures** are drained once per event and offered to every
//!   pair; each pair keeps only its own promotion edge's records.
//!
//! The two-tier configuration is exactly one pair and behaves identically
//! to a standalone [`ChronoPolicy`].

use tiered_mem::{AccessResult, ProcessId, TierHealth, TierId, TieredSystem, Vpn, MAX_TIERS};
use tiering_policies::{decode_token, TieringPolicy};

use crate::config::ChronoConfig;
use crate::policy::{ChronoPolicy, EV_MIGRATE};
use crate::queue::QueueFlow;
use crate::resilience::RetryFlow;

/// Cascaded Chrono: one [`ChronoPolicy`] per adjacent pair of managed tiers.
pub struct CascadeChrono {
    pairs: Vec<ChronoPolicy>,
    /// Pairs whose lower tier is spliced out of the chain: their events
    /// reschedule without doing work until the tier rejoins.
    suspended: Vec<bool>,
    /// Whether any pair is currently suspended or retargeted, so healthy
    /// runs pay one boolean check per event and nothing else.
    rerouted: bool,
    name: &'static str,
}

impl CascadeChrono {
    /// Builds a cascade over `tiers` managed tiers (so `tiers - 1` pairs).
    /// Every pair runs the same configuration; deeper pairs decorrelate
    /// their DCSC victim sampling by offsetting the RNG seed.
    pub fn new(cfg: ChronoConfig, tiers: usize) -> CascadeChrono {
        assert!(
            (2..=MAX_TIERS).contains(&tiers),
            "cascade needs 2..={MAX_TIERS} managed tiers, got {tiers}"
        );
        let pairs = (0..tiers - 1)
            .map(|i| {
                let mut pair_cfg = cfg.clone();
                pair_cfg.seed = cfg.seed.wrapping_add(i as u64 * 0x9E37_79B9);
                ChronoPolicy::new_pair(
                    pair_cfg,
                    tiered_mem::TierId(i as u8),
                    tiered_mem::TierId(i as u8 + 1),
                    i as u32,
                )
            })
            .collect::<Vec<_>>();
        let name = if pairs.len() == 1 {
            pairs[0].name()
        } else {
            "Chrono-DCSC"
        };
        CascadeChrono {
            suspended: vec![false; pairs.len()],
            rerouted: false,
            pairs,
            name,
        }
    }

    /// Builds the cascade sized to a system's managed tier count.
    pub fn for_system(cfg: ChronoConfig, sys: &TieredSystem) -> CascadeChrono {
        CascadeChrono::new(cfg, sys.config().num_tiers())
    }

    /// The per-pair policies, top edge first.
    pub fn pairs(&self) -> &[ChronoPolicy] {
        &self.pairs
    }

    /// Per-pair promotion-queue flow snapshots (for invariant checks).
    pub fn queue_flows(&self) -> Vec<QueueFlow> {
        self.pairs.iter().map(|p| p.queue_flow()).collect()
    }

    /// Per-pair retry flow snapshots (for invariant checks).
    pub fn retry_flows(&self) -> Vec<RetryFlow> {
        self.pairs.iter().map(|p| p.retry_flow()).collect()
    }

    /// Which pairs are currently suspended (lower tier spliced out).
    pub fn suspended_pairs(&self) -> &[bool] {
        &self.suspended
    }

    /// Re-derives per-pair routing from the substrate's tier health.
    ///
    /// Pair `i` always keeps its lower tier `i + 1` — scan-fault routing
    /// and every piece of per-pair scan state key on the lower tier. When
    /// that tier is spliced out the pair suspends (abandoning its retries
    /// and deferred work, tripping its breaker); otherwise its *upper* is
    /// retargeted to the nearest non-spliced tier at or above its home
    /// position, which is exactly the splice edge the substrate's
    /// `route_allowed` accepts. An all-Online chain restores every pair to
    /// its home edge and this becomes a single boolean check per event.
    fn sync_tier_health(&mut self, sys: &mut TieredSystem) {
        let health = sys.tier_health_all().to_vec();
        let any_unhealthy = health.iter().any(|h| !matches!(h, TierHealth::Online));
        if !any_unhealthy && !self.rerouted {
            return;
        }
        let mut rerouted = false;
        for i in 0..self.pairs.len() {
            let lower_out = health[i + 1].spliced_out();
            if lower_out && !self.suspended[i] {
                self.pairs[i].on_edge_down(sys);
            }
            self.suspended[i] = lower_out;
            let mut t = i;
            while t > 0 && health[t].spliced_out() {
                t -= 1;
            }
            let target = TierId(t as u8);
            if self.pairs[i].tier_pair().0 != target {
                self.pairs[i].retarget_upper(target);
            }
            rerouted |= lower_out || t != i;
        }
        self.rerouted = rerouted;
    }
}

impl TieringPolicy for CascadeChrono {
    fn name(&self) -> &'static str {
        self.name
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        for p in &mut self.pairs {
            p.init(sys);
        }
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        self.sync_tier_health(sys);
        let (kind, _pid, tag) = decode_token(token);
        if kind == EV_MIGRATE {
            // The failure channel is a single global drain; pull it once and
            // offer every record to every pair (each keeps only its edge's).
            let failures = sys.take_migration_failures();
            if !failures.is_empty() {
                let now = sys.clock.now();
                for p in &mut self.pairs {
                    p.ingest_failures(failures.iter().copied(), now);
                }
            }
        }
        if self.suspended[tag as usize] {
            self.pairs[tag as usize].suspend_tick(sys, token);
        } else {
            self.pairs[tag as usize].on_event(sys, token);
        }
    }

    fn on_hint_fault(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        vpn: Vpn,
        write: bool,
        res: &AccessResult,
    ) {
        if res.probed_fault {
            let pte = sys.process(pid).space.pte_page(vpn);
            // The pair that armed the probe owns both rounds (pair 0 first
            // when both list the page); fall back to the pair whose lower
            // tier holds the page if the record is gone (e.g. the probe
            // expired between rounds).
            let owner = self
                .pairs
                .iter()
                .position(|p| p.has_outstanding_probe(pid, pte))
                .or_else(|| self.pairs.iter().position(|p| p.tier_pair().1 == res.tier));
            if let Some(i) = owner {
                if !self.suspended[i] {
                    self.pairs[i].on_hint_fault(sys, pid, vpn, write, res);
                }
            }
            return;
        }
        // Scan fault: the poisoning pair is the one scanning this tier —
        // tier t is the lower tier of pair t-1. Faults on the top tier have
        // no scanning pair and are ignored (as the standalone policy does).
        let t = res.tier.index();
        if t >= 1 && t <= self.pairs.len() && !self.suspended[t - 1] {
            self.pairs[t - 1].on_hint_fault(sys, pid, vpn, write, res);
        }
    }

    fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, write: bool) {
        for p in &mut self.pairs {
            p.on_access(sys, pid, vpn, write);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::EV_DCSC;
    use sim_clock::Nanos;
    use tiered_mem::{PageFlags, PageSize, SystemConfig, TierId};
    use tiering_policies::{DriverConfig, SimulationDriver};
    use workloads::{PhasedWorkload, PmbenchConfig, PmbenchWorkload, Workload};

    fn test_config() -> ChronoConfig {
        ChronoConfig {
            p_victim: 0.002,
            ..ChronoConfig::scaled(Nanos::from_millis(50), 512)
        }
    }

    fn run_cascade(syscfg: SystemConfig, run_ms: u64) -> (TieredSystem, CascadeChrono) {
        let mut sys = TieredSystem::new(syscfg);
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = CascadeChrono::for_system(test_config(), &sys);
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        (sys, policy)
    }

    #[test]
    fn two_tier_cascade_matches_standalone_chrono_exactly() {
        // The cascade with one pair must be bit-identical to the standalone
        // policy: same access count, same promotion/demotion totals, same
        // FMAR bits.
        let (casc_sys, _) = run_cascade(SystemConfig::dram_pmem(1024, 4096), 300);
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = ChronoPolicy::new(test_config());
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(300),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert_eq!(casc_sys.stats.promoted_pages, sys.stats.promoted_pages);
        assert_eq!(casc_sys.stats.demoted_pages, sys.stats.demoted_pages);
        assert_eq!(casc_sys.stats.hint_faults, sys.stats.hint_faults);
        assert_eq!(casc_sys.stats.fmar().to_bits(), sys.stats.fmar().to_bits());
    }

    #[test]
    fn three_tier_cascade_migrates_on_both_edges() {
        let (sys, policy) = run_cascade(SystemConfig::three_tier(768, 1536, 4096), 500);
        assert_eq!(policy.pairs().len(), 2);
        assert!(sys.stats.promoted_pages > 0, "no promotions at all");
        // Both pairs must have seen scan faults land (their classifiers ran).
        for (i, p) in policy.pairs().iter().enumerate() {
            let (below, above) = p.scan_fault_split();
            assert!(below + above > 0, "pair {i} never classified a fault");
        }
        // Queue flow conserves on every edge.
        for (i, f) in policy.queue_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} queue flow: {f:?}");
        }
        for (i, f) in policy.retry_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} retry flow: {f:?}");
        }
    }

    #[test]
    fn three_tier_steady_state_populates_all_tiers() {
        let (sys, _policy) = run_cascade(SystemConfig::three_tier(768, 1536, 4096), 500);
        for t in 0..3 {
            assert!(
                sys.used_frames(TierId(t)) > 0,
                "tier {t} empty at steady state"
            );
        }
        // The hot set should concentrate on top: the top tier runs fuller
        // (relative to capacity) than the bottom.
        let occ =
            |t: u8| sys.used_frames(TierId(t)) as f64 / sys.total_frames(TierId(t)).max(1) as f64;
        assert!(
            occ(0) > occ(2),
            "top occupancy {:.2} should exceed bottom {:.2}",
            occ(0),
            occ(2)
        );
    }

    fn run_cascade_with_plan(
        mut syscfg: SystemConfig,
        plan: tiered_mem::FaultPlan,
        run_ms: u64,
    ) -> (TieredSystem, CascadeChrono) {
        syscfg.fault_plan = Some(plan);
        run_cascade(syscfg, run_ms)
    }

    fn mid_tier_outage_plan(seed: u64) -> tiered_mem::FaultPlan {
        use tiered_mem::{TierEvent, TierEventKind};
        let mut plan = tiered_mem::FaultPlan::inert(seed);
        plan.tier_events = vec![
            TierEvent {
                at: Nanos::from_millis(200),
                tier: TierId(1),
                kind: TierEventKind::Offline {
                    deadline: Nanos::from_millis(220),
                },
            },
            TierEvent {
                at: Nanos::from_millis(350),
                tier: TierId(1),
                kind: TierEventKind::Online,
            },
        ];
        plan
    }

    #[test]
    fn mid_tier_offline_evacuates_splices_and_rejoins() {
        let topo = || SystemConfig::three_tier(768, 1536, 4096);
        let healthy = run_cascade(topo(), 500).0.stats.fmar();
        let (sys, policy) = run_cascade_with_plan(topo(), mid_tier_outage_plan(5), 500);
        // The outage actually ran: pages were drained off the mid tier and
        // every evacuated page is accounted for exactly once.
        let s = &sys.stats;
        assert!(s.evacuated_pages > 0, "no evacuation happened");
        assert_eq!(
            s.evacuated_pages,
            s.evac_rehomed_pages
                + s.evac_swapped_pages
                + s.evac_faulted_pages
                + sys.in_flight_evac_pages(),
            "evacuation flow not conserved: {s:?}"
        );
        assert!(s.tier_health_transitions > 0);
        // The failing edge (pair 0, lower tier 1) tripped its breaker on
        // the way down; the surviving edge never tripped.
        assert!(
            policy.pairs()[0].breaker_trips() > 0,
            "edge 0 never tripped"
        );
        assert_eq!(
            policy.pairs()[1].breaker_trips(),
            0,
            "only the failing edge may trip"
        );
        // After the rejoin the chain healed: no pair suspended, the lower
        // pair promotes to its home tier again, and the mid tier repopulated.
        assert!(policy.suspended_pairs().iter().all(|s| !s));
        assert_eq!(policy.pairs()[1].tier_pair(), (TierId(1), TierId(2)));
        assert!(
            sys.used_frames(TierId(1)) > 0,
            "mid tier empty after rejoin"
        );
        // Losing a tier for 30% of the run costs some fast-tier hit rate,
        // but the acceptance bar holds: at least 75% of fault-free FMAR.
        let faulty = sys.stats.fmar();
        assert!(
            faulty >= healthy * 0.75,
            "FMAR {faulty} fell below 75% of fault-free {healthy}"
        );
        for (i, f) in policy.queue_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} queue flow: {f:?}");
        }
        for (i, f) in policy.retry_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} retry flow: {f:?}");
        }
    }

    #[test]
    fn retry_flow_stays_conserved_on_a_dying_edge() {
        // Transient copy faults keep the retry pools busy while the mid
        // tier dies and rejoins: every pool must still balance
        // `failed == retried + abandoned + pending` afterwards.
        let mut plan = mid_tier_outage_plan(7);
        plan.copy_transient = 0.3;
        let (sys, policy) =
            run_cascade_with_plan(SystemConfig::three_tier(768, 1536, 4096), plan, 500);
        assert!(sys.stats.transient_copy_faults > 0, "no faults injected");
        for (i, f) in policy.retry_flows().iter().enumerate() {
            assert!(f.conserved(), "pair {i} retry flow: {f:?}");
        }
        assert!(policy.suspended_pairs().iter().all(|s| !s));
    }

    /// A cascade that, after every hook, holds each pair's probe membership
    /// index to a reference scan of its outstanding list, and checks where
    /// probe faults on a page listed by both pairs land.
    struct IndexChecked {
        inner: CascadeChrono,
        /// Probe faults on a page both pairs listed.
        shared_faults: u64,
        /// Entries dropped by the expiry path (still `PG_probed` when their
        /// DCSC round began), so both drop paths are exercised.
        expired: u64,
    }

    impl IndexChecked {
        fn check(&self) {
            for (i, p) in self.inner.pairs().iter().enumerate() {
                if let Err(e) = p.check_probe_index() {
                    panic!("pair {i} probe index disagrees with its list: {e}");
                }
            }
        }
    }

    impl TieringPolicy for IndexChecked {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn init(&mut self, sys: &mut TieredSystem) {
            self.inner.init(sys);
            self.check();
        }

        fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
            let armed: Vec<Vec<(ProcessId, Vpn)>> = if decode_token(token).0 == EV_DCSC {
                let probed = |&(pid, v): &(ProcessId, Vpn)| {
                    sys.process(pid).space.entry(v).flags.has(PageFlags::PROBED)
                };
                let pairs = self.inner.pairs();
                pairs
                    .iter()
                    .map(|p| p.listed_pages().filter(probed).collect())
                    .collect()
            } else {
                Vec::new()
            };
            self.inner.on_event(sys, token);
            self.check();
            for (p, armed) in self.inner.pairs().iter().zip(armed) {
                let dropped = armed
                    .iter()
                    .filter(|&&(pid, v)| !p.has_outstanding_probe(pid, v));
                self.expired += dropped.count() as u64;
            }
        }

        fn on_hint_fault(
            &mut self,
            sys: &mut TieredSystem,
            pid: ProcessId,
            vpn: Vpn,
            write: bool,
            res: &AccessResult,
        ) {
            let pte = sys.process(pid).space.pte_page(vpn);
            let pairs = self.inner.pairs();
            let shared = res.probed_fault && pairs.iter().all(|p| p.listed_by_scan(pid, pte));
            let rounds = |c: &CascadeChrono| {
                c.pairs()
                    .iter()
                    .map(|p| p.probe_first_round(pid, pte))
                    .collect::<Vec<_>>()
            };
            let before = rounds(&self.inner);
            self.inner.on_hint_fault(sys, pid, vpn, write, res);
            if shared {
                // Pair 0 took the round (its first-round slot flipped
                // between empty and full); pair 1 never saw the fault.
                let after = rounds(&self.inner);
                assert_ne!(before[0], after[0], "pair 0 skipped a shared probe fault");
                assert_eq!(before[1], after[1], "pair 1 took a shared probe fault");
                self.shared_faults += 1;
            }
            self.check();
        }

        fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, write: bool) {
            self.inner.on_access(sys, pid, vpn, write);
        }
    }

    #[test]
    fn probe_index_matches_outstanding_lists_under_churn() {
        // A small churn shape: the hot centre keeps moving, so both pairs
        // keep probing the shared middle tier.
        let pages = 8192;
        let mut sys = TieredSystem::new(SystemConfig::three_tier(1280, 2560, 6400));
        sys.add_process(pages, PageSize::Base);
        let w = PhasedWorkload::new(pages, vec![0.15, 0.65, 0.35, 0.85], 50_000, 0.5, 4242);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        // Probes expire after two scan periods (50 ms here); the run is
        // long enough for the early ones to.
        let cfg = ChronoConfig {
            p_victim: 0.002,
            ..ChronoConfig::scaled(Nanos::from_millis(25), 256)
        };
        let mut policy = IndexChecked {
            inner: CascadeChrono::for_system(cfg, &sys),
            shared_faults: 0,
            expired: 0,
        };
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(80),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert!(policy.expired > 0, "no probe reached its expiry age");
        assert!(
            policy.shared_faults > 0,
            "no probe fault hit a page listed by both pairs"
        );
    }

    #[test]
    fn cascade_name_reflects_shape() {
        let two = CascadeChrono::new(test_config(), 2);
        assert_eq!(two.name(), "Chrono");
        let three = CascadeChrono::new(test_config(), 3);
        assert_eq!(three.name(), "Chrono-DCSC");
        assert_eq!(three.pairs().len(), 2);
        assert_eq!(three.pairs()[0].tier_pair(), (TierId(0), TierId(1)));
        assert_eq!(three.pairs()[1].tier_pair(), (TierId(1), TierId(2)));
    }
}
