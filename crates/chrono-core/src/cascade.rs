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
//! - **Probe clears** (pages that lost `PG_probed`) are drained before every
//!   DCSC event and queued for each pair that lists the page; the pair
//!   settles them at its next expiry pass.
//!
//! The two-tier configuration is exactly one pair. It behaves identically
//! to a standalone [`ChronoPolicy`] on a healthy chain and under the
//! canonical fault plan, but not under tier outages: the cascade suspends a
//! pair whose lower tier is spliced out of the chain, and a standalone pair
//! has no tier-health handling at all (DESIGN.md §5.3).

use tiered_mem::{AccessResult, ProcessId, TierHealth, TierId, TieredSystem, Vpn, MAX_TIERS};
use tiering_policies::{decode_token, TieringPolicy};

use crate::config::ChronoConfig;
use crate::policy::{ChronoPolicy, EV_DCSC, EV_MIGRATE};

/// Cascaded Chrono: one [`ChronoPolicy`] per adjacent pair of managed tiers.
pub struct CascadeChrono {
    pairs: Vec<ChronoPolicy>,
    /// Per pair: pages it lists that lost `PG_probed` since its last DCSC
    /// round, in clear order.
    cleared: Vec<Vec<(ProcessId, Vpn)>>,
    /// Pairs whose lower tier is spliced out of the chain: their events
    /// reschedule without doing work until the tier rejoins.
    suspended: Vec<bool>,
    /// Whether any pair is currently suspended or retargeted, so healthy
    /// runs pay one read-only pass over the tier-health slice and one
    /// boolean check per event, and allocate nothing.
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
            cleared: vec![Vec::new(); pairs.len()],
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
    /// its home edge, after which this is a read-only check per event.
    fn sync_tier_health(&mut self, sys: &mut TieredSystem) {
        let healthy = sys
            .tier_health_all()
            .iter()
            .all(|h| matches!(h, TierHealth::Online));
        if healthy && !self.rerouted {
            return;
        }
        // The pairs take `sys` mutably below, so reroute from a copy.
        let health = sys.tier_health_all().to_vec();
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
        if kind == EV_DCSC {
            // The probe-clear log is global too. Probe lists change only at
            // DCSC events, so draining before each one queues every clear
            // for exactly the pairs that listed the page when it was cleared.
            let clears = sys.take_probe_clears();
            for (p, cleared) in self.pairs.iter().zip(&mut self.cleared) {
                let listed = clears
                    .iter()
                    .filter(|&&(pid, pte)| p.has_outstanding_probe(pid, pte));
                cleared.extend(listed);
            }
        }
        let i = tag as usize;
        if self.suspended[i] {
            self.pairs[i].suspend_tick(sys, token);
        } else if kind == EV_DCSC {
            self.pairs[i].dcsc_round(sys, &self.cleared[i]);
            self.cleared[i].clear();
        } else {
            self.pairs[i].on_event(sys, token);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{is_probed, DcscWork, PROBE_EXPIRY_PERIODS};
    use sim_clock::Nanos;
    use std::collections::BTreeSet;
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
        // policy on a healthy chain and under the canonical fault plan: same
        // promotion/demotion totals, same hint faults, same FMAR bits. Tier
        // outages differ by design (only the cascade suspends a pair).
        let canonical = tiered_mem::FaultPlan::canonical(7, Nanos::from_millis(300));
        for plan in [None, Some(canonical)] {
            let faulty = plan.is_some();
            let mut syscfg = SystemConfig::dram_pmem(1024, 4096);
            syscfg.fault_plan = plan;
            let (casc_sys, _) = run_cascade(syscfg.clone(), 300);
            let mut sys = TieredSystem::new(syscfg);
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
            let mut policy = ChronoPolicy::new(test_config());
            SimulationDriver::new(DriverConfig {
                run_for: Nanos::from_millis(300),
                ..Default::default()
            })
            .run(&mut sys, &mut wls, &mut policy);
            let (a, b) = (&casc_sys.stats, &sys.stats);
            assert_eq!(a.promoted_pages, b.promoted_pages);
            assert_eq!(a.demoted_pages, b.demoted_pages);
            assert_eq!(a.hint_faults, b.hint_faults);
            assert_eq!(a.fmar().to_bits(), b.fmar().to_bits());
            let copy_faults = a.transient_copy_faults + a.poisoned_copy_faults;
            assert_eq!(
                copy_faults,
                b.transient_copy_faults + b.poisoned_copy_faults
            );
            assert_eq!(
                copy_faults > 0,
                faulty,
                "the plan must fire exactly when set"
            );
        }
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
        for (i, p) in policy.pairs().iter().enumerate() {
            let (q, r) = (p.queue_flow(), p.retry_flow());
            assert!(q.conserved(), "pair {i} queue flow: {q:?}");
            assert!(r.conserved(), "pair {i} retry flow: {r:?}");
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
        for (i, p) in policy.pairs().iter().enumerate() {
            let (q, r) = (p.queue_flow(), p.retry_flow());
            assert!(q.conserved(), "pair {i} queue flow: {q:?}");
            assert!(r.conserved(), "pair {i} retry flow: {r:?}");
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
        for (i, p) in policy.pairs().iter().enumerate() {
            let f = p.retry_flow();
            assert!(f.conserved(), "pair {i} retry flow: {f:?}");
        }
        assert!(policy.suspended_pairs().iter().all(|s| !s));
    }

    /// The policy under check: a cascade, or a standalone pair.
    enum Inner {
        Cascade(CascadeChrono),
        Pair(Box<ChronoPolicy>),
    }

    impl Inner {
        fn pairs(&self) -> &[ChronoPolicy] {
            match self {
                Inner::Cascade(c) => c.pairs(),
                Inner::Pair(p) => std::slice::from_ref(p),
            }
        }

        fn suspended(&self, pair: usize) -> bool {
            match self {
                Inner::Cascade(c) => c.suspended_pairs()[pair],
                Inner::Pair(_) => false,
            }
        }

        fn policy(&mut self) -> &mut dyn TieringPolicy {
            match self {
                Inner::Cascade(c) => c,
                Inner::Pair(p) => p.as_mut(),
            }
        }
    }

    type Entry = (ProcessId, Vpn, Nanos);

    /// Paths a checked run reached, and what the full walk would have read.
    #[derive(Debug, Default)]
    struct Reached {
        /// Probe faults on a page both pairs listed.
        shared_faults: u64,
        /// Listed pages whose `PG_probed` a migration completion cleared.
        migrate_clears: u64,
        /// Listed pages whose `PG_probed` a swap-out cleared.
        swap_clears: u64,
        /// Entries the walk kept although their page lost `PG_probed`
        /// after it was listed (probed again by the other pair).
        revived: u64,
        /// Listed pages with an older entry still queued, summed over passes.
        relisted: u64,
        /// Entries the walk expired with a deposit.
        deposits: u64,
        /// Entries the walk dropped because their page lost `PG_probed`.
        dropped: u64,
        /// List entries the full walk read, summed over passes.
        walked: u64,
    }

    /// A policy wrapper that holds every pair's lazily maintained probe
    /// list to the full walk it replaced. It keeps its own copy of each
    /// pair's list. Before each DCSC event it runs the full walk on that
    /// copy against the PTE flags; afterwards the pair's live entries must
    /// be the walk's kept entries, in order, followed by the probes issued
    /// this round, the pair's deposit and drop counts must match the
    /// walk's, and its state bytes must agree with its list. Between
    /// passes no list may change, and every hint fault must find each
    /// pair's membership answer for the page equal to the copy's.
    struct WalkChecked {
        inner: Inner,
        /// Per pair: the reference copy of the list, and its pages.
        refs: Vec<Vec<Entry>>,
        ref_pages: Vec<BTreeSet<(ProcessId, Vpn)>>,
        /// Per pair: `(entries, live entries)` after its last pass.
        shapes: Vec<(usize, usize)>,
        /// Per pair: pages that lost `PG_probed` since its last pass (a
        /// superset of its listed ones; the walk only asks about those).
        lost: Vec<BTreeSet<(ProcessId, Vpn)>>,
        /// Reference pages that are `PG_probed`, as of the last boundary.
        armed: BTreeSet<(ProcessId, Vpn)>,
        /// Migrations completed plus pages swapped out, at the last boundary.
        substrate_mark: u64,
        reached: Reached,
    }

    impl WalkChecked {
        fn new(inner: Inner) -> WalkChecked {
            let n = inner.pairs().len();
            WalkChecked {
                inner,
                refs: vec![Vec::new(); n],
                ref_pages: vec![BTreeSet::new(); n],
                shapes: vec![(0, 0); n],
                lost: vec![BTreeSet::new(); n],
                armed: BTreeSet::new(),
                substrate_mark: 0,
                reached: Reached::default(),
            }
        }

        /// Between passes: no list changed, and each pair answers the
        /// membership of `page` as its reference copy does.
        fn check_unchanged(&self, page: Option<(ProcessId, Vpn)>) {
            for (i, p) in self.inner.pairs().iter().enumerate() {
                assert_eq!(
                    p.probe_list_shape(),
                    self.shapes[i],
                    "pair {i} list changed"
                );
                if let Some((pid, pte)) = page {
                    assert_eq!(
                        p.has_outstanding_probe(pid, pte),
                        self.ref_pages[i].contains(&(pid, pte)),
                        "pair {i} membership of {page:?} left the reference copy"
                    );
                }
            }
        }

        /// Marks `page` as having lost `PG_probed` for every pair.
        fn lose(&mut self, page: (ProcessId, Vpn)) {
            self.armed.remove(&page);
            for lost in &mut self.lost {
                lost.insert(page);
            }
        }

        /// Counts the substrate's `PG_probed` clears on reference pages
        /// since the last boundary. Outside DCSC events and the probe-fault
        /// path only migration completions and swap-outs clear the bit, and
        /// each bumps a substrate counter, so an unchanged counter means
        /// nothing to look for.
        fn substrate_boundary(&mut self, sys: &TieredSystem) {
            let mark = sys.stats.completed_migrations + sys.stats.swapped_out_pages;
            if mark == self.substrate_mark {
                return;
            }
            self.substrate_mark = mark;
            let cleared: Vec<_> = self
                .armed
                .iter()
                .copied()
                .filter(|&(pid, v)| !is_probed(sys, pid, v))
                .collect();
            for (pid, v) in cleared {
                if sys
                    .process(pid)
                    .space
                    .entry(v)
                    .flags
                    .has(PageFlags::SWAPPED)
                {
                    self.reached.swap_clears += 1;
                } else {
                    self.reached.migrate_clears += 1;
                }
                self.lose((pid, v));
            }
        }

        fn dcsc_event(&mut self, sys: &mut TieredSystem, token: u64, pair: usize) {
            let now = sys.clock.now();
            let p = &self.inner.pairs()[pair];
            let expiry = p.config().scan_period * PROBE_EXPIRY_PERIODS;
            let work = p.dcsc_work();
            // The full walk, on the reference copy.
            let (mut kept, mut deposited, mut dropped) = (Vec::new(), Vec::new(), 0);
            for &(pid, v, issued) in &self.refs[pair] {
                if !is_probed(sys, pid, v) {
                    dropped += 1;
                } else if now.saturating_sub(issued) < expiry {
                    kept.push((pid, v, issued));
                } else {
                    deposited.push((pid, v));
                }
            }
            let suspended = self.inner.suspended(pair);
            self.inner.policy().on_event(sys, token);
            if suspended {
                self.check_unchanged(None);
                return;
            }
            let p = &self.inner.pairs()[pair];
            if let Err(e) = p.check_probe_index() {
                panic!("pair {pair} state bytes disagree with its list: {e}");
            }
            let live = p.live_probes();
            let (old, new) = live.split_at(kept.len().min(live.len()));
            assert!(
                old == kept,
                "pair {pair} kept other entries than the full walk"
            );
            assert!(
                new.iter().all(|e| e.2 == now),
                "pair {pair} kept extra entries"
            );
            let work_now = p.dcsc_work();
            assert_eq!(
                work_now.expired_deposits - work.expired_deposits,
                deposited.len() as u64,
                "pair {pair} expiry deposits"
            );
            assert_eq!(
                work_now.dropped_cleared - work.dropped_cleared,
                dropped,
                "pair {pair} cleared-probe drops"
            );
            let (entries, live_entries) = p.probe_list_shape();
            assert!(
                entries - live_entries <= live_entries + new.len(),
                "pair {pair}: {entries} entries, {live_entries} live after a pass"
            );
            let r = &mut self.reached;
            r.revived += kept
                .iter()
                .filter(|&&(pid, v, _)| self.lost[pair].contains(&(pid, v)))
                .count() as u64;
            r.deposits += deposited.len() as u64;
            r.dropped += dropped;
            r.walked += self.refs[pair].len() as u64;
            r.relisted += p.relisted_pages() as u64;
            // The pass's own clears can hide behind a re-probe in this same
            // round; the other pairs' copies must still count them as lost.
            for page in deposited {
                self.lose(page);
            }
            self.shapes[pair] = (entries, live_entries);
            self.ref_pages[pair] = live.iter().map(|&(pid, v, _)| (pid, v)).collect();
            self.refs[pair] = live;
            self.lost[pair].clear();
            // Issuing set `PG_probed` on new pages and may have re-probed
            // pages other pairs list.
            self.armed = self
                .ref_pages
                .iter()
                .flatten()
                .copied()
                .filter(|&(pid, v)| is_probed(sys, pid, v))
                .collect();
        }
    }

    impl TieringPolicy for WalkChecked {
        fn name(&self) -> &'static str {
            match &self.inner {
                Inner::Cascade(c) => c.name(),
                Inner::Pair(p) => p.name(),
            }
        }

        fn init(&mut self, sys: &mut TieredSystem) {
            self.inner.policy().init(sys);
            self.substrate_mark = sys.stats.completed_migrations + sys.stats.swapped_out_pages;
            self.check_unchanged(None);
        }

        fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
            self.substrate_boundary(sys);
            let (kind, _, tag) = decode_token(token);
            if kind == EV_DCSC {
                self.dcsc_event(sys, token, tag as usize);
            } else {
                self.inner.policy().on_event(sys, token);
                self.substrate_boundary(sys);
                self.check_unchanged(None);
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
            self.substrate_boundary(sys);
            let pte = sys.process(pid).space.pte_page(vpn);
            self.check_unchanged(Some((pid, pte)));
            let shared = res.probed_fault
                && self.ref_pages.len() > 1
                && self.ref_pages.iter().all(|r| r.contains(&(pid, pte)));
            let rounds = |inner: &Inner| {
                inner
                    .pairs()
                    .iter()
                    .map(|p| p.probe_first_round(pid, pte))
                    .collect::<Vec<_>>()
            };
            let before = rounds(&self.inner);
            self.inner.policy().on_hint_fault(sys, pid, vpn, write, res);
            if shared {
                // Pair 0 took the round (its first-round slot flipped
                // between empty and full); pair 1 never saw the fault.
                let after = rounds(&self.inner);
                assert_ne!(before[0], after[0], "pair 0 skipped a shared probe fault");
                assert_eq!(before[1], after[1], "pair 1 took a shared probe fault");
                self.reached.shared_faults += 1;
            }
            // A completed probe is the policy's own clear.
            if self.armed.contains(&(pid, pte)) && !is_probed(sys, pid, pte) {
                self.lose((pid, pte));
            }
            self.substrate_boundary(sys);
            self.check_unchanged(Some((pid, pte)));
        }
    }

    /// Runs `inner` behind the walk check and returns what it reached.
    fn run_walk_checked(
        mut sys: TieredSystem,
        workload: Box<dyn Workload>,
        inner: Inner,
        run_ms: u64,
    ) -> (Reached, Vec<DcscWork>) {
        let mut wls = vec![workload];
        let mut policy = WalkChecked::new(inner);
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        let work = policy.inner.pairs().iter().map(|p| p.dcsc_work()).collect();
        (policy.reached, work)
    }

    /// Probes expire after two scan periods (50 ms here); the runs are long
    /// enough for the early ones to.
    fn walk_config() -> ChronoConfig {
        ChronoConfig {
            p_victim: 0.002,
            ..ChronoConfig::scaled(Nanos::from_millis(25), 256)
        }
    }

    #[test]
    fn lazy_expiry_equals_full_walk_on_churning_cascade() {
        // A small churn shape: the hot centre keeps moving, so both pairs
        // keep probing the shared middle tier.
        let pages = 8192;
        let mut sys = TieredSystem::new(SystemConfig::three_tier(1280, 2560, 6400));
        sys.add_process(pages, PageSize::Base);
        let w = PhasedWorkload::new(pages, vec![0.15, 0.65, 0.35, 0.85], 50_000, 0.5, 4242);
        let inner = Inner::Cascade(CascadeChrono::for_system(walk_config(), &sys));
        let (r, work) = run_walk_checked(sys, Box::new(w), inner, 150);
        assert!(r.deposits > 0, "no probe reached its expiry age: {r:?}");
        assert!(r.dropped > 0, "no listed probe lost PG_probed: {r:?}");
        assert!(
            r.migrate_clears > 0,
            "no migration cleared a listed probe: {r:?}"
        );
        assert!(r.revived > 0, "no cleared entry was probed again: {r:?}");
        assert!(
            r.shared_faults > 0,
            "no probe fault on a page both pairs list: {r:?}"
        );
        // The pass is O(dropped): its work stays within a small multiple of
        // what it issues and drops, while the full walk read every entry.
        let sum = |f: fn(&DcscWork) -> u64| work.iter().map(f).sum::<u64>();
        let touched = sum(|w| w.expiry_touched);
        let issued = sum(|w| w.probes_issued);
        let dropped = sum(|w| w.dropped_cleared + w.expired_deposits);
        assert!(sum(|w| w.random_draws) >= issued);
        assert!(
            touched <= 2 * (issued + dropped),
            "expiry touched {touched} entries for {issued} issued, {dropped} dropped"
        );
        assert!(
            r.walked >= 10 * touched,
            "the full walk would read {} entries, the lazy pass touched {touched}",
            r.walked
        );
    }

    #[test]
    fn lazy_expiry_equals_full_walk_on_a_standalone_pair() {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(4096, 0.7, 1));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let inner = Inner::Pair(Box::new(ChronoPolicy::new(walk_config())));
        let (r, _) = run_walk_checked(sys, Box::new(w), inner, 80);
        assert!(r.deposits > 0 && r.dropped > 0, "{r:?}");
        assert!(
            r.migrate_clears > 0,
            "no migration cleared a listed probe: {r:?}"
        );
    }

    #[test]
    fn lazy_expiry_drops_probes_cleared_by_swap_out() {
        // A cgroup limit below the working set keeps the limit enforcer
        // swapping slow-tier pages out, probed ones included.
        let pages = 4096;
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 4096));
        let pid = sys.add_process(pages, PageSize::Base);
        sys.set_memory_limit(pid, Some(3072));
        let w = PhasedWorkload::new(pages, vec![0.2, 0.7], 40_000, 0.5, 77);
        let inner = Inner::Pair(Box::new(ChronoPolicy::new(walk_config())));
        let (r, _) = run_walk_checked(sys, Box::new(w), inner, 80);
        assert!(
            r.swap_clears > 0,
            "no swap-out cleared a listed probe: {r:?}"
        );
        assert!(
            r.migrate_clears > 0,
            "no migration cleared a listed probe: {r:?}"
        );
        assert!(r.deposits > 0 && r.dropped > 0, "{r:?}");
    }

    #[test]
    fn lazy_expiry_equals_full_walk_on_a_tiny_address_space() {
        // 64 pages: the 4-probe floor re-lists the same pages many times
        // inside one expiry window, so dead entries pile up behind live
        // ones and compaction has to keep up.
        let pages = 64;
        let mut sys = TieredSystem::new(SystemConfig::three_tier(16, 24, 48));
        sys.add_process(pages, PageSize::Base);
        let w = PhasedWorkload::new(pages, vec![0.2, 0.7], 2_000, 0.5, 9);
        let inner = Inner::Cascade(CascadeChrono::for_system(walk_config(), &sys));
        let (r, _) = run_walk_checked(sys, Box::new(w), inner, 80);
        assert!(
            r.relisted > 0,
            "no page re-listed behind a queued entry: {r:?}"
        );
        assert!(r.revived > 0, "no cleared entry was probed again: {r:?}");
        // Every probe here completes long before it could expire.
        assert!(r.dropped > 0, "{r:?}");
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
