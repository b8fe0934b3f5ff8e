//! Deterministic fault injection: seeded fault plans for the substrate.
//!
//! Real tiered systems are defined by how they behave when the substrate
//! stops being perfect: copies fail mid-flight, frames take uncorrectable
//! errors, tier capacity changes under the policy's feet, and interconnect
//! bandwidth degrades. A [`FaultPlan`] injects all four, driven entirely by
//! the sim-clock [`DetRng`] and the virtual clock — never wall time — so a
//! faulty run is exactly as replayable as a clean one: same plan + same
//! seed ⇒ byte-identical trace digests.
//!
//! The plan is strictly opt-in: with `SystemConfig::fault_plan == None` the
//! substrate draws zero random numbers and takes zero extra branches on the
//! hot paths, so every fault-free digest is unchanged.

use sim_clock::{DetRng, Nanos};

use crate::tier::TierId;

/// A scheduled hotplug-style capacity event on one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEvent {
    /// Virtual time at which the event fires.
    pub at: Nanos,
    /// What happens.
    pub kind: CapacityKind,
}

/// The hotplug directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityKind {
    /// Offline a fraction of the tier's current usable frames. Frames come
    /// out of the free pool; if the pool is short the shrink takes what it
    /// can now and the rest as demotion frees more.
    ShrinkTierFraction {
        /// Tier whose capacity shrinks.
        tier: TierId,
        /// Fraction (0..1) of current usable frames to offline.
        fraction: f64,
    },
    /// Bring up to this many previously offlined frames back online.
    GrowTierFrames {
        /// Tier whose capacity grows.
        tier: TierId,
        /// Offlined frames to bring back online (clamped to what exists).
        frames: u32,
    },
}

impl CapacityKind {
    /// The tier a capacity event targets.
    pub fn tier(&self) -> TierId {
        match *self {
            CapacityKind::ShrinkTierFraction { tier, .. }
            | CapacityKind::GrowTierFrames { tier, .. } => tier,
        }
    }
}

/// A scheduled tier-level failure-domain event: whole-device offline (with
/// an evacuation deadline), device-level degradation, or rejoin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierEvent {
    /// Virtual time at which the event fires.
    pub at: Nanos,
    /// The tier whose health changes. Tier 0 may degrade but never go
    /// offline ([`FaultPlan::validate_for`] rejects such plans).
    pub tier: TierId,
    /// What happens.
    pub kind: TierEventKind,
}

/// The tier health transitions a plan can schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TierEventKind {
    /// Take the tier offline. Evacuation starts immediately (emergency
    /// migration lane); at `deadline` any stragglers are force-drained to
    /// the nearest healthy neighbor or the swap backstop, the tier's frames
    /// are offlined, and the chain splices around the tier.
    Offline {
        /// Absolute time by which evacuation must complete.
        deadline: Nanos,
    },
    /// Degrade the tier's copy channel until `until` (health shows
    /// `Degrading`; copies targeting the tier pay `cost_multiplier`).
    Degrade {
        /// Window end (exclusive).
        until: Nanos,
        /// Copy-cost multiplier while degraded (`>= 1.0`).
        cost_multiplier: f64,
    },
    /// Bring an offline tier back: it re-enters as `Rejoining` and flips to
    /// `Online` on the next migration-completion pass, after which policies
    /// may rebalance onto it.
    Online,
}

/// A window during which one tier's migration-copy bandwidth is degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// The destination tier whose copy channel degrades.
    pub tier: TierId,
    /// Window start (inclusive).
    pub from: Nanos,
    /// Window end (exclusive).
    pub until: Nanos,
    /// Copy-cost multiplier while active (`>= 1.0`; 4.0 means the channel
    /// runs at a quarter of its healthy bandwidth).
    pub cost_multiplier: f64,
}

/// A deterministic fault plan. See the module docs; attach one via
/// [`crate::SystemConfig::fault_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's private [`DetRng`] (independent of every other
    /// RNG in the system so enabling faults perturbs nothing else).
    pub seed: u64,
    /// Probability that a due migration copy fails transiently (retryable:
    /// the reservation is released, the source copy stays authoritative).
    pub copy_transient: f64,
    /// Probability that a due migration copy fails permanently: one
    /// destination frame goes bad and is quarantined.
    pub copy_poison: f64,
    /// Scheduled capacity events, in firing order.
    pub capacity_events: Vec<CapacityEvent>,
    /// Channel degradation windows.
    pub degrade_windows: Vec<DegradeWindow>,
    /// Scheduled tier-level failure-domain events, in firing order.
    pub tier_events: Vec<TierEvent>,
}

impl FaultPlan {
    /// An inert plan: no probabilistic faults, no scheduled events. Useful
    /// as a base for builder-style construction and for tests that drive
    /// faults through the explicit APIs only.
    pub fn inert(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            copy_transient: 0.0,
            copy_poison: 0.0,
            capacity_events: Vec::new(),
            degrade_windows: Vec::new(),
            tier_events: Vec::new(),
        }
    }

    /// The canonical chaos plan of the acceptance bar: 1 % transient copy
    /// failure, 0.01 % poison, and one 25 % fast-tier shrink at the middle
    /// of a `run_for`-long run.
    pub fn canonical(seed: u64, run_for: Nanos) -> FaultPlan {
        FaultPlan {
            seed,
            copy_transient: 0.01,
            copy_poison: 0.0001,
            capacity_events: vec![CapacityEvent {
                at: Nanos(run_for.as_nanos() / 2),
                kind: CapacityKind::ShrinkTierFraction {
                    tier: TierId::FAST,
                    fraction: 0.25,
                },
            }],
            degrade_windows: Vec::new(),
            tier_events: Vec::new(),
        }
    }

    /// A high-rate storm plan for fuzzing: every fault class fires often
    /// enough that a few thousand ops exercise all of them.
    pub fn storm(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            copy_transient: 0.2,
            copy_poison: 0.05,
            capacity_events: Vec::new(),
            degrade_windows: Vec::new(),
            tier_events: Vec::new(),
        }
    }

    /// The three-tier-aware canonical plan: `canonical`'s copy-fault rates,
    /// a 25 % mid-tier (CXL) shrink at a quarter of the run, then the full
    /// failure-domain arc — mid-tier offline at the midpoint with an
    /// eighth-of-the-run evacuation deadline, rejoin at three quarters —
    /// while the bottom tier degrades under the evacuation load it absorbs.
    /// Requires a chain with at least three tiers
    /// ([`FaultPlan::validate_for`]).
    pub fn canonical3(seed: u64, run_for: Nanos) -> FaultPlan {
        let t = run_for.as_nanos();
        let mid = TierId(1);
        FaultPlan {
            seed,
            copy_transient: 0.01,
            copy_poison: 0.0001,
            capacity_events: vec![CapacityEvent {
                at: Nanos(t / 4),
                kind: CapacityKind::ShrinkTierFraction {
                    tier: mid,
                    fraction: 0.25,
                },
            }],
            degrade_windows: Vec::new(),
            tier_events: vec![
                TierEvent {
                    at: Nanos(t * 3 / 8),
                    tier: mid,
                    kind: TierEventKind::Degrade {
                        until: Nanos(t / 2),
                        cost_multiplier: 4.0,
                    },
                },
                TierEvent {
                    at: Nanos(t / 2),
                    tier: mid,
                    kind: TierEventKind::Offline {
                        deadline: Nanos(t / 2 + t / 8),
                    },
                },
                // The bottom tier soaks up the evacuation and slows down for
                // its duration; this also pins the plan to >= 3 tiers.
                TierEvent {
                    at: Nanos(t / 2),
                    tier: TierId(2),
                    kind: TierEventKind::Degrade {
                        until: Nanos(t * 5 / 8),
                        cost_multiplier: 2.0,
                    },
                },
                TierEvent {
                    at: Nanos(t * 3 / 4),
                    tier: mid,
                    kind: TierEventKind::Online,
                },
            ],
        }
    }

    /// The three-tier storm: `storm`'s copy-fault rates plus staggered
    /// offline/online cycles on both lower tiers and per-tier capacity
    /// wobble, packed into `run_for` so a short fuzz case exercises
    /// evacuation, splice, and rejoin on every failure domain.
    pub fn storm3(seed: u64, run_for: Nanos) -> FaultPlan {
        let t = run_for.as_nanos();
        FaultPlan {
            seed,
            copy_transient: 0.2,
            copy_poison: 0.05,
            capacity_events: vec![
                CapacityEvent {
                    at: Nanos(t / 8),
                    kind: CapacityKind::ShrinkTierFraction {
                        tier: TierId(2),
                        fraction: 0.2,
                    },
                },
                CapacityEvent {
                    at: Nanos(t * 7 / 8),
                    kind: CapacityKind::GrowTierFrames {
                        tier: TierId(2),
                        frames: u32::MAX,
                    },
                },
            ],
            degrade_windows: Vec::new(),
            tier_events: vec![
                TierEvent {
                    at: Nanos(t / 4),
                    tier: TierId(1),
                    kind: TierEventKind::Offline {
                        deadline: Nanos(t / 4 + t / 16),
                    },
                },
                TierEvent {
                    at: Nanos(t / 2),
                    tier: TierId(1),
                    kind: TierEventKind::Online,
                },
                TierEvent {
                    at: Nanos(t * 5 / 8),
                    tier: TierId(2),
                    kind: TierEventKind::Offline {
                        deadline: Nanos(t * 5 / 8 + t / 16),
                    },
                },
                TierEvent {
                    at: Nanos(t * 3 / 4),
                    tier: TierId(2),
                    kind: TierEventKind::Online,
                },
            ],
        }
    }

    /// Checks the plan against a chain of `num_tiers` tiers: every tier a
    /// capacity event, degrade window, or tier event references must exist,
    /// and tier 0 (the top of the chain) must never be taken offline.
    /// Returns a description of the first violation, so callers (the
    /// harness `--fault-plan` flag) can reject mismatched plan/topology
    /// combinations instead of silently no-opping.
    pub fn validate_for(&self, num_tiers: usize) -> Result<(), String> {
        let check = |what: &str, tier: TierId| -> Result<(), String> {
            if tier.index() >= num_tiers {
                return Err(format!(
                    "{what} references tier {} but the topology has only {num_tiers} tiers",
                    tier.index()
                ));
            }
            Ok(())
        };
        for e in &self.capacity_events {
            check("capacity event", e.kind.tier())?;
        }
        for w in &self.degrade_windows {
            check("degrade window", w.tier)?;
        }
        for e in &self.tier_events {
            check("tier event", e.tier)?;
            if matches!(e.kind, TierEventKind::Offline { .. }) && e.tier == TierId::FAST {
                return Err("tier event takes tier 0 offline; the top tier cannot fail".into());
            }
            if let TierEventKind::Offline { deadline } = e.kind {
                if deadline < e.at {
                    return Err(format!(
                        "tier {} offline at {} has deadline {} in the past",
                        e.tier.index(),
                        e.at.as_nanos(),
                        deadline.as_nanos()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Outcome of one copy-fault roll at migration-completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFault {
    /// The copy succeeded.
    None,
    /// The copy failed transiently; a retry may succeed.
    Transient,
    /// The copy failed permanently; a destination frame went bad.
    Poison,
}

/// Live fault-injection state: the plan plus its RNG and event cursor.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    next_event: usize,
    next_tier_event: usize,
}

impl FaultState {
    /// Instantiates a plan (sorts its capacity and tier events by firing
    /// time).
    pub fn new(mut plan: FaultPlan) -> FaultState {
        plan.capacity_events.sort_by_key(|e| e.at);
        plan.tier_events.sort_by_key(|e| e.at);
        FaultState {
            rng: DetRng::seed(plan.seed ^ 0x000F_A017_5EED),
            plan,
            next_event: 0,
            next_tier_event: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Rolls the copy-fault dice for one due migration. Draws from the RNG
    /// only when the corresponding probability is non-zero, so an inert
    /// plan consumes no randomness.
    pub fn roll_copy_fault(&mut self) -> CopyFault {
        if self.plan.copy_poison > 0.0 && self.rng.chance(self.plan.copy_poison) {
            return CopyFault::Poison;
        }
        if self.plan.copy_transient > 0.0 && self.rng.chance(self.plan.copy_transient) {
            return CopyFault::Transient;
        }
        CopyFault::None
    }

    /// Pops every capacity event due at or before `now`, in firing order.
    pub fn due_capacity_events(&mut self, now: Nanos) -> Vec<CapacityEvent> {
        let mut due = Vec::new();
        while let Some(e) = self.plan.capacity_events.get(self.next_event) {
            if e.at > now {
                break;
            }
            due.push(*e);
            self.next_event += 1;
        }
        due
    }

    /// Pops every tier event due at or before `now`, in firing order.
    pub fn due_tier_events(&mut self, now: Nanos) -> Vec<TierEvent> {
        let mut due = Vec::new();
        while let Some(e) = self.plan.tier_events.get(self.next_tier_event) {
            if e.at > now {
                break;
            }
            due.push(*e);
            self.next_tier_event += 1;
        }
        due
    }

    /// Whether any tier event is still pending (used by the completion pump
    /// to keep servicing the plan on otherwise-idle passes).
    pub fn tier_events_pending(&self) -> bool {
        self.next_tier_event < self.plan.tier_events.len()
    }

    /// Adds a degradation window at runtime (fuzz ops, procfs-style knobs).
    pub fn add_degrade_window(&mut self, w: DegradeWindow) {
        self.plan.degrade_windows.push(w);
    }

    /// The copy-cost multiplier for a destination tier at `now` (product of
    /// all active windows; 1.0 when the channel is healthy).
    pub fn cost_multiplier(&self, tier: TierId, now: Nanos) -> f64 {
        let mut m = 1.0;
        for w in &self.plan.degrade_windows {
            if w.tier == tier && w.from <= now && now < w.until {
                m *= w.cost_multiplier.max(1.0);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_rolls_no_faults_and_draws_nothing() {
        let mut a = FaultState::new(FaultPlan::inert(7));
        let fresh = FaultState::new(FaultPlan::inert(7));
        for _ in 0..100 {
            assert_eq!(a.roll_copy_fault(), CopyFault::None);
        }
        // Zero-probability rolls consumed no randomness: the RNG stream is
        // still byte-identical to a fresh state's.
        let mut b = fresh;
        a.plan.copy_transient = 1.0;
        b.plan.copy_transient = 1.0;
        for _ in 0..32 {
            assert_eq!(a.roll_copy_fault(), b.roll_copy_fault());
        }
    }

    #[test]
    fn fault_rolls_are_deterministic_per_seed() {
        let roll = |seed| {
            let mut s = FaultState::new(FaultPlan::storm(seed));
            (0..256).map(|_| s.roll_copy_fault()).collect::<Vec<_>>()
        };
        assert_eq!(roll(1), roll(1));
        assert_ne!(roll(1), roll(2));
        let outcomes = roll(1);
        assert!(outcomes.contains(&CopyFault::Transient));
        assert!(outcomes.contains(&CopyFault::Poison));
        assert!(outcomes.contains(&CopyFault::None));
    }

    #[test]
    fn capacity_events_fire_in_time_order_once() {
        let mut plan = FaultPlan::inert(0);
        plan.capacity_events = vec![
            CapacityEvent {
                at: Nanos(200),
                kind: CapacityKind::GrowTierFrames {
                    tier: TierId::FAST,
                    frames: 8,
                },
            },
            CapacityEvent {
                at: Nanos(100),
                kind: CapacityKind::ShrinkTierFraction {
                    tier: TierId::FAST,
                    fraction: 0.5,
                },
            },
        ];
        let mut s = FaultState::new(plan);
        assert!(s.due_capacity_events(Nanos(50)).is_empty());
        let due = s.due_capacity_events(Nanos(150));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, Nanos(100));
        let due = s.due_capacity_events(Nanos(10_000));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, Nanos(200));
        assert!(s.due_capacity_events(Nanos(u64::MAX)).is_empty());
    }

    #[test]
    fn degrade_windows_compose_and_expire() {
        let mut s = FaultState::new(FaultPlan::inert(0));
        s.add_degrade_window(DegradeWindow {
            tier: TierId::FAST,
            from: Nanos(100),
            until: Nanos(200),
            cost_multiplier: 2.0,
        });
        s.add_degrade_window(DegradeWindow {
            tier: TierId::FAST,
            from: Nanos(150),
            until: Nanos(300),
            cost_multiplier: 3.0,
        });
        assert_eq!(s.cost_multiplier(TierId::FAST, Nanos(50)), 1.0);
        assert_eq!(s.cost_multiplier(TierId::FAST, Nanos(120)), 2.0);
        assert_eq!(s.cost_multiplier(TierId::FAST, Nanos(160)), 6.0);
        assert_eq!(s.cost_multiplier(TierId::FAST, Nanos(250)), 3.0);
        assert_eq!(s.cost_multiplier(TierId::FAST, Nanos(300)), 1.0);
        assert_eq!(s.cost_multiplier(TierId::SLOW, Nanos(160)), 1.0);
    }

    #[test]
    fn tier_events_fire_in_time_order_once() {
        let mut plan = FaultPlan::inert(0);
        plan.tier_events = vec![
            TierEvent {
                at: Nanos(300),
                tier: TierId(1),
                kind: TierEventKind::Online,
            },
            TierEvent {
                at: Nanos(100),
                tier: TierId(1),
                kind: TierEventKind::Offline {
                    deadline: Nanos(200),
                },
            },
        ];
        let mut s = FaultState::new(plan);
        assert!(s.tier_events_pending());
        assert!(s.due_tier_events(Nanos(50)).is_empty());
        let due = s.due_tier_events(Nanos(150));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, Nanos(100));
        assert!(s.tier_events_pending());
        let due = s.due_tier_events(Nanos(10_000));
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0].kind, TierEventKind::Online));
        assert!(!s.tier_events_pending());
        assert!(s.due_tier_events(Nanos(u64::MAX)).is_empty());
    }

    #[test]
    fn validate_for_rejects_out_of_range_tiers_and_top_tier_offline() {
        let run = Nanos::from_millis(10);
        assert!(FaultPlan::canonical(1, run).validate_for(2).is_ok());
        assert!(FaultPlan::canonical3(1, run).validate_for(3).is_ok());
        assert!(FaultPlan::storm3(1, run).validate_for(3).is_ok());
        // Three-tier plans reference tier 1 / tier 2 and must be rejected
        // on a two-tier topology.
        assert!(FaultPlan::canonical3(1, run).validate_for(2).is_err());
        assert!(FaultPlan::storm3(1, run).validate_for(2).is_err());

        let mut p = FaultPlan::inert(0);
        p.tier_events.push(TierEvent {
            at: Nanos(10),
            tier: TierId::FAST,
            kind: TierEventKind::Offline {
                deadline: Nanos(20),
            },
        });
        assert!(p.validate_for(3).is_err(), "top tier cannot go offline");

        let mut p = FaultPlan::inert(0);
        p.tier_events.push(TierEvent {
            at: Nanos(100),
            tier: TierId(1),
            kind: TierEventKind::Offline {
                deadline: Nanos(50),
            },
        });
        assert!(p.validate_for(3).is_err(), "deadline before firing time");

        let mut p = FaultPlan::inert(0);
        p.degrade_windows.push(DegradeWindow {
            tier: TierId(3),
            from: Nanos(0),
            until: Nanos(10),
            cost_multiplier: 2.0,
        });
        assert!(p.validate_for(3).is_err(), "degrade window past the chain");
    }

    #[test]
    fn canonical3_schedules_the_full_failure_arc_on_the_mid_tier() {
        let p = FaultPlan::canonical3(9, Nanos::from_millis(80));
        let mid: Vec<_> = p
            .tier_events
            .iter()
            .filter(|e| e.tier == TierId(1))
            .collect();
        assert!(matches!(mid[0].kind, TierEventKind::Degrade { .. }));
        let TierEventKind::Offline { deadline } = mid[1].kind else {
            panic!("second mid-tier event must be the offline");
        };
        assert!(deadline > mid[1].at);
        assert!(deadline < mid[2].at, "rejoin after the deadline");
        assert!(matches!(mid[2].kind, TierEventKind::Online));
        // The bottom tier degrades while evacuation runs, which also pins
        // the plan to three-tier topologies.
        assert!(p
            .tier_events
            .iter()
            .any(|e| e.tier == TierId(2) && matches!(e.kind, TierEventKind::Degrade { .. })));
        assert!(matches!(
            p.capacity_events[0].kind,
            CapacityKind::ShrinkTierFraction {
                tier: TierId(1),
                ..
            }
        ));
    }

    #[test]
    fn canonical_plan_matches_acceptance_bar() {
        let p = FaultPlan::canonical(9, Nanos::from_millis(100));
        assert!((p.copy_transient - 0.01).abs() < 1e-12);
        assert!((p.copy_poison - 0.0001).abs() < 1e-12);
        assert_eq!(p.capacity_events.len(), 1);
        assert_eq!(p.capacity_events[0].at, Nanos::from_millis(50));
    }
}
