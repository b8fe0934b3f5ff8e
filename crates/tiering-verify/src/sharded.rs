//! Sharded (multi-tenant) policy runs with cross-shard invariant checking.
//!
//! This is the verification face of the `tiering_policies::shard` runner:
//! it derives a deterministic multi-tenant case from a seed (partitioned
//! frame pools, skewed tenant weights, per-tenant workload streams split
//! from the run seed), runs it at any worker-thread count, and checks three
//! cross-shard invariants on top of the per-shard oracle sweep (which runs
//! at every barrier and on every final shard, so each tenant's migration
//! slot flow is the oracle's `migration_flow`):
//!
//! - **global frame conservation across shards** — in every tier, each
//!   shard's capacity still equals its partition and the capacities sum to
//!   the plan's global pool (no frames created, destroyed, or silently
//!   shared);
//! - **PFN exclusivity across tenants** — the partition plan is contiguous,
//!   disjoint, and exhaustive, and every shard's tables are sized to its
//!   partition (two tenants can never address the same global frame);
//! - **canonical admission grants** — every barrier's applied slot grants
//!   are replayed through the chrono-race model's independently implemented
//!   `tiering_analysis::canonical_grants` (N-version programming: same
//!   spec, deliberately different structure) and must agree exactly.
//!
//! A [`ShardedCase`] holds everything a run varies. Its `permute_seed`
//! additionally shuffles the shard step order inside every barrier window
//! (seeded Fisher–Yates) — the dynamic counterpart of the chrono-race
//! interleaving model: since shards share nothing between barriers, every
//! digest must survive any step order.
//!
//! A single-tenant case gets the classic case's whole pool, trace ring and
//! workload seed, so with the admission hook off its digest reproduces the
//! classic golden tables byte for byte — the compat surface the
//! thread-invariance suite pins.

use sim_clock::{DetRng, Nanos};
use tiered_mem::{
    FaultPlan, PageSize, PartitionPlan, SystemConfig, TierEvent, TierId, TieredSystem,
};
use tiering_analysis::{canonical_grants, RaceClaim};
use tiering_policies::{
    AdmissionConfig, BarrierAudit, DriverConfig, ShardedConfig, ShardedSim, TenantShard,
};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::oracle::{InvariantOracle, Violation};
use crate::policy_fuzz::case_shape;
use crate::registry::{PolicyKind, Scale};

/// Stream id the per-tenant weight RNG is split on.
const WEIGHT_STREAM: u64 = 0x57A5_0001;
/// Stream id per-tenant workload seeds are split on (xored with tenant id).
const WORKLOAD_STREAM: u64 = 0x3AD3_0000;
/// Stream id per-tenant fault plans are split on (tenant-storm only).
const FAULT_STREAM: u64 = 0xFA57_0000;

/// Tenant count of the committed shard and tier-chaos goldens (`golden.rs`).
pub const SHARD_GOLDEN_TENANTS: usize = 3;

/// Outcome of one sharded policy case.
pub struct ShardedCaseReport {
    /// Combined digest (single tenant: that tenant's classic digest).
    pub combined_digest: u64,
    /// Per-tenant trace digests, tenant order.
    pub tenant_digests: Vec<u64>,
    /// Total accesses across tenants.
    pub accesses: u64,
    /// Cumulative slot grants per tenant (zero when the hook is off).
    pub granted_slots: Vec<u64>,
    /// Gini coefficient of the slot grants.
    pub slot_gini: f64,
    /// All violations found (per-shard oracle + cross-shard invariants).
    pub violations: Vec<Violation>,
    /// Each tenant's system as the run left it, tenant order.
    pub systems: Vec<TieredSystem>,
}

impl ShardedCaseReport {
    /// Whether the run satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A count summed over the tenants' final systems.
    pub fn total(&self, read: fn(&TieredSystem) -> u64) -> u64 {
        self.systems.iter().map(read).sum()
    }
}

/// Skewed per-tenant admission weights for a case seed (1..=8, one RNG
/// stream independent of workload content, so weights are stable across
/// tenant/thread counts of the same seed).
pub fn tenant_weights(seed: u64, tenants: usize) -> Vec<u64> {
    let mut rng = DetRng::split(seed, WEIGHT_STREAM);
    (0..tenants).map(|_| 1 + rng.below(8)).collect()
}

/// N-version admission oracle: replays one barrier's decision through the
/// chrono-race model's independently implemented
/// [`tiering_analysis::canonical_grants`] (closed-form round-robin, u128
/// arithmetic — deliberately structured nothing like the shipped
/// `admission_grants`) and flags any disagreement with what the runner
/// actually applied.
fn check_admission_audit(audit: &BarrierAudit, tenants: usize, out: &mut Vec<Violation>) {
    let claims: Vec<RaceClaim> = audit
        .claims
        .iter()
        .map(|c| RaceClaim {
            weight: c.weight,
            starvation: c.starvation,
        })
        .collect();
    let canonical = canonical_grants(audit.total_slots, &claims);
    let mut expected = vec![0u64; tenants];
    for (k, &id) in audit.active.iter().enumerate() {
        expected[id as usize] = canonical[k];
    }
    if audit.grants != expected {
        out.push(Violation {
            invariant: "admission-grants-canonical",
            detail: format!(
                "barrier {}: applied grants {:?} != canonical {:?} \
                 (active {:?}, {} slots)",
                audit.barrier, audit.grants, expected, audit.active, audit.total_slots
            ),
        });
    }
}

/// Cross-shard invariants over the post-run shards: global frame
/// conservation against the partition plan in every tier, and PFN
/// exclusivity.
fn check_cross_shard(shards: &[TenantShard], plan: &PartitionPlan, out: &mut Vec<Violation>) {
    if !plan.covers_exactly() {
        out.push(Violation {
            invariant: "pfn-exclusivity-across-tenants",
            detail: "partition plan is not contiguous/disjoint/exhaustive".to_string(),
        });
    }
    for tier in (0..plan.num_tiers()).map(|t| TierId(t as u8)) {
        let mut sum = 0u64;
        for s in shards {
            let part = plan.part(s.id as usize);
            // Capacity per shard must still equal its partition: usable plus
            // quarantined/offlined frames (faults take frames out of service
            // but never out of the partition).
            let cap = u64::from(s.sys.total_frames(tier))
                + u64::from(s.sys.quarantined_frames(tier))
                + u64::from(s.sys.offlined_frames(tier));
            if cap != u64::from(part.frames(tier)) {
                out.push(Violation {
                    invariant: "global-frame-conservation",
                    detail: format!(
                        "tenant {}: tier {} capacity {cap} drifted from partition {}",
                        s.id,
                        tier.0,
                        part.frames(tier)
                    ),
                });
            }
            sum += cap;
        }
        if sum != u64::from(plan.total(tier)) {
            out.push(Violation {
                invariant: "global-frame-conservation",
                detail: format!(
                    "tier {} shard capacities sum to {sum}, plan holds {}",
                    tier.0,
                    plan.total(tier)
                ),
            });
        }
    }
}

/// One sharded policy case. Per-tenant settings are vectors indexed by
/// tenant id, so the same tenant gets the same policy and plan at every
/// worker-thread count.
#[derive(Debug, Clone)]
pub struct ShardedCase {
    /// Case seed: the frame pool, weights and workload streams derive from
    /// it.
    pub seed: u64,
    /// Simulated run length.
    pub run_millis: u64,
    /// Worker threads (must not affect any report field).
    pub threads: usize,
    /// Each tenant's policy; its length is the tenant count.
    pub policies: Vec<PolicyKind>,
    /// Each tenant's fault plan, same length.
    pub fault_plans: Vec<Option<FaultPlan>>,
    /// The admission hook's slot pool; `None` turns the hook off.
    pub admission_slots: Option<usize>,
    /// Shuffles the shard step order inside every barrier window
    /// (`ShardedConfig::permute_seed`). Shards share nothing between
    /// barriers, so the report must match the unpermuted run bit for bit.
    pub permute_seed: Option<u64>,
    /// Tier events applied to every tenant at barriers
    /// ([`shard_tier_chaos_events`]).
    pub tier_events: Vec<TierEvent>,
}

impl ShardedCase {
    /// `tenants` shards of `policy` over the seed-derived partitioned pool,
    /// one worker thread, the admission hook on with its default slot pool
    /// (which spans the global `MigrationSpec` default), no faults.
    pub fn new(policy: PolicyKind, seed: u64, run_millis: u64, tenants: usize) -> ShardedCase {
        ShardedCase {
            seed,
            run_millis,
            threads: 1,
            policies: vec![policy; tenants],
            fault_plans: vec![None; tenants],
            admission_slots: Some(AdmissionConfig::default().total_slots),
            permute_seed: None,
            tier_events: Vec::new(),
        }
    }

    /// The tenant-storm fuzz case of a seed: 4–8 tenants with mixed policies
    /// (rotated through [`PolicyKind::FUZZED`] from a seed-derived offset),
    /// skewed weights, the admission hook on, and a canonical fault plan
    /// (capacity shrink, copy faults, degradation) attached to one
    /// seed-chosen tenant — cross-tenant allocation pressure, concurrent
    /// promotion drains, and mid-barrier capacity shrink in one schedule.
    pub fn tenant_storm(seed: u64, run_millis: u64) -> ShardedCase {
        let mut rng = DetRng::split(seed, FAULT_STREAM);
        let tenants = 4 + rng.below(5) as usize; // 4..=8
        let threads = 1 + rng.below(4) as usize; // 1..=4
        let offset = rng.below(PolicyKind::FUZZED.len() as u64) as usize;
        // At least one tenant always runs a Chrono mode: its two-phase
        // migrations hold in-flight slots across the copy window, so a tight
        // cap actually binds (baselines complete instantly and rarely queue).
        let chrono_tenant = rng.below(tenants as u64) as usize;
        let faulty_tenant = rng.below(tenants as u64) as usize;
        // A deliberately tight slot pool (right at the weighted-regime
        // boundary) so cross-tenant contention — and the admission-reject
        // path — actually gets exercised.
        let slots = 2 * tenants + rng.below(4) as usize;
        let horizon = Nanos::from_millis(run_millis);
        ShardedCase {
            threads,
            policies: (0..tenants)
                .map(|id| {
                    if id == chrono_tenant {
                        PolicyKind::Chrono
                    } else {
                        PolicyKind::FUZZED[(offset + id) % PolicyKind::FUZZED.len()]
                    }
                })
                .collect(),
            fault_plans: (0..tenants)
                .map(|id| {
                    (id == faulty_tenant).then(|| FaultPlan::canonical(seed ^ id as u64, horizon))
                })
                .collect(),
            admission_slots: Some(slots),
            ..ShardedCase::new(PolicyKind::Chrono, seed, run_millis, tenants)
        }
    }

    /// Builds the shards: the global fuzz-shape frame pool split by
    /// weighted partition, per-tenant skewed workloads on split RNG
    /// streams, one policy instance and optional fault plan per tenant.
    fn build_shards(&self) -> (Vec<TenantShard>, PartitionPlan) {
        let tenants = self.policies.len();
        assert_eq!(self.fault_plans.len(), tenants, "one fault plan per tenant");
        let (total_frames, pages, wl_seed) = case_shape(self.seed);
        let scale = Scale::fuzz_scale();
        let driver = DriverConfig {
            run_for: Nanos::from_millis(self.run_millis),
            ..Default::default()
        };

        // One tenant runs the classic case verbatim (the whole pool, its
        // trace ring and workload seed), so single-tenant sharded runs
        // reproduce `run_policy_case` digests byte for byte.
        let classic = tenants == 1;
        let weights = if classic {
            vec![1]
        } else {
            tenant_weights(self.seed, tenants)
        };
        let fast_total = total_frames / 4;
        let plan =
            PartitionPlan::split_weighted_tiers(&[fast_total, total_frames - fast_total], &weights);
        let shards = (0..tenants)
            .map(|i| {
                let part = plan.part(i);
                let (fast, slow) = (part.frames(TierId::FAST), part.frames(TierId::SLOW));
                let mut cfg = SystemConfig::dram_pmem(fast, slow);
                cfg.fault_plan = self.fault_plans[i].clone();
                let mut sys = TieredSystem::new(cfg);
                sys.enable_tracing(if classic { 1 << 12 } else { 1 << 10 });
                // Working set scales with the tenant's partition so every
                // shard is under comparable pressure; the access stream
                // itself comes from a tenant-id-keyed split of the workload
                // seed.
                let tenant_pages =
                    ((pages as u64 * fast as u64 / fast_total as u64) as u32).max(64);
                let tenant_seed = if classic {
                    wl_seed
                } else {
                    DetRng::split(wl_seed, WORKLOAD_STREAM ^ i as u64).next_u64()
                };
                let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    tenant_pages,
                    0.7,
                    tenant_seed,
                ));
                sys.add_process(w.address_space_pages(), PageSize::Base);
                TenantShard::new(
                    i as u32,
                    weights[i],
                    sys,
                    vec![Box::new(w) as Box<dyn Workload>],
                    self.policies[i].build(&scale),
                    driver.clone(),
                )
            })
            .collect();
        (shards, plan)
    }

    /// Runs the case with the per-shard oracle at every barrier and the
    /// cross-shard invariants after the run. Violations never panic —
    /// callers decide.
    pub fn run(&self) -> ShardedCaseReport {
        const MAX_KEPT: usize = 8;
        let tenants = self.policies.len();
        let (shards, plan) = self.build_shards();
        let mut cfg = ShardedConfig::new(Nanos::from_millis(self.run_millis));
        // Barriers fall on the fuzz scale's scan periods.
        cfg.barrier_interval = Scale::fuzz_scale().scan_period;
        cfg.threads = self.threads;
        cfg.permute_seed = self.permute_seed;
        cfg.tier_events = self.tier_events.clone();
        cfg.admission = AdmissionConfig {
            enabled: self.admission_slots.is_some(),
            total_slots: self
                .admission_slots
                .unwrap_or_else(|| AdmissionConfig::default().total_slots),
        };
        let sim = ShardedSim::new(cfg, shards);

        // Per-shard oracle sweep at every barrier (the hook runs on the main
        // thread in tenant-id order, so `violations` needs no
        // synchronisation), plus the barrier-time admission audits for the
        // post-run replay through the canonical-grants oracle.
        let mut oracle = InvariantOracle::new();
        let mut violations: Vec<Violation> = Vec::new();
        let mut audits: Vec<BarrierAudit> = Vec::new();
        let result = sim.run_with_audit(
            |shard| {
                if violations.len() < MAX_KEPT {
                    violations.extend(oracle.check(&shard.sys));
                    violations.truncate(MAX_KEPT);
                }
            },
            |audit| audits.push(audit.clone()),
        );

        for audit in &audits {
            if violations.len() < MAX_KEPT {
                check_admission_audit(audit, tenants, &mut violations);
            }
        }
        check_cross_shard(&result.shards, &plan, &mut violations);
        for s in &result.shards {
            violations.extend(oracle.check(&s.sys));
        }
        violations.truncate(MAX_KEPT);

        ShardedCaseReport {
            combined_digest: result.combined_digest(),
            tenant_digests: result.outcomes.iter().map(|o| o.digest).collect(),
            accesses: result.total_accesses(),
            granted_slots: result.outcomes.iter().map(|o| o.granted_slots).collect(),
            slot_gini: result.slot_share_gini(),
            violations,
            systems: result.shards.into_iter().map(|s| s.sys).collect(),
        }
    }
}

/// The barrier-scheduled failure-domain arc of the tier-chaos shard cases:
/// every tenant's slow tier goes offline at 40 % of the run (evacuation
/// deadline at the halfway mark — a live drain window) and rejoins at
/// 70 %. Event times are absolute, so the arc lands on the same barriers
/// at every worker-thread count.
pub fn shard_tier_chaos_events(run_millis: u64) -> Vec<TierEvent> {
    let t = Nanos::from_millis(run_millis).as_nanos();
    vec![
        TierEvent {
            at: Nanos(t * 2 / 5),
            tier: TierId(1),
            kind: tiered_mem::TierEventKind::Offline {
                deadline: Nanos(t / 2),
            },
        },
        TierEvent {
            at: Nanos(t * 7 / 10),
            tier: TierId(1),
            kind: tiered_mem::TierEventKind::Online,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_fuzz::run_policy_case;

    #[test]
    fn single_tenant_sharded_run_reproduces_classic_digest() {
        // The compat path: one tenant, hook off ⇒ byte-identical to the
        // classic driver for a Chrono mode and a baseline.
        for p in [PolicyKind::Chrono, PolicyKind::Tpp] {
            let classic = run_policy_case(p, 0x5EED, 10);
            for threads in [1usize, 4] {
                let sharded = ShardedCase {
                    threads,
                    admission_slots: None,
                    ..ShardedCase::new(p, 0x5EED, 10, 1)
                }
                .run();
                assert_eq!(
                    sharded.combined_digest, classic.digest,
                    "{} single-tenant sharded digest diverged from classic",
                    classic.policy
                );
                assert_eq!(sharded.accesses, classic.accesses);
                assert!(sharded.clean(), "violations: {:?}", sharded.violations);
            }
        }
    }

    #[test]
    fn multi_tenant_case_is_thread_invariant_and_clean() {
        let p = PolicyKind::Chrono;
        let case = ShardedCase::new(p, 0xABCD, 10, 4);
        let one = case.run();
        let eight = ShardedCase { threads: 8, ..case }.run();
        assert_eq!(one.combined_digest, eight.combined_digest);
        assert_eq!(one.tenant_digests, eight.tenant_digests);
        assert_eq!(one.granted_slots, eight.granted_slots);
        assert!(one.clean(), "violations: {:?}", one.violations);
        assert!(one.accesses > 0);
    }

    #[test]
    fn mid_run_tier_offline_is_thread_invariant_and_actually_evacuates() {
        // The failure-domain determinism satellite: the slow tier of every
        // tenant dies mid-run and rejoins, applied at barriers — 1-, 2-,
        // and 8-worker replays must produce the same tables bit for bit,
        // and the arc must genuinely fire (evacuations, health churn).
        let clean = ShardedCase::new(PolicyKind::Chrono, 0xABCD, 10, SHARD_GOLDEN_TENANTS);
        let chaos = ShardedCase {
            tier_events: shard_tier_chaos_events(10),
            ..clean.clone()
        };
        let transitions = |r: &ShardedCaseReport| r.total(|s| s.stats.tier_health_transitions);
        let evacuated = |r: &ShardedCaseReport| r.total(|s| s.stats.evacuated_pages);
        let one = chaos.run();
        assert!(one.clean(), "violations: {:?}", one.violations);
        assert!(transitions(&one) > 0, "no tier ever failed");
        assert!(evacuated(&one) > 0, "offline window never evacuated");
        for threads in [2usize, 8] {
            let multi = ShardedCase {
                threads,
                ..chaos.clone()
            }
            .run();
            assert_eq!(
                multi.combined_digest, one.combined_digest,
                "{threads}-thread chaos replay diverged"
            );
            assert_eq!(multi.tenant_digests, one.tenant_digests);
            assert_eq!(multi.granted_slots, one.granted_slots);
            assert_eq!(transitions(&multi), transitions(&one));
            assert_eq!(evacuated(&multi), evacuated(&one));
        }
        // The arc must also perturb the run relative to the fault-free case
        // — otherwise the golden snapshots nothing new.
        assert_ne!(one.combined_digest, clean.run().combined_digest);
    }

    #[test]
    fn permuted_step_order_reproduces_every_digest() {
        // The dynamic chrono-race property: a seeded per-window shuffle of
        // the shard step order (sequential and threaded) must leave the
        // whole report identical to the unpermuted run.
        let p = PolicyKind::Chrono;
        let case = ShardedCase::new(p, 0xABCD, 10, 4);
        let base = case.run();
        for permute in [0x0101u64, 0xDEAD_BEEF] {
            for threads in [1usize, 4] {
                let perm = ShardedCase {
                    threads,
                    permute_seed: Some(permute),
                    ..case.clone()
                }
                .run();
                assert_eq!(
                    perm.combined_digest, base.combined_digest,
                    "permute {permute:#x} at {threads} threads: combined digest diverged"
                );
                assert_eq!(perm.tenant_digests, base.tenant_digests);
                assert_eq!(perm.granted_slots, base.granted_slots);
                assert!(perm.clean(), "violations: {:?}", perm.violations);
            }
        }
    }

    #[test]
    fn admission_grants_match_canonical_on_random_claims() {
        // 256-seed differential check of the two grant implementations:
        // `tiering_policies::admission_grants` (shipped) against
        // `tiering_analysis::canonical_grants` (model), over random claim
        // vectors spanning both regimes (weighted and scarce), empty claim
        // sets, zero weights, and zero slot pools.
        use tiering_policies::{admission_grants, SlotClaim};
        for seed in 0..256u64 {
            let mut rng = DetRng::split(0x6A_47, seed);
            let n = rng.below(9) as usize; // 0..=8 claimants
            let total = rng.below(33); // 0..=32 slots
            let claims: Vec<SlotClaim> = (0..n)
                .map(|_| SlotClaim {
                    weight: rng.below(9), // 0 behaves as 1
                    starvation: rng.below(6) as u32,
                })
                .collect();
            let model: Vec<RaceClaim> = claims
                .iter()
                .map(|c| RaceClaim {
                    weight: c.weight,
                    starvation: c.starvation,
                })
                .collect();
            assert_eq!(
                admission_grants(total, &claims),
                canonical_grants(total, &model),
                "seed {seed}: implementations disagree on {total} slots, {claims:?}"
            );
        }
    }

    #[test]
    fn canonical_grant_oracle_flags_a_tampered_audit() {
        // Effectiveness self-test: the N-version oracle must actually fire
        // on a decision that disagrees with the canonical computation.
        use tiering_policies::SlotClaim;
        let claims = vec![
            SlotClaim {
                weight: 2,
                starvation: 0,
            },
            SlotClaim {
                weight: 1,
                starvation: 3,
            },
        ];
        let honest = canonical_grants(
            8,
            &[
                RaceClaim {
                    weight: 2,
                    starvation: 0,
                },
                RaceClaim {
                    weight: 1,
                    starvation: 3,
                },
            ],
        );
        let mut grants = vec![0u64; 3];
        grants[0] = honest[0];
        grants[2] = honest[1];
        let mut audit = BarrierAudit {
            barrier: 7,
            first: false,
            total_slots: 8,
            active: vec![0, 2],
            claims,
            grants,
        };
        let mut out = Vec::new();
        check_admission_audit(&audit, 3, &mut out);
        assert!(out.is_empty(), "honest audit flagged: {out:?}");
        // Tamper: shift one slot between the two demanding tenants.
        audit.grants[0] += 1;
        audit.grants[2] -= 1;
        check_admission_audit(&audit, 3, &mut out);
        assert_eq!(out.len(), 1, "tampered audit not flagged");
        assert_eq!(out[0].invariant, "admission-grants-canonical");
    }

    #[test]
    fn weights_are_skewed_and_stable() {
        let a = tenant_weights(7, 16);
        let b = tenant_weights(7, 16);
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != a[0]), "weights must be skewed");
        assert!(a.iter().all(|&w| (1..=8).contains(&w)));
    }
}
