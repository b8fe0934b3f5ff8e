//! Policy-level fuzzing: every tiering policy driven over seeded workloads
//! with the invariant oracle attached to the driver's inspect hook, plus the
//! differential determinism check (same seed ⇒ byte-identical trace digest).
//! Policies come from the registry at [`Scale::fuzz_scale`], on any
//! [`Topology`].

use sim_clock::Nanos;
use tiered_mem::{FaultPlan, PageSize, TieredSystem};
use tiering_policies::{DriverConfig, SimulationDriver};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::oracle::{InvariantOracle, Violation};
use crate::registry::{PolicyKind, Scale, Topology};

/// The policies the three-tier goldens and the tier-chaos profile run:
/// cascaded Chrono and the hop-wise TPP generalization.
pub const CHAIN_POLICIES: [PolicyKind; 2] = [PolicyKind::Chrono, PolicyKind::Tpp];

/// Outcome of one seeded policy run.
pub struct PolicyRunReport {
    /// The policy's [`PolicyKind::id`], followed by the tier count on
    /// chains longer than two tiers (`chrono-dcsc3`).
    pub policy: String,
    /// Stable digest of the recorded trace (determinism/golden checks).
    pub digest: u64,
    /// Accesses executed.
    pub accesses: u64,
    /// Oracle snapshots taken during the run.
    pub oracle_checks: u64,
    /// Violations found (first few, deduplicated by invariant).
    pub violations: Vec<Violation>,
    /// The system as the run left it, for the counters a fuzz profile
    /// reads.
    pub sys: TieredSystem,
}

impl PolicyRunReport {
    /// Whether the run satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derives the fuzz-scale system + workload shape for a seed:
/// `(total_frames, workload_pages, workload_seed)`. Shared with the sharded
/// runner so single-tenant sharded runs reproduce the classic shapes.
pub(crate) fn case_shape(seed: u64) -> (u32, u32, u64) {
    let mut rng = sim_clock::DetRng::seed(seed ^ 0x9017_CEA5_E5EE_D000);
    let total_frames = 2048u32 << rng.below(2); // 2048 or 4096
    let pages = total_frames / 2 + rng.below(total_frames as u64 / 4) as u32;
    let wl_seed = rng.next_u64();
    (total_frames, pages, wl_seed)
}

/// Runs one policy on the classic two-tier chain over one seeded workload
/// with the oracle attached (see [`run_policy_case_with_plan`]).
pub fn run_policy_case(policy: PolicyKind, seed: u64, run_millis: u64) -> PolicyRunReport {
    run_policy_case_with_plan(policy, Topology::DramPmem, seed, run_millis, None)
}

/// Runs one policy on `topology` over one seeded workload with the oracle
/// attached to the driver's inspect hook (checked every `ORACLE_STRIDE`
/// steps and once at the end), and an optional fault plan, which must fit
/// the chain. Every Chrono pair's queue and retry flows are
/// conservation-checked after the run. Returns the report; never panics on
/// violations — callers decide.
pub fn run_policy_case_with_plan(
    policy: PolicyKind,
    topology: Topology,
    seed: u64,
    run_millis: u64,
    fault_plan: Option<FaultPlan>,
) -> PolicyRunReport {
    const ORACLE_STRIDE: u64 = 128;
    const MAX_KEPT: usize = 8;

    let (total_frames, pages, wl_seed) = case_shape(seed);
    let mut cfg = topology.system_config(total_frames);
    if let Some(plan) = &fault_plan {
        plan.validate_for(cfg.num_tiers())
            .expect("fault plan fits the topology");
    }
    cfg.fault_plan = fault_plan;
    let mut sys = TieredSystem::new(cfg);
    sys.enable_tracing(1 << 12);
    let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, wl_seed));
    sys.add_process(w.address_space_pages(), PageSize::Base);
    let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];

    let mut built = policy.instantiate(&Scale {
        topology,
        ..Scale::fuzz_scale()
    });

    let mut oracle = InvariantOracle::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut steps = 0u64;
    let driver = SimulationDriver::new(DriverConfig {
        run_for: Nanos::from_millis(run_millis),
        ..Default::default()
    });
    let result = driver.run_inspected(
        &mut sys,
        &mut wls,
        built.as_dyn(),
        |_, _, _, _| {},
        |s| {
            steps += 1;
            if steps.is_multiple_of(ORACLE_STRIDE) && violations.len() < MAX_KEPT {
                violations.extend(oracle.check(s));
                violations.truncate(MAX_KEPT);
            }
        },
    );
    if violations.len() < MAX_KEPT {
        violations.extend(oracle.check(&sys));
        violations.truncate(MAX_KEPT);
    }
    let pairs = built.chrono_pairs();
    violations.extend(
        pairs
            .iter()
            .filter_map(|p| InvariantOracle::check_queue_flow(&p.queue_flow())),
    );
    violations.extend(
        pairs
            .iter()
            .filter_map(|p| InvariantOracle::check_retry_flow(&p.retry_flow())),
    );

    PolicyRunReport {
        policy: match topology.num_tiers() {
            2 => policy.id().to_string(),
            n => format!("{}{n}", policy.id()),
        },
        digest: sys.trace.digest(),
        accesses: result.accesses,
        oracle_checks: oracle.checks,
        violations,
        sys,
    }
}

/// Differential determinism check: runs the policy twice on the same seed
/// and returns the two digests (equal iff the pipeline is deterministic).
pub fn determinism_digests(policy: PolicyKind, seed: u64, run_millis: u64) -> (u64, u64) {
    let a = run_policy_case(policy, seed, run_millis);
    let b = run_policy_case(policy, seed, run_millis);
    (a.digest, b.digest)
}

/// The tier-chaos fuzz case of a seed, run on [`Topology::ThreeTier`]: a
/// seed-chosen failure-domain plan — half the seeds get the canonical arc
/// ([`FaultPlan::canonical3`]: degrade, mid-tier offline with a live
/// evacuation window, rejoin), the other half the storm
/// ([`FaultPlan::storm3`]: staggered offline/online cycles on both lower
/// tiers plus capacity wobble) — with the policy alternating between the
/// cascaded Chrono and the hop-wise TPP generalization.
pub fn tier_chaos_case(seed: u64, run_millis: u64) -> (PolicyKind, FaultPlan) {
    let horizon = Nanos::from_millis(run_millis);
    let plan = if seed & 1 == 0 {
        FaultPlan::canonical3(seed, horizon)
    } else {
        FaultPlan::storm3(seed, horizon)
    };
    (
        CHAIN_POLICIES[(seed >> 1) as usize % CHAIN_POLICIES.len()],
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_runs_clean_on_one_seed() {
        for p in PolicyKind::FUZZED {
            let r = run_policy_case(p, 0x5EED, 20);
            assert!(r.accesses > 0, "{} did nothing", r.policy);
            assert!(r.oracle_checks > 0, "{} was never checked", r.policy);
            assert!(
                r.clean(),
                "{} violated invariants: {:?}",
                r.policy,
                r.violations
            );
        }
    }

    #[test]
    fn chrono_modes_run_clean_and_deterministic_under_canonical_faults() {
        let plan = FaultPlan::canonical(7, Nanos::from_millis(20));
        for p in PolicyKind::FUZZED.into_iter().filter(|p| p.is_chrono()) {
            let faulty =
                || run_policy_case_with_plan(p, Topology::DramPmem, 0x5EED, 20, Some(plan.clone()));
            let (a, b) = (faulty(), faulty());
            assert!(a.clean(), "{} violated: {:?}", a.policy, a.violations);
            assert_eq!(
                a.digest, b.digest,
                "{} faulty run nondeterministic",
                a.policy
            );
            // The plan must actually perturb the run (the capacity event
            // alone guarantees a trace divergence).
            let clean = run_policy_case(p, 0x5EED, 20);
            assert_ne!(a.digest, clean.digest, "{} plan had no effect", a.policy);
        }
    }

    #[test]
    fn three_tier_policies_run_clean_and_deterministic() {
        for p in CHAIN_POLICIES {
            let run = || run_policy_case_with_plan(p, Topology::ThreeTier, 0x5EED, 20, None);
            let (a, b) = (run(), run());
            assert!(a.accesses > 0, "{} did nothing", a.policy);
            assert!(a.clean(), "{} violated: {:?}", a.policy, a.violations);
            assert_eq!(a.digest, b.digest, "{} nondeterministic", a.policy);
        }
    }

    #[test]
    fn chrono_digest_differs_across_seeds() {
        let a = run_policy_case(PolicyKind::Chrono, 1, 20);
        let b = run_policy_case(PolicyKind::Chrono, 2, 20);
        assert_ne!(a.digest, b.digest, "different seeds must diverge");
    }
}
