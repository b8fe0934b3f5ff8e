//! `harness run`: the multi-tenant fleet experiment.
//!
//! ```text
//! harness run --tenants N [--threads T] [--policy NAME] [--millis MS]
//!             [--seed X] [--slots N] [--topology dram-pmem|dram-cxl|three-tier]
//! ```
//!
//! Builds `N` tenant shards with skewed popularity (pmbench's Gaussian
//! pattern at a 0.7 read ratio, on per-tenant RNG streams split from the
//! run seed) and skewed admission
//! weights over a weighted partition of a shared frame pool, runs them on
//! `T` worker threads under the TierBPF-style admission hook, and reports
//! fairness (per-tenant FMAR spread, slot-share Gini, starvation) and
//! aggregate-throughput metrics. The trace digest is printed so two
//! invocations with different `--threads` can be diffed by eye: same seed ⇒
//! same digest, regardless of thread count.

use crate::runner::{PolicyKind, Scale, Topology};
use crate::{parse_u64, take_flag};
use sim_clock::{DetRng, Nanos};
use tiered_mem::{PageSize, PartitionPlan, TierId, TieredSystem};
use tiering_policies::{
    AdmissionConfig, DriverConfig, ShardedConfig, ShardedRunResult, ShardedSim, TenantShard,
};
use tiering_verify::tenant_weights;
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

/// Stream id per-tenant workload seeds are split on (xored with tenant id).
const WORKLOAD_STREAM: u64 = 0xF1EE_7000;

/// Mean frames per tenant in each tier. The weighted partition skews around
/// these (respecting the per-partition floors), and per-tenant working sets
/// are sized past the fast share so every tenant has promotion demand.
const FAST_PER_TENANT: u32 = 24;
const SLOW_PER_TENANT: u32 = 72;
/// Three-tier split of the same 96-frame per-tenant mean: the fast share is
/// unchanged and the classic slow share splits evenly into a CXL middle tier
/// and a PMem backstop (each above the [`tiered_mem::MIN_SLOW_FRAMES`]
/// partition floor), so total capacity per tenant is identical across
/// topologies and fleet runs stay comparable.
const THREE_TIER_PER_TENANT: [u32; 3] = [FAST_PER_TENANT, 36, 36];

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Tenant count.
    pub tenants: usize,
    /// Worker threads stepping shards between barriers.
    pub threads: usize,
    /// Policy every tenant runs, built at the fuzz scale.
    pub policy: PolicyKind,
    /// Simulated horizon in milliseconds.
    pub millis: u64,
    /// Run seed (weights, per-tenant workload streams).
    pub seed: u64,
    /// Global admission-slot pool (None = `2 × tenants`, the weighted-regime
    /// boundary, so contention is visible without starving the fleet).
    pub slots: Option<usize>,
    /// Tier chain every tenant's system is built on.
    pub topology: Topology,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: 1000,
            threads: 4,
            policy: PolicyKind::Chrono,
            millis: 10,
            seed: 0xF1EE_7001,
            slots: None,
            topology: Topology::DramPmem,
        }
    }
}

/// Builds the fleet's shards over a weighted partition of the shared pool.
pub fn build_fleet(cfg: &FleetConfig) -> Vec<TenantShard> {
    let weights = tenant_weights(cfg.seed, cfg.tenants);
    let per_tenant: &[u32] = match cfg.topology {
        Topology::ThreeTier => &THREE_TIER_PER_TENANT,
        _ => &[FAST_PER_TENANT, SLOW_PER_TENANT],
    };
    let totals: Vec<u32> = per_tenant.iter().map(|&t| t * cfg.tenants as u32).collect();
    let plan = PartitionPlan::split_weighted_tiers(&totals, &weights);
    let tiers = cfg.topology.num_tiers();
    let scale = Scale {
        topology: cfg.topology,
        ..Scale::fuzz_scale()
    };
    let driver = DriverConfig {
        run_for: Nanos::from_millis(cfg.millis),
        ..Default::default()
    };
    (0..cfg.tenants)
        .map(|i| {
            let part = plan.part(i);
            let tenant_frames: u32 = (0..tiers).map(|t| part.frames(TierId(t as u8))).sum();
            let mut sys = TieredSystem::new(cfg.topology.partition_config(part));
            sys.enable_tracing(1 << 8);
            // Working set at half the tenant's partition — comfortably
            // resident, but larger than the fast share, so every tenant
            // wants more fast memory than it has and the fleet question is
            // whose promotions win the bounded slots.
            let pages = (tenant_frames / 2).max(16);
            let tenant_seed = DetRng::split(cfg.seed, WORKLOAD_STREAM ^ i as u64).next_u64();
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, tenant_seed));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            TenantShard::new(
                i as u32,
                weights[i],
                sys,
                vec![Box::new(w) as Box<dyn Workload>],
                cfg.policy.build(&scale),
                driver.clone(),
            )
        })
        .collect()
}

/// Runs the fleet and returns the sharded result.
pub fn run_fleet(cfg: &FleetConfig) -> ShardedRunResult {
    let shards = build_fleet(cfg);
    let mut scfg = ShardedConfig::new(Nanos::from_millis(cfg.millis));
    scfg.threads = cfg.threads;
    scfg.admission = AdmissionConfig {
        enabled: true,
        total_slots: cfg.slots.unwrap_or(2 * cfg.tenants),
    };
    ShardedSim::new(scfg, shards).run()
}

/// `harness run --tenants N [--threads T] [--policy NAME] [--millis MS]
/// [--seed X] [--slots N] [--topology NAME]`. Returns the process exit code.
pub fn run_tenants(args: Vec<String>) -> i32 {
    let cfg = match parse_fleet(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    println!(
        "fleet: {} tenants x {} ms of {} on {} threads (seed {:#x}, {} slots, {})",
        cfg.tenants,
        cfg.millis,
        cfg.policy.id(),
        cfg.threads,
        cfg.seed,
        cfg.slots.unwrap_or(2 * cfg.tenants),
        cfg.topology.name(),
    );
    // lint:allow(wall-clock) CLI-only wall throughput metric; never feeds the sim
    let wall = std::time::Instant::now();
    let result = run_fleet(&cfg);
    let elapsed = wall.elapsed();

    let accesses = result.total_accesses();
    let (fmar_lo, fmar_hi) = result.fmar_spread();
    let starved_now = result
        .outcomes
        .iter()
        .filter(|o| o.max_starvation > 0)
        .count();
    let rejects: u64 = result
        .shards
        .iter()
        .map(|s| s.sys.stats.failed_fast_migrations[3])
        .sum();
    println!(
        "  aggregate: {accesses} accesses in {elapsed:.1?} ({:.0} accesses/sec wall), \
         {} barriers",
        accesses as f64 / elapsed.as_secs_f64().max(1e-9),
        result.barriers,
    );
    println!(
        "  fairness:  fmar spread [{fmar_lo:.3}, {fmar_hi:.3}], slot-share gini {:.3}, \
         {starved_now}/{} tenants ever starved a barrier, {rejects} admission rejects",
        result.slot_share_gini(),
        result.outcomes.len(),
    );
    println!("  digest:    {:016x}", result.combined_digest());
    0
}

/// Parses `harness run`'s flags over the default fleet.
fn parse_fleet(mut args: Vec<String>) -> Result<FleetConfig, String> {
    let mut cfg = FleetConfig::default();
    let mut int = |flag| take_flag(&mut args, flag, "an integer argument", parse_u64);
    if let Some(n) = int("--tenants")? {
        cfg.tenants = n.max(1) as usize;
    }
    if let Some(n) = int("--threads")? {
        cfg.threads = n.max(1) as usize;
    }
    if let Some(n) = int("--millis")? {
        cfg.millis = n.max(1);
    }
    if let Some(n) = int("--seed")? {
        cfg.seed = n;
    }
    if let Some(n) = int("--slots")? {
        cfg.slots = Some(n.max(1) as usize);
    }
    let name = |v: &str| Some(v.to_string());
    if let Some(v) = take_flag(&mut args, "--policy", "a policy name", name)? {
        let ids = PolicyKind::FUZZED.map(|p| p.id());
        let Some(p) = PolicyKind::FUZZED.into_iter().find(|p| p.id() == v) else {
            return Err(format!("unknown policy '{v}'; one of: {}", ids.join(", ")));
        };
        cfg.policy = p;
    }
    if let Some(v) = take_flag(&mut args, "--topology", "a topology name", name)? {
        let Some(t) = Topology::parse(&v) else {
            return Err(format!(
                "unknown topology '{v}'; one of: dram-pmem, dram-cxl, three-tier"
            ));
        };
        cfg.topology = t;
    }
    if let Some(unknown) = args.first() {
        return Err(format!("run: unknown argument '{unknown}'"));
    }
    Ok(cfg)
}
