//! Multi-tenant sharded simulation with deterministic parallelism.
//!
//! Each tenant (one simulated process group: its own page tables, LRU,
//! policy instance, promotion queue) lives in a [`TenantShard`] over a
//! partition of the global frame pool (`tiered_mem::PartitionPlan`), so
//! shards share no mutable state and need no locks. [`ShardedSim`] advances
//! all shards with **conservative time-stepping**: every shard runs
//! independently up to the next barrier (one barrier per scan period), then
//! cross-shard effects — migration-slot admission grants, capacity events —
//! are applied single-threaded in tenant-id order before the next interval
//! begins.
//!
//! Because a shard's step is a pure function of its own state and the
//! barrier horizon, and barrier effects are computed after *all* shards
//! reach the barrier, the schedule of work is independent of how shards are
//! assigned to worker threads: a 1-thread and an N-thread run of the same
//! seed produce byte-identical per-tenant trace digests. The
//! `tests/determinism.rs` thread-invariance suite holds this against the
//! committed goldens.
//!
//! The admission hook follows TierBPF: the bounded global pool of in-flight
//! migration slots is re-granted at each barrier as a weighted share to the
//! tenants that demonstrated demand, with a largest-deficit distribution of
//! the leftover and a starvation counter that front-runs chronically losing
//! tenants when slots are scarce.

use sim_clock::{DetRng, Nanos};
use tiered_mem::{TierEvent, TieredSystem};
use workloads::Workload;

use crate::driver::{DriverConfig, DriverSession, RunResult};
use crate::policy::TieringPolicy;

/// `MigrateError::index` slot for backpressure-rejected fast migrations —
/// the admission hook reads it as a demand signal.
const BACKPRESSURE_IDX: usize = 3;

/// Configuration of the TierBPF-style per-tenant admission hook.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// When false, the sharded runner never touches any shard's slot cap —
    /// single-tenant runs then reproduce the classic driver byte-for-byte.
    pub enabled: bool,
    /// Global pool of in-flight migration slots shared by all tenants.
    pub total_slots: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            enabled: false,
            // Matches `MigrationSpec::default().inflight_slots`, so enabling
            // the hook over one tenant grants it exactly the classic budget.
            total_slots: 512,
        }
    }
}

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Simulated horizon of the whole run.
    pub run_for: Nanos,
    /// Barrier interval — one conservative time step. Aligning this with
    /// the policies' scan period keeps admission decisions in phase with
    /// promotion-queue drains.
    pub barrier_interval: Nanos,
    /// Worker threads stepping shards between barriers (1 = sequential).
    /// Digests must not depend on this; only wall-clock time does.
    pub threads: usize,
    /// When set, shards are stepped in a per-window pseudorandom order
    /// (Fisher–Yates over `DetRng::split(seed, barrier_index)`) instead of
    /// id order, and the thread chunking follows that order. Digests must
    /// not depend on this either — shards share nothing between barriers —
    /// which is exactly what the `tests/determinism.rs` permutation
    /// property and the chrono-race interleaving checker hold.
    pub permute_seed: Option<u64>,
    /// Per-tenant migration-slot admission.
    pub admission: AdmissionConfig,
    /// Tier failure-domain events applied to *every* shard at the first
    /// barrier at or after each event's firing time, in tenant-id order —
    /// the cross-shard analogue of a per-system
    /// `tiered_mem::FaultPlan::tier_events` schedule. Because application
    /// happens single-threaded at the barrier, the chaos is identical for
    /// any worker-thread count.
    pub tier_events: Vec<TierEvent>,
}

impl ShardedConfig {
    /// A sharded run over the given horizon with the default 5 ms barrier.
    pub fn new(run_for: Nanos) -> ShardedConfig {
        ShardedConfig {
            run_for,
            barrier_interval: Nanos::from_millis(5),
            threads: 1,
            permute_seed: None,
            admission: AdmissionConfig::default(),
            tier_events: Vec::new(),
        }
    }
}

/// One tenant: its own tiered system (over a frame partition), workload
/// streams, policy instance, and paused driver session.
pub struct TenantShard {
    /// Tenant id — must equal the shard's index in the runner.
    pub id: u32,
    /// Admission weight (share of the global migration-slot pool).
    pub weight: u64,
    /// The tenant's private substrate (frame tables over its partition).
    pub sys: TieredSystem,
    /// One workload per process in `sys`, same order.
    pub workloads: Vec<Box<dyn Workload>>,
    /// The tenant's policy instance.
    pub policy: Box<dyn TieringPolicy>,
    session: DriverSession,
}

impl TenantShard {
    /// Builds a shard. `driver` configures the per-tenant session; its
    /// `run_for` is clamped to the sharded run's horizon at run time.
    pub fn new(
        id: u32,
        weight: u64,
        sys: TieredSystem,
        workloads: Vec<Box<dyn Workload>>,
        policy: Box<dyn TieringPolicy>,
        driver: DriverConfig,
    ) -> TenantShard {
        TenantShard {
            id,
            weight,
            sys,
            workloads,
            policy,
            session: DriverSession::new(driver),
        }
    }

    /// Accesses executed so far.
    pub fn accesses(&self) -> u64 {
        self.session.accesses()
    }

    /// Whether this tenant's run hit a terminal stop condition.
    pub fn is_finished(&self) -> bool {
        self.session.is_finished()
    }

    fn step_to(&mut self, horizon: Nanos) {
        self.session.step_until(
            horizon,
            &mut self.sys,
            &mut self.workloads,
            self.policy.as_mut(),
            |_, _, _, _| {},
            |_| {},
        );
    }
}

/// Per-tenant outcome of a sharded run.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant id.
    pub id: u32,
    /// Admission weight the run used.
    pub weight: u64,
    /// The tenant's classic run result (latency histograms, series, ...).
    pub result: RunResult,
    /// The tenant's trace digest (`sys.trace.digest()`).
    pub digest: u64,
    /// The tenant's fast-tier memory access ratio.
    pub fmar: f64,
    /// Cumulative in-flight slots granted across barriers (0 if hook off).
    pub granted_slots: u64,
    /// Worst consecutive-barriers-starved count this tenant ever reached.
    pub max_starvation: u32,
}

/// Result of a sharded run: per-tenant outcomes plus the post-run shards
/// (for oracle inspection) and fairness aggregates.
pub struct ShardedRunResult {
    /// Per-tenant outcomes, tenant-id order.
    pub outcomes: Vec<TenantOutcome>,
    /// The shards after the run, for invariant checks and stats.
    pub shards: Vec<TenantShard>,
    /// Barriers executed.
    pub barriers: u64,
}

impl ShardedRunResult {
    /// One digest for the whole run. A single-tenant run's combined digest
    /// is exactly that tenant's trace digest (the classic-driver compat
    /// surface); multi-tenant runs fold `(id, digest)` pairs in id order
    /// through FNV-1a, so the value is thread-count-invariant.
    pub fn combined_digest(&self) -> u64 {
        if self.outcomes.len() == 1 {
            return self.outcomes[0].digest;
        }
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for o in &self.outcomes {
            fold(o.id as u64);
            fold(o.digest);
        }
        h
    }

    /// Total accesses across tenants.
    pub fn total_accesses(&self) -> u64 {
        self.outcomes.iter().map(|o| o.result.accesses).sum()
    }

    /// Max simulated makespan across tenants.
    pub fn makespan(&self) -> Nanos {
        self.outcomes
            .iter()
            .map(|o| o.result.makespan)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Gini coefficient of per-tenant cumulative slot grants (0 = equal
    /// shares). With the hook disabled (no grants anywhere) this is 0.
    pub fn slot_share_gini(&self) -> f64 {
        gini(
            &self
                .outcomes
                .iter()
                .map(|o| o.granted_slots as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// `(min, max)` per-tenant FMAR — the fairness spread headline.
    pub fn fmar_spread(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for o in &self.outcomes {
            lo = lo.min(o.fmar);
            hi = hi.max(o.fmar);
        }
        if self.outcomes.is_empty() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }
}

/// Gini coefficient of a non-negative sample (0 = perfectly equal,
/// → 1 = one holder). Zero-sum samples report 0.
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite fairness samples"));
    let sum: f64 = sorted.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64
}

/// One demanding tenant's claim on the slot pool at a barrier.
#[derive(Debug, Clone, Copy)]
pub struct SlotClaim {
    /// The tenant's admission weight (zero behaves as one).
    pub weight: u64,
    /// Consecutive barriers this tenant has demanded and received nothing.
    pub starvation: u32,
}

/// Pure barrier-time grant computation over the demanding tenants, in claim
/// order. Two regimes:
///
/// - **Weighted** (`total_slots ≥ 2·claims`): every claimant is floored at
///   `max(1, ceil(target/2))` where `target = total·wᵢ/Σw` — this proves
///   the *weight/2 share bound* (no demanding tenant's grant falls below
///   half its weighted fair share; Σ of the floors provably fits because
///   Σ ceil(targetᵢ/2) ≤ total/2 + |claims| ≤ total here). The leftover is
///   dealt round-robin in largest-deficit order (ties: starvation
///   descending, then claim index), so Σ grants = total exactly.
/// - **Scarce** (`total_slots < 2·claims`): one slot each to the
///   `total_slots` most-starved (then heaviest, then lowest-index)
///   claimants. Losers' starvation counters front-run them next barrier, so
///   no demanding tenant waits more than ⌈claims/total⌉ barriers.
pub fn admission_grants(total_slots: u64, claims: &[SlotClaim]) -> Vec<u64> {
    let n = claims.len();
    let mut grants = vec![0u64; n];
    if n == 0 || total_slots == 0 {
        return grants;
    }
    if total_slots >= 2 * n as u64 {
        let sum_w: u128 = claims.iter().map(|c| c.weight.max(1) as u128).sum();
        let mut assigned = 0u64;
        // (deficit, starvation, index) ordering for the leftover.
        let mut order: Vec<(i128, u32, usize)> = Vec::with_capacity(n);
        for (i, c) in claims.iter().enumerate() {
            let num = total_slots as u128 * c.weight.max(1) as u128;
            let base = (num.div_ceil(2 * sum_w) as u64).max(1);
            grants[i] = base;
            assigned += base;
            let deficit = num as i128 - (base as u128 * sum_w) as i128;
            order.push((deficit, c.starvation, i));
        }
        order.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let leftover = total_slots - assigned;
        for k in 0..leftover {
            grants[order[k as usize % order.len()].2] += 1;
        }
    } else {
        let mut order: Vec<(u32, u64, usize)> = claims
            .iter()
            .enumerate()
            .map(|(i, c)| (c.starvation, c.weight, i))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        for &(_, _, i) in order.iter().take(total_slots as usize) {
            grants[i] = 1;
        }
    }
    grants
}

/// Per-tenant migration-activity snapshot the admission hook diffs between
/// barriers to detect demand.
#[derive(Debug, Clone, Copy, Default)]
struct ActivitySnapshot {
    begun: u64,
    completed: u64,
    aborted: u64,
    backpressured: u64,
}

impl ActivitySnapshot {
    fn of(sys: &TieredSystem) -> ActivitySnapshot {
        ActivitySnapshot {
            begun: sys.stats.begun_migrations,
            completed: sys.stats.completed_migrations,
            aborted: sys.stats.aborted_migrations,
            backpressured: sys.stats.failed_fast_migrations[BACKPRESSURE_IDX],
        }
    }
}

/// Barrier-time admission state: starvation counters, cumulative grants,
/// and the previous activity snapshots.
struct AdmissionControl {
    cfg: AdmissionConfig,
    starvation: Vec<u32>,
    max_starvation: Vec<u32>,
    granted_total: Vec<u64>,
    prev: Vec<ActivitySnapshot>,
}

impl AdmissionControl {
    fn new(cfg: AdmissionConfig, tenants: usize) -> AdmissionControl {
        AdmissionControl {
            cfg,
            starvation: vec![0; tenants],
            max_starvation: vec![0; tenants],
            granted_total: vec![0; tenants],
            prev: vec![ActivitySnapshot::default(); tenants],
        }
    }

    /// Computes and applies this barrier's slot grants, in tenant-id order.
    /// `first` treats every tenant as demanding (nobody has had a chance to
    /// demonstrate demand yet). Returns the audit record of the decision —
    /// the seam through which `tiering-verify` replays every barrier
    /// through the chrono-race `canonical_grants` reimplementation.
    fn apply(&mut self, shards: &mut [TenantShard], first: bool, barrier: u64) -> BarrierAudit {
        let total = self.cfg.total_slots as u64;
        // Demand detection: any migration activity since the last barrier,
        // in-flight work, or admission rejections (a zero-cap tenant can
        // only signal through rejections, which is why they count).
        let mut active: Vec<usize> = Vec::new();
        for (i, s) in shards.iter().enumerate() {
            let now = ActivitySnapshot::of(&s.sys);
            let p = self.prev[i];
            let demanding = first
                || now.begun > p.begun
                || now.completed > p.completed
                || now.aborted > p.aborted
                || now.backpressured > p.backpressured
                || s.sys.migration_in_flight_count() > 0;
            self.prev[i] = now;
            if demanding {
                active.push(i);
            }
        }

        let claims: Vec<SlotClaim> = active
            .iter()
            .map(|&i| SlotClaim {
                weight: shards[i].weight,
                starvation: self.starvation[i],
            })
            .collect();
        let mut grants = vec![0u64; shards.len()];
        if !claims.is_empty() {
            for (&i, g) in active.iter().zip(admission_grants(total, &claims)) {
                grants[i] = g;
            }
        }

        // Apply in tenant-id order: cap the engine, bump the counters, and
        // trace the grant into the tenant's own ring.
        let mut is_active = vec![false; shards.len()];
        for &i in &active {
            is_active[i] = true;
        }
        for (i, s) in shards.iter_mut().enumerate() {
            let g = grants[i];
            s.sys.set_inflight_slots(g as usize);
            self.granted_total[i] += g;
            if is_active[i] {
                if g > 0 {
                    self.starvation[i] = 0;
                } else {
                    self.starvation[i] += 1;
                    self.max_starvation[i] = self.max_starvation[i].max(self.starvation[i]);
                }
            } else {
                self.starvation[i] = 0;
            }
            let in_flight = s.sys.migration_in_flight_count() as u32;
            s.sys
                .trace_admission(s.id, g as u32, in_flight, self.starvation[i]);
        }

        BarrierAudit {
            barrier,
            first,
            total_slots: total,
            active: active.iter().map(|&i| shards[i].id).collect(),
            claims,
            grants,
        }
    }
}

/// One barrier's admission decision, exactly as applied: the demanding
/// tenants (tenant-id order), their claims, and the full per-tenant grant
/// vector. `ShardedSim::run_with_audit` hands one of these to its audit
/// hook per barrier, which is how the tiering-verify oracle replays every
/// decision through the independently implemented
/// `tiering_analysis::canonical_grants` and cross-checks the result.
#[derive(Debug, Clone)]
pub struct BarrierAudit {
    /// Barrier index (0 = the pre-run first grant).
    pub barrier: u64,
    /// Whether this was the first barrier (everyone treated as demanding).
    pub first: bool,
    /// The global slot pool the decision distributed.
    pub total_slots: u64,
    /// Demanding tenant ids, in tenant-id order.
    pub active: Vec<u32>,
    /// The demanding tenants' claims, in the same order as `active`.
    pub claims: Vec<SlotClaim>,
    /// Granted slots per tenant (indexed by tenant id; non-demanding
    /// tenants hold 0).
    pub grants: Vec<u64>,
}

/// The sharded runner: shards plus barrier-time admission state.
pub struct ShardedSim {
    cfg: ShardedConfig,
    shards: Vec<TenantShard>,
}

impl ShardedSim {
    /// Builds a runner. Shard ids must equal their index (the barrier
    /// applies cross-shard effects in this order).
    pub fn new(cfg: ShardedConfig, shards: Vec<TenantShard>) -> ShardedSim {
        assert!(!shards.is_empty(), "at least one tenant shard");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.id as usize, i, "shard ids must be dense and ordered");
        }
        ShardedSim { cfg, shards }
    }

    /// Runs to the horizon. Equivalent to [`ShardedSim::run_with`] with a
    /// no-op barrier hook.
    pub fn run(self) -> ShardedRunResult {
        self.run_with(|_| {})
    }

    /// Runs to the horizon, invoking `barrier_hook` for every shard (in
    /// tenant-id order, after admission was applied) at every barrier and
    /// once after the final one — the seam the tenant-storm fuzz oracle
    /// inspects cross-shard invariants through.
    pub fn run_with<H>(self, barrier_hook: H) -> ShardedRunResult
    where
        H: FnMut(&TenantShard),
    {
        self.run_with_audit(barrier_hook, |_| {})
    }

    /// [`ShardedSim::run_with`], plus an audit hook receiving every
    /// barrier's [`BarrierAudit`] (the first pre-run grant included) before
    /// the per-shard barrier hooks fire. The audit is how external oracles
    /// re-derive each admission decision without reaching into the
    /// otherwise-private control state.
    pub fn run_with_audit<H, A>(
        mut self,
        mut barrier_hook: H,
        mut audit_hook: A,
    ) -> ShardedRunResult
    where
        H: FnMut(&TenantShard),
        A: FnMut(&BarrierAudit),
    {
        let run_for = self.cfg.run_for;
        let step = self.cfg.barrier_interval.max(Nanos(1));
        let threads = self.cfg.threads.max(1);
        let mut ctl = AdmissionControl::new(self.cfg.admission.clone(), self.shards.len());
        let mut tier_events = self.cfg.tier_events.clone();
        tier_events.sort_by_key(|e| e.at);
        let mut next_tier_event = 0usize;

        if ctl.cfg.enabled {
            audit_hook(&ctl.apply(&mut self.shards, true, 0));
        }

        let mut barriers = 0u64;
        let mut now = Nanos::ZERO;
        while now < run_for && self.shards.iter().any(|s| !s.is_finished()) {
            let next = (now + step).min(run_for);
            // Shards share nothing between barriers, so neither the order
            // shards are stepped in nor their assignment to threads can
            // change any per-shard state. `permute_seed` exercises that
            // claim: a per-window Fisher–Yates shuffle of the step order
            // (and of the chunk boundaries) that must leave every digest
            // byte-identical.
            let order: Option<Vec<usize>> = self.cfg.permute_seed.map(|seed| {
                let mut order: Vec<usize> = (0..self.shards.len()).collect();
                let mut rng = DetRng::split(seed, barriers);
                for i in (1..order.len()).rev() {
                    let j = rng.index(i + 1);
                    order.swap(i, j);
                }
                order
            });
            match order {
                None if threads == 1 || self.shards.len() == 1 => {
                    for s in self.shards.iter_mut() {
                        s.step_to(next);
                    }
                }
                None => {
                    // Chunking by contiguous id ranges keeps the default
                    // partitioning stable.
                    let chunk = self.shards.len().div_ceil(threads);
                    std::thread::scope(|scope| {
                        for shard_chunk in self.shards.chunks_mut(chunk) {
                            scope.spawn(move || {
                                for s in shard_chunk {
                                    s.step_to(next);
                                }
                            });
                        }
                    });
                }
                Some(order) => {
                    let mut rank = vec![0usize; order.len()];
                    for (pos, &i) in order.iter().enumerate() {
                        rank[i] = pos;
                    }
                    let mut refs: Vec<&mut TenantShard> = self.shards.iter_mut().collect();
                    refs.sort_by_key(|s| rank[s.id as usize]);
                    if threads == 1 || refs.len() == 1 {
                        for s in refs {
                            s.step_to(next);
                        }
                    } else {
                        let chunk = refs.len().div_ceil(threads);
                        std::thread::scope(|scope| {
                            for shard_chunk in refs.chunks_mut(chunk) {
                                scope.spawn(move || {
                                    for s in shard_chunk {
                                        s.step_to(next);
                                    }
                                });
                            }
                        });
                    }
                }
            }
            now = next;
            barriers += 1;
            // Barrier-scheduled tier chaos: applied single-threaded, every
            // shard in tenant-id order per event, so the failure arrives at
            // the same virtual instant for any thread count.
            while let Some(&ev) = tier_events.get(next_tier_event).filter(|e| e.at <= now) {
                next_tier_event += 1;
                for s in self.shards.iter_mut() {
                    s.sys.apply_tier_event(ev);
                }
            }
            if ctl.cfg.enabled {
                audit_hook(&ctl.apply(&mut self.shards, false, barriers));
            }
            for s in &self.shards {
                barrier_hook(s);
            }
        }

        let mut outcomes = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter_mut().enumerate() {
            let session =
                std::mem::replace(&mut s.session, DriverSession::new(DriverConfig::default()));
            let result = session.finish(&mut s.sys);
            outcomes.push(TenantOutcome {
                id: s.id,
                weight: s.weight,
                digest: s.sys.trace.digest(),
                fmar: s.sys.stats.fmar(),
                granted_slots: ctl.granted_total[i],
                max_starvation: ctl.max_starvation[i],
                result,
            });
        }
        ShardedRunResult {
            outcomes,
            shards: self.shards,
            barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullPolicy;
    use tiered_mem::{PageSize, PartitionPlan, SystemConfig, TierId};
    use workloads::{PmbenchConfig, PmbenchWorkload};

    fn shard(id: u32, weight: u64, fast: u32, slow: u32, seed: u64) -> TenantShard {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(fast, slow));
        sys.enable_tracing(1 << 10);
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(256, 0.7, seed));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        TenantShard::new(
            id,
            weight,
            sys,
            vec![Box::new(w)],
            Box::new(NullPolicy),
            DriverConfig::for_secs(3600),
        )
    }

    fn build(tenants: usize, threads: usize) -> ShardedSim {
        let totals = [256 * tenants as u32, 768 * tenants as u32];
        let plan = PartitionPlan::split_weighted_tiers(&totals, &vec![1; tenants]);
        let shards = (0..tenants)
            .map(|i| {
                let p = plan.part(i);
                let (fast, slow) = (p.frames(TierId::FAST), p.frames(TierId::SLOW));
                shard(i as u32, 1, fast, slow, i as u64)
            })
            .collect();
        let mut cfg = ShardedConfig::new(Nanos::from_millis(10));
        cfg.threads = threads;
        ShardedSim::new(cfg, shards)
    }

    #[test]
    fn sharded_run_is_thread_invariant() {
        let one = build(4, 1).run();
        let four = build(4, 4).run();
        assert_eq!(one.combined_digest(), four.combined_digest());
        assert_eq!(one.total_accesses(), four.total_accesses());
        for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
            assert_eq!(a.digest, b.digest, "tenant {} diverged", a.id);
        }
    }

    #[test]
    fn single_tenant_combined_digest_is_the_tenant_digest() {
        let r = build(1, 1).run();
        assert_eq!(r.combined_digest(), r.outcomes[0].digest);
    }

    #[test]
    fn barrier_hook_sees_every_tenant_every_barrier() {
        let mut seen = Vec::new();
        let r = build(3, 2).run_with(|s| seen.push(s.id));
        assert_eq!(seen.len() as u64, 3 * r.barriers);
        // Tenant-id order inside each barrier.
        for w in seen.chunks(3) {
            assert_eq!(w, [0, 1, 2]);
        }
    }

    #[test]
    fn admission_grants_spend_the_pool_exactly_in_weighted_regime() {
        let claims = [
            SlotClaim {
                weight: 5,
                starvation: 0,
            },
            SlotClaim {
                weight: 1,
                starvation: 2,
            },
            SlotClaim {
                weight: 3,
                starvation: 0,
            },
        ];
        let grants = admission_grants(64, &claims);
        assert_eq!(grants.iter().sum::<u64>(), 64);
        assert!(grants.iter().all(|&g| g >= 1));
    }

    #[test]
    fn admission_grants_scarce_regime_serves_the_starved_first() {
        let claims: Vec<SlotClaim> = (0..8)
            .map(|i| SlotClaim {
                weight: 1,
                starvation: if i >= 6 { 3 } else { 0 },
            })
            .collect();
        let grants = admission_grants(3, &claims);
        assert_eq!(grants.iter().sum::<u64>(), 3);
        // The two starved claimants win first, then the lowest index.
        assert_eq!(grants[6], 1);
        assert_eq!(grants[7], 1);
        assert_eq!(grants[0], 1);
    }

    /// 256-seed fairness property: in the weighted regime no demanding
    /// tenant's grant falls below half its weighted fair share, grants
    /// always spend the pool exactly, and everyone gets at least one slot.
    #[test]
    fn fairness_property_weight_over_two_floor_holds_for_256_seeds() {
        let mut rng = sim_clock::DetRng::seed(0xFA1E_0007);
        for case in 0..256u64 {
            let n = 2 + rng.below(14) as usize;
            let claims: Vec<SlotClaim> = (0..n)
                .map(|_| SlotClaim {
                    weight: 1 + rng.below(100),
                    starvation: rng.below(4) as u32,
                })
                .collect();
            // Weighted-regime precondition: total ≥ 2·claims.
            let total = 2 * n as u64 + rng.below(512);
            let grants = admission_grants(total, &claims);
            assert_eq!(
                grants.iter().sum::<u64>(),
                total,
                "case {case}: pool not spent exactly"
            );
            let sum_w: u128 = claims.iter().map(|c| c.weight as u128).sum();
            for (i, (g, c)) in grants.iter().zip(&claims).enumerate() {
                assert!(*g >= 1, "case {case}: claimant {i} starved outright");
                // g ≥ target/2 ⇔ 2·g·Σw ≥ total·w (integer-exact).
                assert!(
                    2 * (*g as u128) * sum_w >= total as u128 * c.weight as u128,
                    "case {case}: claimant {i} below weight/2 floor \
                     (grant {g}, weight {}, total {total})",
                    c.weight
                );
            }
        }
    }

    /// Scarce-regime liveness: round-robin by starvation serves every
    /// demanding claimant within ⌈n/total⌉ barriers.
    #[test]
    fn fairness_property_scarce_regime_is_starvation_free() {
        let mut rng = sim_clock::DetRng::seed(0x5CA4_CE07);
        for case in 0..256u64 {
            let n = 4 + rng.below(28) as usize;
            let total = 1 + rng.below(n as u64 / 2); // strictly scarce
            let mut starvation = vec![0u32; n];
            let mut served = vec![false; n];
            let rounds = n.div_ceil(total as usize) + 1;
            for _ in 0..rounds {
                let claims: Vec<SlotClaim> = (0..n)
                    .map(|i| SlotClaim {
                        weight: 1 + (i as u64 % 5),
                        starvation: starvation[i],
                    })
                    .collect();
                let grants = admission_grants(total, &claims);
                for i in 0..n {
                    if grants[i] > 0 {
                        served[i] = true;
                        starvation[i] = 0;
                    } else {
                        starvation[i] += 1;
                    }
                }
            }
            assert!(
                served.iter().all(|&s| s),
                "case {case}: a claimant waited beyond the round-robin bound \
                 (n={n}, total={total})"
            );
        }
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert!(gini(&[1.0, 1.0, 1.0]).abs() < 1e-12);
        let skewed = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(skewed > 0.7, "one-holder sample must be near 1: {skewed}");
    }
}
