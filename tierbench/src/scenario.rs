//! The benchmark's three workloads, each built and run only through the
//! program's public API.
//!
//! - `steady-2tier`: one pmbench process replayed through a
//!   [`workloads::Trace`] under the standalone Chrono pair on DRAM+PMem.
//! - `churn-3tier`: a [`PhasedWorkload`] whose hot centre cycles, replayed,
//!   under [`CascadeChrono`] on the DRAM+CXL+PMem chain.
//! - `fleet-2tier`: [`harness::tenants::build_fleet`] run by
//!   [`ShardedSim::run_with_audit`] with admission on.
//!
//! A *rep* is one set-up plus one fixed-size simulation. Every rep of a seed
//! performs identical simulated work, so the deterministic metrics come from
//! any rep and must agree across all of them.

use std::sync::Arc;

use chrono_core::{CascadeChrono, ChronoPolicy};
use harness::runner::{PolicyKind, Scale, Topology};
use harness::tenants::{build_fleet, FleetConfig};
use sim_clock::Nanos;
use tiered_mem::{PageSize, SystemStats, TierId, TieredSystem};
use tiering_analysis::{canonical_grants, RaceClaim};
use tiering_metrics::LatencyHistogram;
use tiering_policies::{
    AdmissionConfig, DriverConfig, DriverSession, NullPolicy, ShardedConfig, ShardedSim,
    TenantShard, TieringPolicy,
};
use tiering_verify::InvariantOracle;
use workloads::{PhasedWorkload, PmbenchConfig, PmbenchWorkload, Trace, TraceRecord, Workload};

use crate::clock::now_ns;
use crate::probe::{FleetClock, Mode, Step, Tap, TappedPolicy, TappedWorkload};

/// `MigrateError::index` of `Backpressure` (the admission-reject cell).
const BACKPRESSURE_IDX: usize = 3;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Steady,
    Churn,
    Fleet,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] = [WorkloadId::Steady, WorkloadId::Churn, WorkloadId::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Steady => "steady-2tier",
            WorkloadId::Churn => "churn-3tier",
            WorkloadId::Fleet => "fleet-2tier",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given, and the hold-out seed kept back for
    /// re-checking a gain claim on inputs it was not tuned on.
    pub fn seeds(self) -> (u64, u64) {
        match self {
            WorkloadId::Steady => (1010, 2020),
            WorkloadId::Churn => (4242, 8484),
            WorkloadId::Fleet => (0xF1EE_7001, 0xF1EE_7002),
        }
    }
}

/// Size of one rep. `full` is the benchmark size; the small size serves the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Accesses per rep (single-system workloads).
    pub accesses: u64,
    /// Tenants (fleet).
    pub tenants: usize,
}

impl Size {
    pub fn full(id: WorkloadId) -> Size {
        match id {
            WorkloadId::Steady => Size {
                accesses: 6_000_000,
                tenants: 0,
            },
            WorkloadId::Churn => Size {
                accesses: 1_000_000,
                tenants: 0,
            },
            WorkloadId::Fleet => Size {
                accesses: 0,
                tenants: 512,
            },
        }
    }

    pub fn small(id: WorkloadId) -> Size {
        match id {
            WorkloadId::Steady => Size {
                accesses: 150_000,
                tenants: 0,
            },
            WorkloadId::Churn => Size {
                accesses: 60_000,
                tenants: 0,
            },
            WorkloadId::Fleet => Size {
                accesses: 0,
                tenants: 12,
            },
        }
    }
}

/// Shape of a single-system workload.
struct SingleShape {
    topology: Topology,
    pages: u32,
    /// Simulated width of one timing window (one `step_until` slice).
    slice: Nanos,
}

fn shape(id: WorkloadId) -> SingleShape {
    match id {
        WorkloadId::Steady => SingleShape {
            topology: Topology::DramPmem,
            pages: 8192,
            slice: Nanos::from_millis(5),
        },
        WorkloadId::Churn => SingleShape {
            topology: Topology::ThreeTier,
            pages: 65_536,
            slice: Nanos::from_millis(2),
        },
        WorkloadId::Fleet => unreachable!("the fleet is not a single system"),
    }
}

/// Simulated horizon of a single-system rep: a backstop only; the access
/// cap ends the run.
const HORIZON: Nanos = Nanos(3_600_000_000_000);

/// Chrono as `PolicyKind::Chrono` builds it, kept concrete so the
/// benchmark can read the per-pair queue and retry flows.
pub enum ChronoUnderTest {
    Pair(Box<ChronoPolicy>),
    Cascade(CascadeChrono),
}

impl ChronoUnderTest {
    /// Mirrors [`PolicyKind::build`] for [`PolicyKind::Chrono`]: a
    /// standalone pair on two tiers, a cascade on longer chains.
    pub fn build(scale: &Scale) -> ChronoUnderTest {
        let cfg = PolicyKind::Chrono.chrono_config(scale);
        match scale.topology.num_tiers() {
            2 => ChronoUnderTest::Pair(Box::new(ChronoPolicy::new(cfg))),
            n => ChronoUnderTest::Cascade(CascadeChrono::new(cfg, n)),
        }
    }

    pub fn as_dyn(&mut self) -> &mut dyn TieringPolicy {
        match self {
            ChronoUnderTest::Pair(p) => p.as_mut(),
            ChronoUnderTest::Cascade(c) => c,
        }
    }

    pub fn into_box(self) -> Box<dyn TieringPolicy> {
        match self {
            ChronoUnderTest::Pair(p) => p,
            ChronoUnderTest::Cascade(c) => Box::new(c),
        }
    }

    pub fn pairs(&self) -> &[ChronoPolicy] {
        match self {
            ChronoUnderTest::Pair(p) => std::slice::from_ref(p.as_ref()),
            ChronoUnderTest::Cascade(c) => c.pairs(),
        }
    }
}

/// Tally of correctness checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Oracle invariants and migration flow on one system.
    fn system(&mut self, sys: &TieredSystem, who: &str) {
        let violations = InvariantOracle::new().check(sys);
        self.check(violations.is_empty(), || {
            format!("{who}: oracle: {}", violations[0])
        });
        let s = &sys.stats;
        let in_flight = sys.migration_in_flight_count() as u64;
        let faulted = s.transient_copy_faults + s.poisoned_copy_faults;
        self.check(
            s.begun_migrations == s.completed_migrations + s.aborted_migrations + in_flight + faulted,
            || {
                format!(
                    "{who}: migration flow: begun {} != completed {} + aborted {} + in-flight {} + faulted {}",
                    s.begun_migrations, s.completed_migrations, s.aborted_migrations, in_flight, faulted
                )
            },
        );
    }
}

/// Simulated counts summed over every system of a rep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub fast_accesses: u64,
    pub total_accesses: u64,
    pub hint_faults: u64,
    pub demand_faults: u64,
    pub scanned_ptes: u64,
    pub begun: u64,
    pub completed: u64,
    pub aborted: u64,
    pub backpressured: u64,
    pub promoted: [u64; 2],
    pub demoted: [u64; 2],
    pub promoted_pages: u64,
    pub thrash_events: u64,
}

impl Counts {
    fn add(&mut self, s: &SystemStats) {
        self.fast_accesses += s.tier_accesses(TierId::FAST);
        self.total_accesses += s.total_accesses();
        self.hint_faults += s.hint_faults;
        self.demand_faults += s.demand_faults;
        self.scanned_ptes += s.scanned_ptes;
        self.begun += s.begun_migrations;
        self.completed += s.completed_migrations;
        self.aborted += s.aborted_migrations;
        self.backpressured += s.failed_fast_migrations[BACKPRESSURE_IDX];
        for e in 0..2 {
            self.promoted[e] += s.promoted_per_edge[e];
            self.demoted[e] += s.demoted_per_edge[e];
        }
        self.promoted_pages += s.promoted_pages;
        self.thrash_events += s.thrash_events;
    }
}

/// The deterministic outcome of one rep.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    pub accesses: u64,
    pub makespan: Nanos,
    pub latency: LatencyHistogram,
    pub counts: Counts,
    /// FNV-1a over every system's `SystemStats` (and, for the fleet, the
    /// combined trace digest): equal fingerprints mean identical runs.
    pub fingerprint: u64,
    pub slot_share_equality: f64,
    pub admission_grants: u64,
    pub admission_rejects: u64,
    pub max_starvation: u64,
    pub barriers: u64,
    /// Promotion-queue `(offered, dequeued)` pages over every Chrono pair
    /// (single-system workloads; the fleet's policies are opaque boxes).
    pub queue: Option<(u64, u64)>,
}

impl SimOutcome {
    pub fn sim_throughput(&self) -> f64 {
        self.accesses as f64 / self.makespan.as_secs_f64().max(1e-12)
    }

    pub fn fmar(&self) -> f64 {
        self.counts.fast_accesses as f64 / self.counts.total_accesses.max(1) as f64
    }

    pub fn p99_ns(&self) -> f64 {
        crate::report::p99_interpolated(&self.latency)
    }
}

/// Host-side measurements of one rep.
#[derive(Debug, Clone, Default)]
pub struct HostTiming {
    /// Wall time of the simulation (set-up excluded).
    pub run_ns: u64,
    /// Host ns per access of every timing window.
    pub windows: Vec<f64>,
}

/// Per-layer host time of one traced rep.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `(span, self ns, spans)` summed over every tap.
    pub spans: Vec<(crate::probe::Span, f64, u64)>,
    /// Clock reads made by the decorators.
    pub reads: u64,
    /// Host ns of all work, summed over worker threads: the traced total
    /// the layer self times add up to.
    pub total_ns: f64,
    /// Wall ns of the run.
    pub wall_ns: f64,
    /// Fleet only: serial ns outside the parallel step phases.
    pub serial_ns: f64,
    /// Fleet only: worker threads idle while another worker finished.
    pub idle_ns: f64,
    /// Fleet only: Σ max worker busy ÷ Σ mean worker busy over windows.
    pub imbalance: f64,
}

/// One rep's results.
pub struct RepResult {
    pub setup_ns: u64,
    pub record_ns: u64,
    pub trace_bytes: u64,
    pub sim: SimOutcome,
    pub host: HostTiming,
    pub checks: Checks,
    /// Taps of a decorated rep (one per system).
    pub taps: Vec<Arc<Tap>>,
}

/// Runs one rep of `id` on `seed`: set-up, then the fixed simulation, with
/// every workload and policy decorated in `decor` mode if one is given.
pub fn rep(
    id: WorkloadId,
    seed: u64,
    size: Size,
    decor: Option<Mode>,
    threads: usize,
) -> RepResult {
    match id {
        WorkloadId::Fleet => fleet_rep(seed, size, decor, threads),
        _ => single_rep(id, seed, size, decor),
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The input generator of a single-system workload.
fn generator(id: WorkloadId, seed: u64) -> Box<dyn Workload> {
    match id {
        WorkloadId::Steady => Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
            shape(id).pages,
            0.95,
            seed,
        ))),
        WorkloadId::Churn => Box::new(PhasedWorkload::new(
            shape(id).pages,
            vec![0.15, 0.65, 0.35, 0.85],
            250_000,
            0.5,
            seed,
        )),
        WorkloadId::Fleet => unreachable!("the fleet generates its inputs live"),
    }
}

/// A single-system rep ready to run: system, replayed trace and policy.
pub struct SingleSetup {
    pub sys: TieredSystem,
    pub workload: Box<dyn Workload>,
    pub policy: ChronoUnderTest,
    pub record_ns: u64,
    pub trace_bytes: u64,
    pub slice: Nanos,
}

/// Records the trace and builds system and policy.
pub fn single_setup(id: WorkloadId, seed: u64, size: Size) -> SingleSetup {
    let sh = shape(id);
    let scale = Scale {
        topology: sh.topology,
        ..Scale::default_scale()
    };
    let t0 = now_ns();
    let mut gen = generator(id, seed);
    let trace = Trace::record(&mut gen, size.accesses as usize);
    let record_ns = now_ns() - t0;
    let trace_bytes = (trace.records.capacity() * std::mem::size_of::<TraceRecord>()) as u64;
    let mut sys = TieredSystem::new(sh.topology.system_config(sh.pages + sh.pages / 4));
    sys.add_process(trace.pages, PageSize::Base);
    SingleSetup {
        sys,
        workload: Box::new(trace.into_workload()),
        policy: ChronoUnderTest::build(&scale),
        record_ns,
        trace_bytes,
        slice: sh.slice,
    }
}

/// The driver configuration of a single-system rep.
pub fn single_driver(size: Size) -> DriverConfig {
    DriverConfig {
        run_for: HORIZON,
        max_accesses: size.accesses,
        ..Default::default()
    }
}

/// Steps a session to its end in `slice`-wide simulated windows, timing
/// each `step_until` call as one window.
pub fn step_sliced(
    session: &mut DriverSession,
    slice: Nanos,
    sys: &mut TieredSystem,
    wls: &mut [Box<dyn Workload>],
    policy: &mut dyn TieringPolicy,
) -> HostTiming {
    let mut host = HostTiming::default();
    let start = now_ns();
    let mut horizon = slice;
    while !session.is_finished() {
        let a0 = session.accesses();
        let w0 = now_ns();
        session.step_until(horizon, sys, wls, policy, |_, _, _, _| {}, |_| {});
        let dt = now_ns() - w0;
        let da = session.accesses() - a0;
        if da > 0 {
            host.windows.push(dt as f64 / da as f64);
        }
        horizon += slice;
    }
    host.run_ns = now_ns() - start;
    host
}

fn single_rep(id: WorkloadId, seed: u64, size: Size, decor: Option<Mode>) -> RepResult {
    let t0 = now_ns();
    let setup = single_setup(id, seed, size);
    let setup_ns = now_ns() - t0;
    let SingleSetup {
        mut sys,
        workload,
        mut policy,
        record_ns,
        trace_bytes,
        slice,
    } = setup;
    let mut session = DriverSession::new(single_driver(size));
    let mut checks = Checks::default();
    let (host, taps, queue) = match decor {
        None => {
            let mut wls = vec![workload];
            let host = step_sliced(&mut session, slice, &mut sys, &mut wls, policy.as_dyn());
            let mut offered = 0;
            let mut dequeued = 0;
            for (i, pair) in policy.pairs().iter().enumerate() {
                let flow = pair.queue_flow();
                offered += flow.offered_pages;
                dequeued += flow.dequeued_pages;
                let q = InvariantOracle::check_queue_flow(&flow);
                checks.check(q.is_none(), || format!("pair {i}: {}", q.expect("failed")));
                let r = InvariantOracle::check_retry_flow(&pair.retry_flow());
                checks.check(r.is_none(), || format!("pair {i}: {}", r.expect("failed")));
            }
            (host, Vec::new(), Some((offered, dequeued)))
        }
        Some(mode) => {
            let tap = Tap::new(mode);
            let mut wls: Vec<Box<dyn Workload>> =
                vec![Box::new(TappedWorkload::new(workload, tap.clone()))];
            let mut p = TappedPolicy::new(policy.into_box(), tap.clone());
            let host = step_sliced(&mut session, slice, &mut sys, &mut wls, &mut p);
            (host, vec![tap], None)
        }
    };
    let result = session.finish(&mut sys);
    checks.check(result.accesses == size.accesses, || {
        format!(
            "ran {} accesses, expected {}",
            result.accesses, size.accesses
        )
    });
    checks.system(&sys, "system");

    let mut counts = Counts::default();
    counts.add(&sys.stats);
    let mut fingerprint = FNV_OFFSET;
    fnv(&mut fingerprint, format!("{:?}", sys.stats).as_bytes());
    fnv(&mut fingerprint, &result.makespan.as_nanos().to_le_bytes());
    fnv(
        &mut fingerprint,
        &result.latency.quantile(0.99).as_nanos().to_le_bytes(),
    );
    RepResult {
        setup_ns,
        record_ns,
        trace_bytes,
        sim: SimOutcome {
            accesses: result.accesses,
            makespan: result.makespan,
            latency: result.latency,
            counts,
            fingerprint,
            slot_share_equality: 1.0,
            admission_grants: 0,
            admission_rejects: 0,
            max_starvation: 0,
            barriers: 0,
            queue,
        },
        host,
        checks,
        taps,
    }
}

/// The fleet configuration for a seed: 512 tenants (or the small size) and
/// otherwise `FleetConfig::default()`.
pub fn fleet_config(seed: u64, size: Size, threads: usize) -> FleetConfig {
    FleetConfig {
        tenants: size.tenants,
        threads,
        seed,
        ..FleetConfig::default()
    }
}

/// The sharded-run configuration `run_fleet` uses: admission on with
/// `2 × tenants` slots.
pub fn fleet_sharded_config(cfg: &FleetConfig) -> ShardedConfig {
    let mut scfg = ShardedConfig::new(Nanos::from_millis(cfg.millis));
    scfg.threads = cfg.threads;
    scfg.admission = AdmissionConfig {
        enabled: true,
        total_slots: cfg.slots.unwrap_or(2 * cfg.tenants),
    };
    scfg
}

/// Wraps a shard's workloads and policy in decorators sharing one tap.
fn decorate(shard: &mut TenantShard, tap: &Arc<Tap>) {
    let wls = std::mem::take(&mut shard.workloads);
    shard.workloads = wls
        .into_iter()
        .map(|w| Box::new(TappedWorkload::new(w, tap.clone())) as Box<dyn Workload>)
        .collect();
    let p = std::mem::replace(&mut shard.policy, Box::new(NullPolicy));
    shard.policy = Box::new(TappedPolicy::new(p, tap.clone()));
}

fn fleet_rep(seed: u64, size: Size, decor: Option<Mode>, threads: usize) -> RepResult {
    let cfg = fleet_config(seed, size, threads);
    let t0 = now_ns();
    let mut shards = build_fleet(&cfg);
    let setup_ns = now_ns() - t0;
    let scfg = fleet_sharded_config(&cfg);
    let interval = scfg.barrier_interval.as_nanos();
    let run_for = scfg.run_for.as_nanos();
    let tenants = shards.len();

    let clock = Arc::new(FleetClock::default());
    let mut taps = Vec::new();
    if let Some(mode) = decor {
        for s in shards.iter_mut() {
            let tap = match mode {
                Mode::Timed { .. } => Tap::with_windows(mode, clock.clone()),
                Mode::Delay { .. } => Tap::new(mode),
            };
            decorate(s, &tap);
            taps.push(tap);
        }
    }

    let mut checks = Checks::default();
    let mut barrier_times = Vec::new();
    let mut barrier_accesses = vec![0u64];
    let mut hook_calls = 0usize;
    let mut running = 0u64;
    let start = now_ns();
    let result = ShardedSim::new(scfg, shards).run_with_audit(
        |s| {
            running += s.accesses();
            hook_calls += 1;
            if hook_calls.is_multiple_of(tenants) {
                barrier_accesses.push(running);
                running = 0;
            }
        },
        |audit| {
            barrier_times.push(now_ns());
            clock.index.set(audit.barrier);
            clock
                .horizon
                .set(((audit.barrier + 1) * interval).min(run_for));
            let claims: Vec<RaceClaim> = audit
                .claims
                .iter()
                .map(|c| RaceClaim {
                    weight: c.weight,
                    starvation: c.starvation,
                })
                .collect();
            let canonical = canonical_grants(audit.total_slots, &claims);
            let applied: Vec<u64> = audit
                .active
                .iter()
                .map(|&id| audit.grants[id as usize])
                .collect();
            checks.check(canonical == applied, || {
                format!(
                    "barrier {}: grants differ from canonical_grants",
                    audit.barrier
                )
            });
            let granted: u64 = audit.grants.iter().sum();
            checks.check(granted <= audit.total_slots, || {
                format!(
                    "barrier {}: granted {granted} > pool {}",
                    audit.barrier, audit.total_slots
                )
            });
        },
    );
    let end = now_ns();

    // Per-barrier windows: the wall time between audit hooks over the
    // accesses the tenants made in between.
    let mut host = HostTiming {
        run_ns: end - start,
        windows: Vec::new(),
    };
    barrier_times.push(end);
    for k in 1..barrier_accesses.len() {
        let da = barrier_accesses[k] - barrier_accesses[k - 1];
        let dt = barrier_times[k] - barrier_times[k - 1];
        if da > 0 {
            host.windows.push(dt as f64 / da as f64);
        }
    }

    let mut counts = Counts::default();
    let mut latency = LatencyHistogram::new();
    let mut fingerprint = FNV_OFFSET;
    fnv(&mut fingerprint, &result.combined_digest().to_le_bytes());
    let mut rejects = 0;
    for (s, o) in result.shards.iter().zip(&result.outcomes) {
        checks.system(&s.sys, &format!("tenant {}", s.id));
        counts.add(&s.sys.stats);
        latency.merge(&o.result.latency);
        rejects += s.sys.stats.failed_fast_migrations[BACKPRESSURE_IDX];
        fnv(&mut fingerprint, format!("{:?}", s.sys.stats).as_bytes());
    }
    RepResult {
        setup_ns,
        record_ns: 0,
        trace_bytes: 0,
        sim: SimOutcome {
            accesses: result.total_accesses(),
            makespan: result.makespan(),
            latency,
            counts,
            fingerprint,
            slot_share_equality: 1.0 - result.slot_share_gini(),
            admission_grants: result.outcomes.iter().map(|o| o.granted_slots).sum(),
            admission_rejects: rejects,
            max_starvation: result
                .outcomes
                .iter()
                .map(|o| o.max_starvation as u64)
                .max()
                .unwrap_or(0),
            barriers: result.barriers,
            queue: None,
        },
        host,
        checks,
        taps,
    }
}

/// Folds a decorated rep's taps into one layer profile.
pub fn profile(rep: &RepResult, empty_span_ns: f64) -> Profile {
    let mut spans: Vec<(crate::probe::Span, f64, u64)> = Vec::new();
    let mut reads = 0;
    let mut steps: Vec<Step> = Vec::new();
    for tap in &rep.taps {
        for (i, (s, ns, n)) in tap.spans(empty_span_ns).into_iter().enumerate() {
            match spans.get_mut(i) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += n;
                }
                None => spans.push((s, ns, n)),
            }
        }
        reads += tap.reads();
        steps.extend(tap.steps());
    }
    let wall_ns = rep.host.run_ns as f64;
    let mut p = Profile {
        spans,
        reads,
        total_ns: wall_ns,
        wall_ns,
        ..Profile::default()
    };
    if steps.is_empty() {
        return p;
    }
    // Fleet: per window, the step phase spans the shards' first entry to
    // their last exit; worker busy time is the sum of its shards' steps.
    let windows = steps.iter().map(|s| s.window).max().unwrap_or(0) + 1;
    let mut phase_ns = 0.0;
    let mut busy_ns = 0.0;
    let mut max_sum = 0.0;
    let mut mean_sum = 0.0;
    let mut idle_ns = 0.0;
    for w in 0..windows {
        let ws: Vec<&Step> = steps.iter().filter(|s| s.window == w).collect();
        if ws.is_empty() {
            continue;
        }
        let lo = ws.iter().map(|s| s.start).min().expect("non-empty");
        let hi = ws.iter().map(|s| s.end).max().expect("non-empty");
        let mut per_thread: Vec<(std::thread::ThreadId, f64)> = Vec::new();
        for s in &ws {
            let d = (s.end - s.start) as f64;
            match per_thread.iter_mut().find(|(t, _)| *t == s.thread) {
                Some(e) => e.1 += d,
                None => per_thread.push((s.thread, d)),
            }
        }
        let busy: f64 = per_thread.iter().map(|(_, d)| d).sum();
        let max = per_thread.iter().map(|(_, d)| *d).fold(0.0, f64::max);
        let phase = (hi - lo) as f64;
        phase_ns += phase;
        busy_ns += busy;
        max_sum += max;
        mean_sum += busy / per_thread.len() as f64;
        idle_ns += (phase * per_thread.len() as f64 - busy).max(0.0);
    }
    p.serial_ns = (wall_ns - phase_ns).max(0.0);
    p.total_ns = busy_ns + p.serial_ns;
    p.idle_ns = idle_ns;
    p.imbalance = if mean_sum > 0.0 {
        max_sum / mean_sum
    } else {
        1.0
    };
    p
}
