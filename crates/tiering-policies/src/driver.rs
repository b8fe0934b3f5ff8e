//! The generic simulation driver.
//!
//! Interleaves workload accesses with policy daemon events on the simulated
//! timeline: the runnable process with the smallest virtual time executes
//! next (fair concurrency, each process on its own hardware context, as in
//! the paper's multi-process runs), and daemon events fire whenever
//! simulated time passes their deadline.

use sim_clock::Nanos;
use tiered_mem::{ProcessId, TierId, TieredSystem, Vpn};
use tiering_metrics::{LatencyHistogram, TimeSeries};
use workloads::Workload;

use crate::policy::TieringPolicy;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Stop once simulated time reaches this horizon.
    pub run_for: Nanos,
    /// Stop after this many accesses (safety valve; default unbounded).
    pub max_accesses: u64,
    /// Record per-process fast-tier page fractions at this interval (Fig 9).
    pub sample_interval: Option<Nanos>,
    /// Track the distinct slow-tier pages accessed (PPR denominator, Fig 2a).
    pub track_slow_accesses: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            run_for: Nanos::from_secs(60),
            max_accesses: u64::MAX,
            sample_interval: None,
            track_slow_accesses: false,
        }
    }
}

impl DriverConfig {
    /// A driver that runs for the given number of simulated seconds.
    pub fn for_secs(secs: u64) -> DriverConfig {
        DriverConfig {
            run_for: Nanos::from_secs(secs),
            ..Default::default()
        }
    }
}

/// Results of one simulation run.
#[derive(Debug)]
pub struct RunResult {
    /// Total accesses executed.
    pub accesses: u64,
    /// Simulated makespan (max process virtual time).
    pub makespan: Nanos,
    /// Access latency distribution (all accesses): the exact merge of the
    /// load and store histograms.
    pub latency: LatencyHistogram,
    /// Load latency distribution.
    pub latency_reads: LatencyHistogram,
    /// Store latency distribution.
    pub latency_writes: LatencyHistogram,
    /// Per-process fast-tier page fraction histories (if sampling enabled).
    pub fast_fraction_series: Vec<TimeSeries>,
    /// Distinct slow-tier pages that were accessed (if tracking enabled).
    pub accessed_slow_pages: u64,
    /// Whether every workload ran to completion (vs. hitting the horizon).
    pub workloads_finished: bool,
}

impl RunResult {
    /// Throughput in accesses per simulated second.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.accesses as f64 / secs
        }
    }
}

/// Distinct `(pid, page)` tracking as per-process bitsets: `insert` is two
/// indexes and an OR, replacing an ordered set whose tree descent sat on the
/// per-access path whenever `track_slow_accesses` was enabled. Traversal (if
/// ever added) is row-major and therefore deterministic, same as the ordered
/// set it replaces.
#[derive(Default)]
struct SlowPageSet {
    bits: Vec<Vec<u64>>,
    distinct: u64,
}

impl SlowPageSet {
    fn insert(&mut self, pid: ProcessId, vpn: Vpn) {
        let p = pid.0 as usize;
        if p >= self.bits.len() {
            self.bits.resize_with(p + 1, Vec::new);
        }
        let row = &mut self.bits[p];
        let word = (vpn.0 / 64) as usize;
        if word >= row.len() {
            row.resize(word + 1, 0);
        }
        let mask = 1u64 << (vpn.0 % 64);
        if row[word] & mask == 0 {
            row[word] |= mask;
            self.distinct += 1;
        }
    }
}

/// A paused, resumable simulation over one (system, workloads, policy)
/// triple.
///
/// [`SimulationDriver::run_inspected`] is a thin wrapper over this: it opens
/// a session, steps it straight to the configured horizon, and finishes it.
/// The multi-tenant sharded runner instead steps each tenant's session to
/// the next barrier (`step_until`), applies cross-shard effects between
/// steps, and resumes — and because re-entry restarts at exactly the program
/// point the previous step broke at, a session stepped in any number of
/// increments replays the same operation sequence as one uninterrupted run.
/// That idempotence is what makes single-tenant sharded runs byte-identical
/// to the classic driver, and N-thread runs byte-identical to 1-thread runs.
pub struct DriverSession {
    cfg: DriverConfig,
    latency_reads: LatencyHistogram,
    latency_writes: LatencyHistogram,
    accesses: u64,
    slow_pages: SlowPageSet,
    series: Vec<TimeSeries>,
    next_sample: Nanos,
    started: bool,
    finished: bool,
}

impl DriverSession {
    /// Opens a session. No simulation work happens until `step_until`.
    pub fn new(cfg: DriverConfig) -> DriverSession {
        let next_sample = cfg.sample_interval.unwrap_or(Nanos::MAX);
        DriverSession {
            cfg,
            latency_reads: LatencyHistogram::new(),
            latency_writes: LatencyHistogram::new(),
            accesses: 0,
            slow_pages: SlowPageSet::default(),
            series: Vec::new(),
            next_sample,
            started: false,
            finished: false,
        }
    }

    /// Accesses executed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Whether the run hit a terminal stop condition (horizon, access cap,
    /// or all workloads finished) — further `step_until` calls are no-ops.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Advances the simulation until the next runnable access would start at
    /// or beyond `horizon` (clamped to the configured `run_for`), a stop
    /// condition fires, or every workload completes. An intermediate-horizon
    /// break happens at the very top of the classic loop body — before due
    /// daemon events fire or the clock advances — so calling again with a
    /// later horizon re-fetches the identical `(pid, t)` and replays the
    /// body verbatim; a session stepped in any number of increments is
    /// byte-identical to one uninterrupted run.
    pub fn step_until<F, G>(
        &mut self,
        horizon: Nanos,
        sys: &mut TieredSystem,
        workloads: &mut [Box<dyn Workload>],
        policy: &mut dyn TieringPolicy,
        mut observer: F,
        mut inspect: G,
    ) where
        F: FnMut(ProcessId, tiered_mem::Vpn, bool, TierId),
        G: FnMut(&TieredSystem),
    {
        if self.finished {
            return;
        }
        if !self.started {
            assert_eq!(
                workloads.len(),
                sys.num_processes(),
                "one workload per process"
            );
            policy.init(sys);
            self.series = (0..workloads.len())
                .map(|i| TimeSeries::new(format!("proc{}", i)))
                .collect();
            self.started = true;
        }
        let horizon = horizon.min(self.cfg.run_for);

        // Runs until every workload finishes or a stop condition fires.
        loop {
            let Some((pid, t)) = sys.min_vtime_process_and_time() else {
                self.finished = true;
                return;
            };
            // Intermediate-horizon break, *before* firing due daemon events
            // or advancing the clock: event handlers may charge daemon time
            // to the process vtime, and the classic loop keeps using the
            // pre-charge `t` for the access that follows — so re-entry must
            // re-fetch the same pre-charge value and replay the loop body
            // verbatim. The terminal horizon instead keeps the classic
            // post-event stop below, so end-of-run state (events due at the
            // final access time included) matches an uninterrupted run.
            if t >= horizon && horizon < self.cfg.run_for {
                return;
            }
            // Fire daemon events due before this access.
            while let Some(deadline) = sys.events.next_deadline() {
                if deadline > t {
                    break;
                }
                let fire_at = deadline.max(sys.clock.now());
                sys.clock.advance_to(fire_at);
                // Retire in-flight migrations that became due before the
                // daemon runs, so the policy observes post-completion state.
                sys.complete_due_migrations();
                let (_, token) = sys
                    .events
                    .pop_due(deadline)
                    .expect("deadline was just peeked");
                sys.count_daemon_wakeup();
                policy.on_event(sys, token);
                inspect(sys);
            }
            if t > sys.clock.now() {
                sys.clock.advance_to(t);
                sys.complete_due_migrations();
            }

            if t >= horizon || self.accesses >= self.cfg.max_accesses {
                self.finished = t >= self.cfg.run_for || self.accesses >= self.cfg.max_accesses;
                return;
            }

            // Fig 9 style sampling of per-process placement.
            if sys.clock.now() >= self.next_sample {
                let interval = self.cfg.sample_interval.expect("sampling enabled");
                for (i, s) in self.series.iter_mut().enumerate() {
                    let frac = sys
                        .process(ProcessId(i as u16))
                        .space
                        .fast_tier_fraction()
                        .unwrap_or(0.0);
                    s.push(sys.clock.now(), frac);
                }
                self.next_sample = sys.clock.now() + interval;
            }

            let Some(req) = workloads[pid.0 as usize].next_access() else {
                sys.process_mut(pid).running = false;
                continue;
            };

            if req.think > Nanos::ZERO {
                sys.process_mut(pid).vtime += req.think;
                sys.stats.user_time += req.think;
            }

            let res = sys.access(pid, req.vpn, req.write);
            self.accesses += 1;
            // One record per access; `finish` merges the split into the
            // all-accesses histogram, which is exact.
            if req.write {
                self.latency_writes.record(res.latency);
            } else {
                self.latency_reads.record(res.latency);
            }
            observer(pid, req.vpn, req.write, res.tier);
            // Any non-top tier counts as "slow" for the FMAR-style tally, so
            // the metric generalizes to chains longer than two tiers.
            if self.cfg.track_slow_accesses && res.tier != TierId::FAST {
                self.slow_pages.insert(pid, req.vpn);
            }
            if res.hint_fault {
                policy.on_hint_fault(sys, pid, req.vpn, req.write, &res);
            }
            policy.on_access(sys, pid, req.vpn, req.write);
            inspect(sys);
        }
    }

    /// Closes the session and produces the run result.
    pub fn finish(self, sys: &mut TieredSystem) -> RunResult {
        // Policies without a periodic tune event (Static, the baselines'
        // quiet configurations) would otherwise export zero rows; close the
        // run with a final whole-run sample so every traced run has one.
        if sys.trace.is_enabled() && sys.trace.periods().is_empty() {
            sys.trace_period(Default::default());
        }

        let workloads_finished = sys.pids().all(|p| !sys.process(p).running);
        let mut latency = self.latency_reads.clone();
        latency.merge(&self.latency_writes);
        RunResult {
            accesses: self.accesses,
            makespan: sys.makespan(),
            latency,
            latency_reads: self.latency_reads,
            latency_writes: self.latency_writes,
            fast_fraction_series: self.series,
            accessed_slow_pages: self.slow_pages.distinct,
            workloads_finished,
        }
    }
}

/// Drives one (system, workloads, policy) triple to completion.
pub struct SimulationDriver {
    cfg: DriverConfig,
}

impl SimulationDriver {
    /// Creates a driver with the given configuration.
    pub fn new(cfg: DriverConfig) -> SimulationDriver {
        SimulationDriver { cfg }
    }

    /// Runs the simulation. `workloads[i]` feeds the process with pid `i`;
    /// callers must have created the processes in the same order.
    pub fn run(
        &self,
        sys: &mut TieredSystem,
        workloads: &mut [Box<dyn Workload>],
        policy: &mut dyn TieringPolicy,
    ) -> RunResult {
        self.run_observed(sys, workloads, policy, |_, _, _, _| {})
    }

    /// Like [`SimulationDriver::run`], additionally invoking `observer` for
    /// every access with `(pid, vpn, write, tier served)` — the hook behind
    /// access-weighted classification scoring (Fig 2a) and the Fig 1
    /// per-region frequency profiling.
    pub fn run_observed<F>(
        &self,
        sys: &mut TieredSystem,
        workloads: &mut [Box<dyn Workload>],
        policy: &mut dyn TieringPolicy,
        observer: F,
    ) -> RunResult
    where
        F: FnMut(ProcessId, tiered_mem::Vpn, bool, TierId),
    {
        self.run_inspected(sys, workloads, policy, observer, |_| {})
    }

    /// Like [`SimulationDriver::run_observed`], additionally invoking
    /// `inspect` with a shared view of the system after every fired daemon
    /// event and every completed access — the hook behind the
    /// `tiering-verify` invariant oracle, which re-checks substrate
    /// consistency after each step of a fuzzed run.
    pub fn run_inspected<F, G>(
        &self,
        sys: &mut TieredSystem,
        workloads: &mut [Box<dyn Workload>],
        policy: &mut dyn TieringPolicy,
        observer: F,
        inspect: G,
    ) -> RunResult
    where
        F: FnMut(ProcessId, tiered_mem::Vpn, bool, TierId),
        G: FnMut(&TieredSystem),
    {
        let mut session = DriverSession::new(self.cfg.clone());
        session.step_until(self.cfg.run_for, sys, workloads, policy, observer, inspect);
        session.finish(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullPolicy;
    use crate::tpp::{Tpp, TppConfig};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload};

    fn build(pages: u32, n_procs: usize) -> (TieredSystem, Vec<Box<dyn Workload>>) {
        let mut sys = TieredSystem::new(SystemConfig::quarter_fast(pages * n_procs as u32 * 2));
        let mut wls: Vec<Box<dyn Workload>> = Vec::new();
        for i in 0..n_procs {
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, 0.7, i as u64));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            wls.push(Box::new(w));
        }
        (sys, wls)
    }

    #[test]
    fn run_reaches_horizon() {
        let (mut sys, mut wls) = build(512, 2);
        let mut policy = NullPolicy;
        let driver = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(10),
            ..Default::default()
        });
        let r = driver.run(&mut sys, &mut wls, &mut policy);
        assert!(r.accesses > 1000);
        assert!(r.makespan >= Nanos::from_millis(10));
        assert!(!r.workloads_finished);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn finite_workloads_finish() {
        let mut sys = TieredSystem::new(SystemConfig::quarter_fast(4096));
        let mut cfg = PmbenchConfig::paper_skewed(256, 0.5, 1);
        cfg.total_accesses = 500;
        let w = PmbenchWorkload::new(cfg);
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = NullPolicy;
        let r =
            SimulationDriver::new(DriverConfig::for_secs(100)).run(&mut sys, &mut wls, &mut policy);
        // 256 sequential-init accesses + 500 measured ones.
        assert_eq!(r.accesses, 256 + 500);
        assert!(r.workloads_finished);
    }

    #[test]
    fn max_accesses_caps_the_run() {
        let (mut sys, mut wls) = build(256, 1);
        let mut policy = NullPolicy;
        let driver = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_secs(100),
            max_accesses: 100,
            ..Default::default()
        });
        let r = driver.run(&mut sys, &mut wls, &mut policy);
        assert_eq!(r.accesses, 100);
    }

    #[test]
    fn sampling_produces_series() {
        let (mut sys, mut wls) = build(256, 2);
        let mut policy = NullPolicy;
        let driver = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(50),
            sample_interval: Some(Nanos::from_millis(10)),
            ..Default::default()
        });
        let r = driver.run(&mut sys, &mut wls, &mut policy);
        assert_eq!(r.fast_fraction_series.len(), 2);
        assert!(r.fast_fraction_series[0].len() >= 3);
    }

    #[test]
    fn slow_access_tracking() {
        // Force slow-tier residency: tiny fast tier.
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(32, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(1024, 0.5, 3));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = NullPolicy;
        let driver = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(20),
            track_slow_accesses: true,
            ..Default::default()
        });
        let r = driver.run(&mut sys, &mut wls, &mut policy);
        assert!(r.accessed_slow_pages > 100);
    }

    /// One histogram as the pinning test reads it: count, mean and max in
    /// ns, the quantiles at `PIN_QUANTILES` and the CDF at `PIN_CDF_AT`.
    type Pinned = (u64, u64, u64, [u64; 6], [f64; 12]);
    const PIN_QUANTILES: [f64; 6] = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];
    const PIN_CDF_AT: [u64; 12] = [64, 96, 100, 128, 256, 300, 464, 500, 1024, 1800, 1960, 2048];

    fn pinned(h: &LatencyHistogram) -> Pinned {
        let cdf = h.cdf_at(&PIN_CDF_AT.map(Nanos));
        (
            h.count(),
            h.mean().as_nanos(),
            h.max().as_nanos(),
            PIN_QUANTILES.map(|q| h.quantile(q).as_nanos()),
            cdf.try_into().expect("one value per point"),
        )
    }

    #[test]
    fn returned_histograms_are_pinned() {
        // TPP on a tight fast tier: fast and slow hits, hint faults and
        // promotions spread reads and writes over several latency levels.
        // The constants were recorded from a driver that fed every access
        // into `latency` directly, so they also hold the merge exact.
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(256, 4096));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(2048, 0.7, 11));
        sys.add_process(w.address_space_pages(), PageSize::Base);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Tpp::for_tiers(
            TppConfig {
                scan_period: Nanos::from_millis(10),
                scan_step_pages: 512,
                demote_interval: Nanos::from_millis(5),
            },
            2,
        );
        let r = SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(40),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        assert_eq!(sys.stats.promoted_pages, 1433);

        #[rustfmt::skip]
        let expect: [Pinned; 3] = [
            (95692, 321, 1965, [95, 264, 464, 1760, 1952, 1952], [0.0, 0.21910922543159303, 0.21910922543159303, 0.3110813861137817, 0.3110813861137817, 0.7604083935961209, 0.9519709066588639, 0.9519709066588639, 0.9519709066588639, 0.9920474020816787, 1.0, 1.0]),
            (65751, 251, 1765, [95, 264, 264, 1760, 1760, 1760], [0.0, 0.31888488388009306, 0.31888488388009306, 0.31888488388009306, 0.31888488388009306, 0.972821706133747, 0.972821706133747, 0.972821706133747, 0.972821706133747, 1.0, 1.0, 1.0]),
            (29941, 476, 1965, [105, 464, 464, 1952, 1952, 1952], [0.0, 0.0, 0.0, 0.2939447580241141, 0.2939447580241141, 0.2939447580241141, 0.9061821582445476, 0.9061821582445476, 0.9061821582445476, 0.9745833472495908, 1.0, 1.0]),
        ];
        let got = [&r.latency, &r.latency_reads, &r.latency_writes].map(pinned);
        for ((name, got), expect) in ["latency", "latency_reads", "latency_writes"]
            .into_iter()
            .zip(got)
            .zip(expect)
        {
            assert_eq!(got, expect, "{name}");
        }
    }

    #[test]
    fn deterministic_runs() {
        let result = |seed| {
            let mut sys = TieredSystem::new(SystemConfig::quarter_fast(2048));
            let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(512, 0.7, seed));
            sys.add_process(w.address_space_pages(), PageSize::Base);
            let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
            let mut policy = NullPolicy;
            let r = SimulationDriver::new(DriverConfig {
                run_for: Nanos::from_millis(5),
                ..Default::default()
            })
            .run(&mut sys, &mut wls, &mut policy);
            (r.accesses, r.makespan, sys.stats.fmar().to_bits())
        };
        assert_eq!(result(9), result(9));
        assert_ne!(result(9), result(10));
    }
}
