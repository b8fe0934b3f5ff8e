//! Shared experiment plumbing: the one place an experiment system is built
//! and driven.
//!
//! [`PolicyKind`], [`Scale`], [`Topology`] and [`FaultPlanKind`] live in
//! `tiering_verify::registry` and are re-exported here, so figures, fleets,
//! fuzz cases and goldens all build policies through one factory. Every
//! figure runs on a [`Testbed`], so the CLI knobs a [`Scale`] carries
//! (`--topology`, `--inflight-slots`, `--migration-backlog-cap`,
//! `--fault-plan`, `--fault-seed`) and the `--json`/`--trace` sink reach
//! every experiment run.

use sim_clock::Nanos;
use tiered_mem::{PageSize, ProcessId, TierId, TieredSystem, Vpn};
use tiering_policies::{DriverConfig, DriverSession, RunResult, SimulationDriver, TieringPolicy};
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

pub use tiering_verify::registry::{FaultPlanKind, PolicyKind, Scale, Topology};

/// One experiment system, built from a [`Scale`] with one process per
/// workload, and the driver configuration it runs under.
pub struct Testbed {
    /// The system under test; read placement and stats here after the run.
    pub sys: TieredSystem,
    workloads: Vec<Box<dyn Workload>>,
    driver: DriverConfig,
}

impl Testbed {
    /// Builds a system of `total_frames` on the scale's topology (on the
    /// default `dram-pmem` chain, the paper's 25 % fast share) with the
    /// scale's migration-engine bounds and fault plan, the plan
    /// materialized at the run length and checked against the chain.
    /// Tracing is armed while the sink is active. Each workload becomes one
    /// process created at `page_size`. `driver` defaults to a run of
    /// `scale.run_for`.
    pub fn new(
        scale: &Scale,
        total_frames: u32,
        page_size: PageSize,
        driver: Option<DriverConfig>,
        workloads: Vec<Box<dyn Workload>>,
    ) -> Testbed {
        let driver = driver.unwrap_or(DriverConfig {
            run_for: scale.run_for,
            ..Default::default()
        });
        let mut cfg = scale.topology.system_config(total_frames);
        if let Some(m) = &scale.migration {
            cfg.migration = m.clone();
        }
        if let Some(fault) = &scale.fault {
            let plan = fault.materialize(scale.fault_seed, driver.run_for);
            if let Err(e) = plan.validate_for(cfg.num_tiers()) {
                panic!(
                    "fault plan '{}' does not fit the {} topology: {e}",
                    fault.name(),
                    scale.topology.name()
                );
            }
            cfg.fault_plan = Some(plan);
        }
        let mut sys = TieredSystem::new(cfg);
        crate::sink::arm(&mut sys);
        for w in &workloads {
            sys.add_process(w.address_space_pages(), page_size);
        }
        Testbed {
            sys,
            workloads,
            driver,
        }
    }

    /// Drives the system under `policy` to the run's horizon, handing every
    /// access to `observer` as `(pid, vpn, write, tier that served it)`
    /// when one is given, and closes the run: the sink writes its trace
    /// under `label`.
    pub fn run(
        &mut self,
        label: &str,
        policy: &mut dyn TieringPolicy,
        observer: Option<&mut dyn FnMut(ProcessId, Vpn, bool, TierId)>,
    ) -> RunResult {
        let driver = SimulationDriver::new(self.driver.clone());
        let result = match observer {
            Some(f) => driver.run_observed(&mut self.sys, &mut self.workloads, policy, f),
            None => driver.run(&mut self.sys, &mut self.workloads, policy),
        };
        crate::sink::finish_run(label, &self.sys);
        result
    }

    /// [`Self::run`] paused at each of `steps` equal fractions of the
    /// horizon to hand the system to `at_step`. The pauses are
    /// [`DriverSession`] steps, so the run replays exactly the accesses and
    /// events of an uninterrupted one.
    pub fn run_in_steps(
        &mut self,
        label: &str,
        policy: &mut dyn TieringPolicy,
        steps: u64,
        mut at_step: impl FnMut(&TieredSystem),
    ) -> RunResult {
        let run_for = self.driver.run_for.as_nanos();
        let mut session = DriverSession::new(self.driver.clone());
        for k in 1..=steps {
            let horizon = Nanos(run_for * k / steps);
            let (sys, wls) = (&mut self.sys, &mut self.workloads);
            session.step_until(horizon, sys, wls, policy, |_, _, _, _| {}, |_| {});
            at_step(&self.sys);
        }
        let result = session.finish(&mut self.sys);
        crate::sink::finish_run(label, &self.sys);
        result
    }
}

/// `procs` Gaussian pmbench processes of `pages` pages at `read_ratio`,
/// process `i` seeded `seed + i` ([`PmbenchConfig::paper_skewed`]).
pub fn pmbench(procs: usize, pages: u32, read_ratio: f64, seed: u64) -> Vec<Box<dyn Workload>> {
    (seed..seed + procs as u64)
        .map(|s| {
            let cfg = PmbenchConfig::paper_skewed(pages, read_ratio, s);
            Box::new(PmbenchWorkload::new(cfg)) as Box<dyn Workload>
        })
        .collect()
}

/// A standard experiment run: one system, N processes, one policy.
pub struct StandardRun {
    /// The system after the run (placement, stats, watermarks).
    pub sys: TieredSystem,
    /// The driver-side results (throughput, latency, series).
    pub result: RunResult,
    /// Name of the policy that ran.
    pub policy_name: &'static str,
}

impl StandardRun {
    /// Throughput in accesses per simulated second.
    pub fn throughput(&self) -> f64 {
        self.result.throughput()
    }
}

/// Runs `make_workloads()` under `kind` at `scale` on a [`Testbed`] of
/// `total_frames` and returns the outcome. The workload factory must be
/// deterministic; each produced workload becomes one process (created at
/// `page_size`).
pub fn run_policy<F>(
    kind: PolicyKind,
    scale: &Scale,
    total_frames: u32,
    page_size: PageSize,
    driver_cfg: Option<DriverConfig>,
    make_workloads: F,
) -> StandardRun
where
    F: FnOnce() -> Vec<Box<dyn Workload>>,
{
    let mut bed = Testbed::new(scale, total_frames, page_size, driver_cfg, make_workloads());
    let result = bed.run(kind.name(), &mut *kind.build(scale), None);
    StandardRun {
        sys: bed.sys,
        result,
        policy_name: kind.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_build_and_run() {
        let scale = Scale {
            run_for: Nanos::from_millis(30),
            ..Scale::default_scale()
        };
        for kind in PolicyKind::MAIN {
            let run = run_policy(kind, &scale, 2048, PageSize::Base, None, || {
                pmbench(1, 1024, 0.7, 1)
            });
            assert!(run.result.accesses > 0, "{} did nothing", kind.name());
        }
    }

    #[test]
    fn three_tier_topology_runs_every_fuzzed_kind() {
        let scale = Scale {
            scan_period: Nanos::from_millis(20),
            scan_step: 512,
            run_for: Nanos::from_millis(200),
            topology: Topology::ThreeTier,
            ..Scale::default_scale()
        };
        for kind in PolicyKind::FUZZED {
            let run = run_policy(kind, &scale, 4096, PageSize::Base, None, || {
                pmbench(1, 2048, 0.7, 1)
            });
            let name = kind.name();
            assert!(run.result.accesses > 0, "{name} did nothing");
            for t in 0..3u8 {
                let used = run.sys.used_frames(tiered_mem::TierId(t));
                assert!(used > 0, "{name}: tier {t} empty");
            }
            // Only Chrono's cascade and the hop-wise TPP / Multi-Clock
            // cross the CXL → PMem edge; the other five baselines promote
            // only out of tier 1 and demote only tier 0 → tier 1.
            let s = &run.sys.stats;
            let hop_wise =
                kind.is_chrono() || matches!(kind, PolicyKind::Tpp | PolicyKind::MultiClock);
            let edges = if hop_wise { 0..2 } else { 0..1 };
            for e in edges {
                assert!(
                    s.promoted_per_edge[e] > 0,
                    "{name}: nothing promoted on edge {e}"
                );
                assert!(
                    s.demoted_per_edge[e] > 0,
                    "{name}: nothing demoted on edge {e}"
                );
            }
            if !hop_wise {
                assert_eq!(
                    (s.promoted_per_edge[1], s.demoted_per_edge[1]),
                    (0, 0),
                    "{name} crossed the lower edge"
                );
            }
        }
    }

    #[test]
    fn testbed_carries_the_scale_knobs() {
        let scale = Scale {
            fault: Some(FaultPlanKind::Storm),
            migration: Some(tiered_mem::MigrationSpec {
                inflight_slots: 1,
                ..Default::default()
            }),
            topology: Topology::ThreeTier,
            ..Scale::default_scale()
        };
        let bed = Testbed::new(&scale, 4096, PageSize::Base, None, pmbench(1, 1024, 0.7, 1));
        let cfg = bed.sys.config();
        let plan = FaultPlanKind::Storm.materialize(scale.fault_seed, scale.run_for);
        assert_eq!(cfg.fault_plan, Some(plan));
        assert_eq!(cfg.migration.inflight_slots, 1);
        assert_eq!(cfg.num_tiers(), 3);
        assert_eq!(bed.sys.num_processes(), 1);
    }

    #[test]
    fn fault_plan_knob_attaches_to_runs() {
        // Compress the scan period so the short run spans many scan rounds —
        // the storm plan can only fire on migrations the policy issues.
        let scale = Scale {
            scan_period: Nanos::from_millis(5),
            run_for: Nanos::from_millis(40),
            fault: Some(FaultPlanKind::Storm),
            ..Scale::default_scale()
        };
        let run = run_policy(
            PolicyKind::Chrono,
            &scale,
            2048,
            PageSize::Base,
            None,
            || pmbench(1, 1024, 0.7, 1),
        );
        assert!(run.result.accesses > 0);
        let s = &run.sys.stats;
        assert!(
            s.transient_copy_faults + s.poisoned_copy_faults > 0,
            "storm plan never fired a copy fault"
        );
    }
}
