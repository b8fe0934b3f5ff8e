//! Shared experiment plumbing: the run helper over the policy registry.
//!
//! [`PolicyKind`], [`Scale`], [`Topology`] and [`FaultPlanKind`] live in
//! `tiering_verify::registry` and are re-exported here, so figures, fleets,
//! fuzz cases and goldens all build policies through one factory.

use tiered_mem::{PageSize, TieredSystem};
use tiering_policies::{DriverConfig, RunResult, SimulationDriver};
use workloads::Workload;

pub use tiering_verify::registry::{FaultPlanKind, PolicyKind, Scale, Topology};

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

/// Builds a system sized `total_frames` on the scale's topology. On the
/// default `dram-pmem` chain this is the paper's 25 % fast share.
pub fn quarter_system(scale: &Scale, total_frames: u32) -> TieredSystem {
    TieredSystem::new(scale.topology.system_config(total_frames))
}

/// Runs `make_workloads()` under `kind` at `scale` and returns the outcome.
/// The workload factory receives nothing and must be deterministic; each
/// produced workload becomes one process (created at `page_size`).
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
    let cfg = driver_cfg.unwrap_or(DriverConfig {
        run_for: scale.run_for,
        ..Default::default()
    });
    let mut sys_cfg = scale.topology.system_config(total_frames);
    if let Some(m) = &scale.migration {
        sys_cfg.migration = m.clone();
    }
    if let Some(fault) = &scale.fault {
        let plan = fault.materialize(scale.fault_seed, cfg.run_for);
        if let Err(e) = plan.validate_for(sys_cfg.num_tiers()) {
            panic!(
                "fault plan '{}' does not fit the {} topology: {e}",
                fault.name(),
                scale.topology.name()
            );
        }
        sys_cfg.fault_plan = Some(plan);
    }
    let mut sys = TieredSystem::new(sys_cfg);
    crate::sink::arm(&mut sys);
    let mut wls = make_workloads();
    for w in &wls {
        sys.add_process(w.address_space_pages(), page_size);
    }
    let mut policy = kind.build(scale);
    let result = SimulationDriver::new(cfg).run(&mut sys, &mut wls, &mut *policy);
    crate::sink::finish_run(kind.name(), &sys);
    StandardRun {
        sys,
        result,
        policy_name: kind.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::Nanos;
    use workloads::{PmbenchConfig, PmbenchWorkload};

    #[test]
    fn all_policies_build_and_run() {
        let scale = Scale {
            run_for: Nanos::from_millis(30),
            ..Scale::default_scale()
        };
        for kind in PolicyKind::MAIN {
            let run = run_policy(kind, &scale, 2048, PageSize::Base, None, || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    1024, 0.7, 1,
                )))]
            });
            assert!(run.result.accesses > 0, "{} did nothing", kind.name());
        }
    }

    #[test]
    fn three_tier_topology_runs_chrono_and_tpp() {
        let scale = Scale {
            scan_period: Nanos::from_millis(20),
            scan_step: 512,
            run_for: Nanos::from_millis(200),
            topology: Topology::ThreeTier,
            ..Scale::default_scale()
        };
        for kind in [PolicyKind::Chrono, PolicyKind::Tpp] {
            let run = run_policy(kind, &scale, 4096, PageSize::Base, None, || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    2048, 0.7, 1,
                )))]
            });
            assert!(run.result.accesses > 0, "{} did nothing", kind.name());
            for t in 0..3u8 {
                assert!(
                    run.sys.used_frames(tiered_mem::TierId(t)) > 0,
                    "{}: tier {t} empty",
                    kind.name()
                );
            }
        }
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
            || {
                vec![Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                    1024, 0.7, 1,
                )))]
            },
        );
        assert!(run.result.accesses > 0);
        let s = &run.sys.stats;
        assert!(
            s.transient_copy_faults + s.poisoned_copy_faults > 0,
            "storm plan never fired a copy fault"
        );
    }
}
