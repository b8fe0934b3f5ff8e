//! Fig 9: DRAM page percentage history of 50 cgroup-confined pmbench
//! processes with graded access frequency (process *i* stalls *i* delay
//! units before every access).
//!
//! Only a frequency-aware policy separates the processes: under Chrono the
//! hottest cgroups end up nearly all-DRAM while the cold ones release their
//! DRAM share; every baseline converges to roughly the uniform ~25 %.

use sim_clock::Nanos;
use tiered_mem::PageSize;
use tiering_metrics::Table;
use tiering_policies::DriverConfig;
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::runner::{run_policy, PolicyKind, Scale};

/// Number of cgroups (the paper uses 50).
pub const CGROUPS: usize = 50;
const PAGES: u32 = 512;
/// The cgroups whose histories the paper plots.
pub const PLOTTED: [usize; 6] = [0, 9, 19, 29, 39, 49];

/// Runs one policy and returns, per plotted cgroup, the history downsampled
/// to `points` samples (as percentages).
pub fn histories(kind: PolicyKind, scale: &Scale, points: usize) -> Vec<(usize, Vec<f64>)> {
    let total = CGROUPS as u32 * PAGES;
    // Base pages for every policy here, Memtis included: with 512-page
    // cgroup working sets, a 2 MiB unit would be the whole process — the
    // multi-tenant experiment is meaningful only at base granularity.
    let run = run_policy(
        kind,
        scale,
        total + total / 8,
        PageSize::Base,
        Some(DriverConfig {
            run_for: scale.run_for,
            sample_interval: Some(scale.run_for / 32),
            ..Default::default()
        }),
        || {
            (0..CGROUPS)
                .map(|i| {
                    Box::new(PmbenchWorkload::new(PmbenchConfig::fig9_tenant(
                        PAGES,
                        i as u32,
                        900 + i as u64,
                    ))) as Box<dyn Workload>
                })
                .collect()
        },
    );
    PLOTTED
        .iter()
        .map(|&i| {
            let series = &run.result.fast_fraction_series[i];
            let vals: Vec<f64> = series
                .downsample(points)
                .into_iter()
                .map(|(_, v)| v * 100.0)
                .collect();
            (i, vals)
        })
        .collect()
}

/// Spread between the hottest and coldest plotted cgroup's final DRAM share,
/// the quantity that separates Chrono from the baselines.
pub fn final_spread(histories: &[(usize, Vec<f64>)]) -> f64 {
    let last = |i: usize| histories[i].1.last().copied().unwrap_or(0.0);
    last(0) - last(PLOTTED.len() - 1)
}

/// Regenerates Fig 9.
pub fn run(scale: &Scale) -> String {
    // The multi-tenant run needs a longer horizon for the gradient to show.
    let scale = Scale {
        run_for: scale.run_for * 2,
        ..scale.clone()
    };
    let mut out = String::new();
    for kind in PolicyKind::MAIN {
        let h = histories(kind, &scale, 8);
        let mut t = Table::new(
            format!("Fig 9 ({}): DRAM page percentage over time", kind.name()),
            &[
                "Cgroup", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "final",
            ],
        );
        for (i, vals) in &h {
            let mut cells = vec![format!("Cgroup-{}", i)];
            for v in vals.iter().take(8) {
                cells.push(format!("{:.0}%", v));
            }
            while cells.len() < 9 {
                cells.push(String::new());
            }
            cells.push(format!("{:.0}%", vals.last().copied().unwrap_or(0.0)));
            t.row(&cells);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "hot-cold final spread: {:.0} percentage points\n\n",
            final_spread(&h)
        ));
    }
    let _ = Nanos::ZERO;
    out
}
