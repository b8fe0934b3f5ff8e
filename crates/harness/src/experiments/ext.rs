//! Extensions beyond the paper's plotted evaluation.
//!
//! - `ext-baselines`: Table 1 lists Telescope and FlexMem but the figures
//!   don't plot them; this experiment runs the full eight-policy field on
//!   the Fig 6(a) workload.
//! - `ext-adapt`: a phase-shifting workload probing the paper's claim that
//!   DCSC "adapts to changing workload patterns" — after the hot region
//!   jumps, how quickly does each policy recover its fast-tier hit rate?
//! - `ext-limits`: cgroup memory limits (Section 3.3.1): Chrono reclaims
//!   slow-tier pages of confined processes to swap while keeping hot pages
//!   in DRAM.

use sim_clock::Nanos;
use tiered_mem::{PageSize, ProcessId, SystemStats, TierId};
use tiering_metrics::Table;
use tiering_policies::{
    flexmem::FlexMemConfig, telescope::TelescopeConfig, FlexMem, Telescope, TieringPolicy,
};
use workloads::PhasedWorkload;

use crate::runner::{pmbench, PolicyKind, Scale, Testbed};

/// Builds the two Table-1-only baselines at the given scale.
fn extended_policy(name: &str, scale: &Scale) -> Box<dyn TieringPolicy> {
    match name {
        "Telescope" => Box::new(Telescope::new(TelescopeConfig {
            // The paper quotes a fixed 200 ms window against 60 s scans;
            // keep the same 1:300 ratio to our scan period.
            window: Nanos(scale.scan_period.as_nanos() / 300).max(Nanos(100_000)),
            frontier_budget: 1024,
            hot_windows: 2,
            demote_interval: scale.scan_period / 4,
        })),
        "FlexMem" => Box::new(FlexMem::new(FlexMemConfig {
            sample_period: scale.memtis_sample_period,
            scan_period: scale.scan_period,
            scan_step_pages: scale.scan_step,
            migrate_interval: scale.scan_period / 10,
            cooling_interval: scale.scan_period * 8,
            // At the hardware-capped sampling rate each page collects well
            // under one sample per cooling period; FlexMem's point is that
            // the *combination* of sparse samples and fault recency
            // suffices, so the counter gate stays low.
            hot_counter: 2,
            demote_interval: scale.scan_period / 4,
            seed: 0xF7,
        })),
        other => unreachable!("unknown extended baseline {other}"),
    }
}

/// Extended baseline comparison: all eight policies, Fig 6(a) workload.
pub fn run_baselines(scale: &Scale) -> String {
    let procs = 8usize;
    let pages = 2048u32;
    let total = procs as u32 * pages;
    let run_one = |label: &str, policy: &mut dyn TieringPolicy, page_size| {
        let workloads = pmbench(procs, pages, 0.70, 1500);
        let mut bed = Testbed::new(scale, total + total / 4, page_size, None, workloads);
        let r = bed.run(label, policy, None);
        (label.to_string(), r.throughput(), bed.sys.stats.fmar())
    };
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for kind in PolicyKind::MAIN {
        let mut p = kind.build(scale);
        rows.push(run_one(kind.name(), &mut *p, kind.page_size()));
    }
    for name in ["Telescope", "FlexMem"] {
        let mut p = extended_policy(name, scale);
        rows.push(run_one(name, &mut *p, PageSize::Base));
    }

    let base = rows[0].1; // Linux-NB
    let mut t = Table::new(
        "Extension: all eight surveyed policies (Fig 6a workload)",
        &["Policy", "Normalized throughput", "FMAR"],
    );
    for (name, thpt, fmar) in rows {
        t.row(&[
            name,
            format!("{:.2}", thpt / base),
            format!("{:.1}%", fmar * 100.0),
        ]);
    }
    t.render()
}

/// The ext-adapt system: one phased pmbench process whose hot region jumps
/// at the midpoint of a `scale.run_for` run.
fn adapt_testbed(scale: &Scale) -> Testbed {
    let pages = 8192u32;
    let frames = pages + pages / 4;
    let w = PhasedWorkload::new(
        pages,
        vec![0.25, 0.75],
        // One phase per half of the run, in accesses: approximate from
        // the default-scale throughput (~6 M accesses per sim-second).
        (scale.run_for.as_secs_f64() * 6.0e6 / 2.0) as u64,
        0.7,
        1600,
    );
    Testbed::new(scale, frames, PageSize::Base, None, vec![Box::new(w)])
}

/// Runs `kind` on the ext-adapt system for twice the scale's run length and
/// returns its FMAR per eighth of the run, from interval snapshots of the
/// counters, and its final stats.
fn adapt_run(kind: PolicyKind, scale: &Scale) -> (Vec<f64>, SystemStats) {
    let scale = &scale.clone().with_run_multiplier(2);
    let mut bed = adapt_testbed(scale);
    let mut prev = bed.sys.stats.clone();
    let mut interval_fmar = Vec::new();
    bed.run_in_steps(kind.name(), &mut *kind.build(scale), 8, |sys| {
        interval_fmar.push(sys.stats.delta_since(&prev).fmar());
        prev = sys.stats.clone();
    });
    (interval_fmar, bed.sys.stats)
}

/// Adaptation experiment: FMAR per eighth of a run whose hot region jumps
/// at the midpoint.
pub fn run_adapt(scale: &Scale) -> String {
    let mut t = Table::new(
        "Extension: adaptation to a phase shift (FMAR per eighth of the run; hot region jumps near the midpoint)",
        &["Policy", "I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "dip", "recovered"],
    );
    for kind in [PolicyKind::Tpp, PolicyKind::Chrono] {
        let (interval_fmar, _) = adapt_run(kind, scale);
        // The dip is the post-shift minimum; recovery is how much of the
        // pre-shift level the final interval regains.
        let pre = interval_fmar[..4].iter().cloned().fold(0.0f64, f64::max);
        let dip = interval_fmar[4..].iter().cloned().fold(1.0f64, f64::min);
        let last = *interval_fmar.last().expect("eight intervals");
        let mut cells = vec![kind.name().to_string()];
        cells.extend(interval_fmar.iter().map(|f| format!("{:.1}%", f * 100.0)));
        cells.push(format!("-{:.1} pts", (pre - dip) * 100.0));
        cells.push(format!("{:+.1} pts", (last - dip) * 100.0));
        t.row(&cells);
    }
    t.render()
}

/// cgroup memory-limit experiment: a confined Chrono process keeps its hot
/// pages fast while the overflow is reclaimed to swap.
pub fn run_limits(scale: &Scale) -> String {
    let pages = 6144u32;
    let workloads = pmbench(1, pages, 0.7, 1700);
    let mut bed = Testbed::new(scale, pages + pages / 4, PageSize::Base, None, workloads);
    // Confine to 70 % of the working set: overflow must go to swap.
    let pid = ProcessId(0);
    let limit = (pages as f64 * 0.7) as u32;
    bed.sys.set_memory_limit(pid, Some(limit));
    let kind = PolicyKind::Chrono;
    let r = bed.run(kind.name(), &mut *kind.build(scale), None);
    let sys = &bed.sys;

    let mut t = Table::new(
        "Extension: cgroup memory limit under Chrono",
        &["Metric", "Value"],
    );
    t.row(&["memory limit (frames)".into(), format!("{}", limit)]);
    t.row(&[
        "resident at end (frames)".into(),
        format!("{}", sys.process(pid).resident_frames),
    ]);
    t.row(&[
        "over-limit at end (frames)".into(),
        format!("{}", sys.over_limit_frames(pid)),
    ]);
    t.row(&[
        "pages swapped out".into(),
        format!("{}", sys.stats.swapped_out_pages),
    ]);
    t.row(&[
        "swap-in major faults".into(),
        format!("{}", sys.stats.swap_in_faults),
    ]);
    t.row(&[
        "fast tier still used (frames)".into(),
        format!("{}", sys.used_frames(TierId::FAST)),
    ]);
    t.row(&["FMAR".into(), format!("{:.1}%", sys.stats.fmar() * 100.0)]);
    t.row(&["accesses completed".into(), format!("{}", r.accesses)]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At a reduced length, the eighth-stepped Chrono run completes its
    /// async promotions and ends counter for counter where one
    /// uninterrupted run of the same length does.
    #[test]
    fn stepped_chrono_run_finishes_its_promotions() {
        let scale = Scale {
            run_for: Nanos::from_millis(200),
            ..Scale::default_scale()
        };
        let (_, stepped) = adapt_run(PolicyKind::Chrono, &scale);
        assert!(stepped.promoted_pages > 0, "no promotion completed");
        let scale = scale.with_run_multiplier(2);
        let mut bed = adapt_testbed(&scale);
        bed.run("Chrono", &mut *PolicyKind::Chrono.build(&scale), None);
        assert_eq!(format!("{stepped:?}"), format!("{:?}", bed.sys.stats));
    }
}
