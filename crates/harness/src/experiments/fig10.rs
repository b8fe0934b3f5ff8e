//! Fig 10: CIT validity (a), adaptive tuning traces (b, c), and parameter
//! sensitivity (d).

use std::collections::HashMap;

use chrono_core::{ChronoConfig, ChronoPolicy};
use tiered_mem::{PageSize, Vpn};
use tiering_metrics::Table;

use crate::runner::{pmbench, PolicyKind, Scale, Testbed};

const PAGES: u32 = 8192;

/// Runs a single-process Gaussian pmbench under full Chrono for twice the
/// scale's run length and returns the policy (with CIT samples and tuning
/// histories) plus per-page access counts and the makespan in seconds.
fn chrono_profile(scale: &Scale) -> (ChronoPolicy, HashMap<u32, u64>, f64) {
    let scale = &scale.clone().with_run_multiplier(2);
    let workloads = pmbench(1, PAGES, 0.95, 1010);
    let mut bed = Testbed::new(scale, PAGES + PAGES / 4, PageSize::Base, None, workloads);
    let mut policy = ChronoPolicy::new(PolicyKind::Chrono.chrono_config(scale));
    policy.collect_cit_samples = true;
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let mut tally = |_pid, vpn: Vpn, _w, _tier| *counts.entry(vpn.0).or_insert(0) += 1;
    let r = bed.run("Chrono", &mut policy, Some(&mut tally));
    (policy, counts, r.makespan.as_secs_f64())
}

/// Fig 10a: collected CITs versus the access probability density across the
/// address space — CIT must track the mean access interval (negatively
/// correlated with access probability).
pub fn run_10a(scale: &Scale) -> String {
    let (policy, counts, secs) = chrono_profile(scale);
    const BINS: usize = 10;
    let bin_of = |vpn: u32| -> usize { ((vpn as u64 * BINS as u64) / PAGES as u64) as usize };

    let mut access_mass = [0u64; BINS];
    for (vpn, c) in &counts {
        access_mass[bin_of(*vpn)] += c;
    }
    let total_accesses: u64 = access_mass.iter().sum();

    let mut cit_sum = [0f64; BINS];
    let mut cit_sq = [0f64; BINS];
    let mut cit_n = [0u64; BINS];
    for (_pid, vpn, cit) in policy.cit_samples() {
        let b = bin_of(vpn.0);
        let ms = cit.as_nanos() as f64 / 1e6;
        cit_sum[b] += ms;
        cit_sq[b] += ms * ms;
        cit_n[b] += 1;
    }

    let mut t = Table::new(
        "Fig 10a: access PDF vs captured idle time across the address space",
        &[
            "Position",
            "Access prob",
            "Mean interval (ms)",
            "Mean CIT (ms)",
            "CIT stddev (ms)",
        ],
    );
    for b in 0..BINS {
        let prob = access_mass[b] as f64 / total_accesses.max(1) as f64;
        let pages_in_bin = PAGES as f64 / BINS as f64 / 2.0; // stride-2: evens only
        let per_page_rate = access_mass[b] as f64 / pages_in_bin / secs;
        let interval_ms = if per_page_rate > 0.0 {
            1000.0 / per_page_rate
        } else {
            f64::INFINITY
        };
        let (mean, std) = if cit_n[b] > 0 {
            let m = cit_sum[b] / cit_n[b] as f64;
            let v = (cit_sq[b] / cit_n[b] as f64 - m * m).max(0.0);
            (m, v.sqrt())
        } else {
            (f64::NAN, f64::NAN)
        };
        t.row(&[
            format!("{:.2}", (b as f64 + 0.5) / BINS as f64),
            format!("{:.3}", prob),
            if interval_ms.is_finite() {
                format!("{:.3}", interval_ms)
            } else {
                "inf".into()
            },
            format!("{:.3}", mean),
            format!("{:.3}", std),
        ]);
    }
    t.render()
}

/// Fig 10b: the CIT threshold trace.
pub fn run_10b(scale: &Scale) -> String {
    let (policy, _, _) = chrono_profile(scale);
    let mut t = Table::new(
        "Fig 10b: CIT threshold history",
        &["Time (s)", "Threshold (ms)"],
    );
    for (at, v) in policy.threshold_history() {
        t.row(&[format!("{:.2}", at.as_secs_f64()), format!("{:.3}", v)]);
    }
    t.render()
}

/// Fig 10c: the migration rate-limit trace.
pub fn run_10c(scale: &Scale) -> String {
    let (policy, _, _) = chrono_profile(scale);
    let mut t = Table::new(
        "Fig 10c: migration rate limit history",
        &["Time (s)", "Rate limit (MB/s)"],
    );
    for (at, v) in policy.rate_history() {
        t.row(&[format!("{:.2}", at.as_secs_f64()), format!("{:.1}", v)]);
    }
    t.render()
}

/// The sensitivity multipliers, 2^-3 .. 2^3.
const MULTIPLIERS: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// The parameters Figs 10d and 11b scale.
const PARAMS: [&str; 4] = ["scan-step", "scan-period", "p-victim", "delta-step"];

/// The scale's full Chrono configuration with one parameter scaled by
/// `mult`.
fn scaled_config(scale: &Scale, param: &str, mult: f64) -> ChronoConfig {
    let base = PolicyKind::Chrono.chrono_config(scale);
    match param {
        "scan-step" => ChronoConfig {
            scan_step_pages: ((base.scan_step_pages as f64 * mult) as u32).max(16),
            ..base
        },
        "scan-period" => ChronoConfig {
            scan_period: base.scan_period.scale_f64(mult),
            ..base
        },
        "p-victim" => ChronoConfig {
            p_victim: base.p_victim * mult,
            ..base
        },
        "delta-step" => ChronoConfig {
            delta_step: (base.delta_step * mult).min(1.0),
            ..base
        },
        _ => unreachable!("unknown sensitivity parameter {param}"),
    }
}

/// Renders a sensitivity table: each parameter scaled 2^-3 .. 2^3, every
/// cell relative to the 1x run. `perf(label, policy)` runs one cell and
/// returns its performance.
pub(crate) fn sensitivity_table(
    title: &str,
    scale: &Scale,
    mut perf: impl FnMut(&str, ChronoPolicy) -> f64,
) -> String {
    let mut t = Table::new(
        title,
        &["Parameter", "1/8x", "1/4x", "1/2x", "1x", "2x", "4x", "8x"],
    );
    for param in PARAMS {
        let vals: Vec<f64> = MULTIPLIERS
            .iter()
            .map(|&m| {
                let policy = ChronoPolicy::new(scaled_config(scale, param, m));
                perf(&format!("sens-{param}-{m}"), policy)
            })
            .collect();
        let base = vals[3];
        let mut cells = vec![param.to_string()];
        cells.extend(vals.iter().map(|v| format!("{:.2}", v / base)));
        t.row(&cells);
    }
    t.render()
}

/// Fig 10d: relative throughput of full Chrono on six pmbench processes.
pub fn run_10d(scale: &Scale) -> String {
    let title = "Fig 10d: sensitivity analysis (relative performance)";
    sensitivity_table(title, scale, |label, mut policy| {
        let total = 6u32 * 2048;
        let workloads = pmbench(6, 2048, 0.7, 1100);
        let mut bed = Testbed::new(scale, total + total / 8, PageSize::Base, None, workloads);
        bed.run(label, &mut policy, None).throughput()
    })
}
