//! Policy shootout: every tiering policy on the paper's multi-process
//! pmbench workload, printing throughput, FMAR, and overhead side by side —
//! a miniature of the paper's Fig 6 + Fig 8.
//!
//! ```text
//! cargo run --release --example pmbench_shootout [read_pct]
//! ```

use chrono_repro::harness::runner::{pmbench, run_policy, PolicyKind, Scale};
use chrono_repro::sim_clock::Nanos;

fn main() {
    let read_pct: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(70.0);
    let read_ratio = (read_pct / 100.0).clamp(0.0, 1.0);

    let scale = Scale {
        run_for: Nanos::from_millis(1000),
        ..Scale::default_scale()
    };
    let procs = 8usize;
    let pages = 2048u32;
    let total = procs as u32 * pages;

    println!(
        "pmbench shootout: {} processes x {} pages, R/W {:.0}:{:.0}\n",
        procs,
        pages,
        read_pct,
        100.0 - read_pct
    );
    println!(
        "{:<14} {:>12} {:>8} {:>9} {:>10} {:>10}",
        "policy", "accesses/s", "FMAR", "kernel%", "promoted", "demoted"
    );

    let mut baseline = None;
    for kind in [PolicyKind::Static].into_iter().chain(PolicyKind::MAIN) {
        let workloads = || pmbench(procs, pages, read_ratio, 42);
        let run = run_policy(
            kind,
            &scale,
            total + total / 8,
            kind.page_size(),
            None,
            workloads,
        );
        let thpt = run.throughput();
        if kind == PolicyKind::LinuxNb {
            baseline = Some(thpt);
        }
        let norm = baseline
            .map(|b| format!(" ({:.2}x vs NB)", thpt / b))
            .unwrap_or_default();
        println!(
            "{:<14} {:>12.0} {:>7.1}% {:>8.1}% {:>10} {:>10}{}",
            run.policy_name,
            thpt,
            run.sys.stats.fmar() * 100.0,
            run.sys.stats.kernel_time_fraction() * 100.0,
            run.sys.stats.promoted_pages,
            run.sys.stats.demoted_pages,
            norm,
        );
    }
}
