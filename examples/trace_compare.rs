//! Reproduces the end-to-end throughput comparison with tracing enabled and
//! prints per-period rows for two policies side by side.
//!
//! ```text
//! cargo run --release --example trace_compare -- Chrono Tpp
//! ```

use chrono_repro::harness::runner::{pmbench, run_policy, PolicyKind, Scale};
use chrono_repro::sim_clock::Nanos;
use chrono_repro::tiered_mem::TieredSystem;

fn kind_of(name: &str) -> PolicyKind {
    match name {
        "Static" => PolicyKind::Static,
        "LinuxNb" => PolicyKind::LinuxNb,
        "AutoTiering" => PolicyKind::AutoTiering,
        "MultiClock" => PolicyKind::MultiClock,
        "Tpp" => PolicyKind::Tpp,
        "Memtis" => PolicyKind::Memtis,
        "Chrono" => PolicyKind::Chrono,
        other => panic!("unknown policy {other}"),
    }
}

fn traced_run(kind: PolicyKind) -> (TieredSystem, f64) {
    let scale = Scale {
        run_for: Nanos::from_millis(600),
        ..Scale::default_scale()
    };
    let procs = 6;
    let pages = 2048u32;
    let total = procs as u32 * pages;
    chrono_repro::harness::sink::configure(Some(std::env::temp_dir()), None);
    let workloads = || pmbench(procs, pages, 0.7, 50);
    let run = run_policy(
        kind,
        &scale,
        total + total / 4,
        kind.page_size(),
        None,
        workloads,
    );
    (run.sys, run.result.throughput())
}

fn main() {
    for name in std::env::args().skip(1) {
        let (sys, tp) = traced_run(kind_of(&name));
        println!("== {name}: throughput {tp:.0}");
        println!(
            "   stats: promoted {} demoted {} thrash {} hint_faults {} fmar {:.4} kernel_frac {:.4} ctx {}",
            sys.stats.promoted_pages,
            sys.stats.demoted_pages,
            sys.stats.thrash_events,
            sys.stats.hint_faults,
            sys.stats.fmar(),
            sys.stats.kernel_time_fraction(),
            sys.stats.context_switches,
        );
        println!("{}", sys.trace.periods_csv());
    }
}
