//! End-to-end integration tests: every policy drives the full substrate on
//! real workloads, and the paper's qualitative orderings hold.

use chrono_repro::harness::runner::{pmbench, run_policy, PolicyKind, Scale, Topology};
use chrono_repro::sim_clock::Nanos;
use chrono_repro::tiered_mem::TierId;

fn quick_scale() -> Scale {
    Scale {
        run_for: Nanos::from_millis(600),
        ..Scale::default_scale()
    }
}

fn skewed_run(kind: PolicyKind) -> chrono_repro::harness::StandardRun {
    skewed_run_on(kind, Topology::DramPmem)
}

fn skewed_run_on(kind: PolicyKind, topology: Topology) -> chrono_repro::harness::StandardRun {
    let scale = Scale {
        topology,
        ..quick_scale()
    };
    let procs = 6;
    let pages = 2048u32;
    let total = procs as u32 * pages;
    let workloads = || pmbench(procs, pages, 0.7, 50);
    run_policy(
        kind,
        &scale,
        total + total / 4,
        kind.page_size(),
        None,
        workloads,
    )
}

#[test]
fn every_policy_completes_and_accounts() {
    for kind in PolicyKind::MAIN {
        let run = skewed_run(kind);
        assert!(run.result.accesses > 100_000, "{}", kind.name());
        // Conservation: frames used across tiers equal resident pages.
        let resident: u32 = run
            .sys
            .pids()
            .map(|p| {
                run.sys
                    .process(p)
                    .space
                    .resident_pages()
                    .iter()
                    .sum::<u32>()
            })
            .sum();
        let used = run.sys.used_frames(TierId::FAST) + run.sys.used_frames(TierId::SLOW);
        assert_eq!(resident, used, "{} leaked frames", kind.name());
        // Time accounting is sane.
        assert!(
            run.sys.stats.kernel_time_fraction() < 0.5,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn chrono_beats_every_baseline_on_fmar() {
    let chrono = skewed_run(PolicyKind::Chrono).sys.stats.fmar();
    for kind in [
        PolicyKind::LinuxNb,
        PolicyKind::AutoTiering,
        PolicyKind::MultiClock,
        PolicyKind::Tpp,
    ] {
        let other = skewed_run(kind).sys.stats.fmar();
        assert!(
            chrono > other,
            "Chrono FMAR {:.3} must beat {} ({:.3})",
            chrono,
            kind.name(),
            other
        );
    }
}

#[test]
fn chrono_throughput_tops_the_field() {
    let chrono = skewed_run(PolicyKind::Chrono).throughput();
    let nb = skewed_run(PolicyKind::LinuxNb).throughput();
    let tpp = skewed_run(PolicyKind::Tpp).throughput();
    assert!(
        chrono > 1.5 * nb,
        "Chrono ({:.0}) should beat Linux-NB ({:.0}) by a large margin",
        chrono,
        nb
    );
    assert!(chrono > tpp, "Chrono ({:.0}) vs TPP ({:.0})", chrono, tpp);
}

#[test]
fn multiclock_has_fewest_context_switches() {
    let mc = skewed_run(PolicyKind::MultiClock)
        .sys
        .stats
        .context_switch_rate();
    let nb = skewed_run(PolicyKind::LinuxNb)
        .sys
        .stats
        .context_switch_rate();
    let chrono = skewed_run(PolicyKind::Chrono)
        .sys
        .stats
        .context_switch_rate();
    assert!(
        mc < nb && mc < chrono,
        "mc {} nb {} chrono {}",
        mc,
        nb,
        chrono
    );
}

#[test]
fn autotiering_pays_highest_kernel_share() {
    // Fig 8: LAP maintenance makes Auto-Tiering's kernel-time share the
    // largest of the fault-based policies.
    let at = skewed_run(PolicyKind::AutoTiering)
        .sys
        .stats
        .kernel_time_fraction();
    let nb = skewed_run(PolicyKind::LinuxNb)
        .sys
        .stats
        .kernel_time_fraction();
    assert!(at > nb, "AT {:.4} vs NB {:.4}", at, nb);
}

#[test]
fn cxl_bottom_tier_outruns_pmem() {
    // Same workload, same policy, same frame budget — only the bottom tier's
    // device model changes. CXL memory is faster on both reads and writes
    // than Optane PMem and carries no write asymmetry, so every slow access
    // and every demotion copy is cheaper and the simulated throughput must
    // come out ahead.
    let pmem = skewed_run(PolicyKind::Chrono);
    let cxl = skewed_run_on(PolicyKind::Chrono, Topology::DramCxl);
    assert!(
        cxl.throughput() > pmem.throughput(),
        "DRAM+CXL ({:.0}) should outrun DRAM+PMem ({:.0})",
        cxl.throughput(),
        pmem.throughput()
    );
    // The chains the runs were actually built on carry the device asymmetry
    // in the tier specs: PMem stores pay a large premium over loads, CXL's
    // are near-symmetric — and both derived copy edges charge no extra
    // write-asymmetry stretch (that knob stays at the compat default).
    let slow = |run: &chrono_repro::harness::StandardRun| run.sys.config().slow().clone();
    let (ps, cs) = (slow(&pmem), slow(&cxl));
    assert!(cs.read_latency < ps.read_latency);
    assert!(cs.write_latency < ps.write_latency);
    assert!(
        (cs.write_latency.0 - cs.read_latency.0) < (ps.write_latency.0 - ps.read_latency.0),
        "CXL must be closer to write-symmetric than PMem"
    );
    for run in [&pmem, &cxl] {
        let edge = run.sys.config().chain.edge_between(TierId(0), TierId(1));
        assert_eq!(edge.write_asymmetry, 1.0, "derived edges stay symmetric");
    }
    // Both runs actually exercised the bottom tier and migrated pages, so
    // the comparison is not vacuous.
    for run in [&pmem, &cxl] {
        assert!(run.sys.used_frames(TierId(1)) > 0);
        assert!(run.sys.stats.demoted_pages > 0);
    }
}

#[test]
fn deterministic_across_repeats() {
    let a = skewed_run(PolicyKind::Chrono);
    let b = skewed_run(PolicyKind::Chrono);
    assert_eq!(a.result.accesses, b.result.accesses);
    assert_eq!(a.sys.stats.promoted_pages, b.sys.stats.promoted_pages);
    assert_eq!(a.sys.stats.fmar().to_bits(), b.sys.stats.fmar().to_bits());
}

#[test]
fn static_placement_is_the_floor() {
    let stat = skewed_run(PolicyKind::Static);
    assert_eq!(stat.sys.stats.promoted_pages, 0);
    assert_eq!(stat.sys.stats.hint_faults, 0);
    let chrono = skewed_run(PolicyKind::Chrono);
    assert!(chrono.throughput() > 2.0 * stat.throughput());
}
