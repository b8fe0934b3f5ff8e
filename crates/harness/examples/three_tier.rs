//! Three-tier showcase: cascaded Chrono-DCSC vs TPP-3 on the DRAM+CXL+PMem
//! chain, reporting per-tier residency and per-edge migration counts.
//!
//! ```text
//! cargo run --release -p harness --example three_tier
//! ```
//!
//! The run is deterministic (seeded workload, sim-clock time), so the
//! numbers printed here are reproducible across hosts. The assertions at
//! the bottom make the demo double as a smoke test: every tier must hold
//! pages and both chain edges must have carried migrations for both
//! policies, or the cascade is degenerate.

use harness::runner::{pmbench, run_policy};
use harness::{PolicyKind, Scale, Topology};
use sim_clock::Nanos;
use tiered_mem::{PageSize, TierId};

const TIER_NAMES: [&str; 3] = ["DRAM", "CXL", "PMem"];

fn main() {
    let scale = Scale {
        run_for: Nanos::from_millis(400),
        topology: Topology::ThreeTier,
        ..Scale::default_scale()
    };
    let pages = 4096u32;
    // 1/8 DRAM : 1/4 CXL : 5/8 PMem of a pool sized 1.25× the working set,
    // so the hot set fights for a fast tier much smaller than itself.
    let total_frames = pages + pages / 4;

    for kind in [PolicyKind::Chrono, PolicyKind::Tpp] {
        let workloads = || pmbench(1, pages, 0.7, 42);
        let run = run_policy(kind, &scale, total_frames, PageSize::Base, None, workloads);
        let s = &run.sys.stats;
        println!(
            "{} on three-tier: {} accesses, throughput {:.0}/s, fmar {:.3}",
            kind.name(),
            run.result.accesses,
            run.throughput(),
            s.fmar()
        );
        for t in 0..3u8 {
            println!(
                "  tier {t} {:4}  {:>5} frames resident  {:>9} accesses served",
                TIER_NAMES[t as usize],
                run.sys.used_frames(TierId(t)),
                s.tier_accesses(TierId(t)),
            );
        }
        for e in 0..2usize {
            println!(
                "  edge {}  {:4} <-> {:4}  {:>7} pages promoted  {:>7} pages demoted",
                e,
                TIER_NAMES[e],
                TIER_NAMES[e + 1],
                s.promoted_per_edge[e],
                s.demoted_per_edge[e],
            );
        }
        println!();

        assert!(
            run.result.accesses > 100_000,
            "{}: run too short to mean anything",
            kind.name()
        );
        for t in 0..3u8 {
            assert!(
                run.sys.used_frames(TierId(t)) > 0,
                "{}: tier {t} ({}) holds no pages",
                kind.name(),
                TIER_NAMES[t as usize]
            );
        }
        assert!(
            s.promoted_per_edge[0] > 0 && s.demoted_per_edge[0] > 0,
            "{}: top edge carried no two-way traffic",
            kind.name()
        );
        assert!(
            s.promoted_per_edge[1] + s.demoted_per_edge[1] > 0,
            "{}: deep edge never migrated — the cascade is degenerate",
            kind.name()
        );
    }
    println!("ok: both policies drove every tier and both chain edges");
}
