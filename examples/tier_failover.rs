//! Tier failover: a three-tier run that loses and regains its CXL tier.
//!
//! Runs cascaded Chrono on the DRAM+CXL+PMem chain twice: once fault-free,
//! once under `FaultPlan::canonical3` (the harness
//! `--topology three-tier --fault-plan canonical3` combination) — a 25 %
//! mid-tier shrink, a degrade window, then the full failure-domain arc:
//! the CXL tier goes `Offline` at the midpoint with an evacuation
//! deadline, its resident pages drain to the nearest healthy neighbors
//! over the emergency lane (spilling to swap when both are full), the
//! chain splices DRAM directly to PMem, and at three quarters of the run
//! the device returns, rejoins, and is re-admitted.
//!
//! The assertions make the demo double as a regression test for the
//! acceptance bar: the run completes, the failure arc actually fired
//! (health transitions, evacuated pages), the evacuation flow balances,
//! zero pages sit on the tier while it is offline (checked here at the
//! end; the invariant oracle enforces it every scan period under
//! `harness fuzz --tier-chaos`), the rejoined tier is live again, and
//! chaos throughput stays within 25 % of the fault-free run.
//!
//! ```text
//! cargo run --release --example tier_failover
//! ```

use chrono_repro::harness::runner::{pmbench, run_policy};
use chrono_repro::harness::{FaultPlanKind, PolicyKind, Scale, StandardRun, Topology};
use chrono_repro::sim_clock::Nanos;
use chrono_repro::tiered_mem::{PageSize, TierHealth, TierId};

const TIER_NAMES: [&str; 3] = ["DRAM", "CXL", "PMem"];
const PAGES: u32 = 4096;

fn run_once(fault: Option<FaultPlanKind>) -> StandardRun {
    let scale = Scale {
        run_for: Nanos::from_millis(400),
        topology: Topology::ThreeTier,
        fault,
        ..Scale::default_scale()
    };
    run_policy(
        PolicyKind::Chrono,
        &scale,
        PAGES + PAGES / 4,
        PageSize::Base,
        None,
        || pmbench(1, PAGES, 0.7, 42),
    )
}

fn main() {
    let clean = run_once(None);
    let chaos = run_once(Some(FaultPlanKind::Canonical3));

    let s = &chaos.sys.stats;
    println!(
        "fault-free : {:>9} accesses, throughput {:>10.0}/s",
        clean.result.accesses,
        clean.throughput()
    );
    println!(
        "canonical3 : {:>9} accesses, throughput {:>10.0}/s",
        chaos.result.accesses,
        chaos.throughput()
    );
    for t in 0..3u8 {
        println!(
            "  tier {t} {:4}  {:>5} frames resident, health {:?}",
            TIER_NAMES[t as usize],
            chaos.sys.used_frames(TierId(t)),
            chaos.sys.tier_health(TierId(t)),
        );
    }
    println!(
        "evacuation : {} issued = {} rehomed + {} swapped + {} faulted + {} in flight",
        s.evacuated_pages,
        s.evac_rehomed_pages,
        s.evac_swapped_pages,
        s.evac_faulted_pages,
        chaos.sys.in_flight_evac_pages()
    );
    println!(
        "lifecycle  : {} tier health transitions",
        s.tier_health_transitions
    );

    // The failure arc fired: degrade → evacuating → offline → rejoining →
    // online is at least five transitions on the CXL tier alone.
    assert!(
        s.tier_health_transitions >= 5,
        "canonical3 recorded only {} health transitions",
        s.tier_health_transitions
    );
    assert!(
        s.evacuated_pages > 0,
        "the CXL tier went offline without evacuating anything"
    );
    // Evacuation flow conservation (the oracle's evac_flow invariant).
    assert_eq!(
        s.evacuated_pages,
        s.evac_rehomed_pages
            + s.evac_swapped_pages
            + s.evac_faulted_pages
            + chaos.sys.in_flight_evac_pages(),
        "evacuation flow does not balance"
    );
    // The device came back at 3/4 of the run and was re-admitted: by the
    // end the tier is a live chain member again (zero residency while it
    // was offline is oracle-enforced under `harness fuzz --tier-chaos`).
    assert_eq!(
        chaos.sys.tier_health(TierId(1)),
        TierHealth::Online,
        "the CXL tier never rejoined"
    );
    // Completion under chaos: the run finished its full simulated length
    // and kept throughput within 25 % of fault-free.
    let ratio = chaos.throughput() / clean.throughput();
    println!(
        "ratio      : {:.1} % of fault-free throughput",
        ratio * 100.0
    );
    assert!(
        ratio >= 0.75,
        "losing the CXL tier cost {:.1} % throughput (bar: 25 %)",
        (1.0 - ratio) * 100.0
    );
    println!("tier failover arc completed; evacuation flow balanced");
}
