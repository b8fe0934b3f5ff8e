//! Property-style tests of the substrate's invariants under random
//! operation sequences spanning crates.
//!
//! The registry is unreachable in the offline build environment, so instead
//! of `proptest` these run deterministic randomized cases driven by the
//! repo's own `DetRng`, through the `tiering-verify` fuzz layer: 256 seeded
//! cases per property, the full `InvariantOracle` checked after every op,
//! and any failure shrunk (ddmin) to a minimal replayable schedule printed
//! with its seed.

use chrono_repro::sim_clock::DetRng;
use chrono_repro::tiered_mem::PageSize;
use chrono_repro::tiering_verify::ops::fuzz_ops;
use chrono_repro::tiering_verify::profile::CLEAN_MIX;
use chrono_repro::tiering_verify::{CaseConfig, CLEAN};

const CASES: u64 = 256;

/// Ops per schedule. Scaled-down from the release-mode `harness fuzz`
/// defaults so the debug-mode suite stays fast; the harness runs the long
/// schedules in CI.
const OPS: usize = 500;

#[test]
fn random_op_sequences_preserve_invariants() {
    for seed in 0..CASES {
        if let Some(failure) = CLEAN.run(0x5EED_0000 + seed, OPS as u64).failure {
            panic!("substrate invariant violated:\n{failure}");
        }
    }
}

#[test]
fn huge_mappings_preserve_block_integrity() {
    // Force 2 MiB-granularity cases: the oracle's huge_block_integrity and
    // frame-conservation checks run after every op of every schedule.
    for seed in 0..CASES {
        let blocks = 1 + seed % 3;
        let pages = (blocks as u32) * chrono_repro::tiered_mem::HUGE_2M_PAGES;
        let cfg = CaseConfig {
            fast_frames: chrono_repro::tiered_mem::HUGE_2M_PAGES * 2,
            mid_frames: None,
            slow_frames: pages + chrono_repro::tiered_mem::HUGE_2M_PAGES,
            procs: vec![(pages, PageSize::Huge2M)],
            // One 512-frame reservation at most, so demand paging always
            // finds a tier with a whole block free.
            migration: chrono_repro::tiered_mem::MigrationSpec {
                inflight_slots: 1,
                backlog_cap: chrono_repro::sim_clock::Nanos::from_millis(10),
            },
            fault_plan: None,
        };
        let ops = CLEAN_MIX.generate(&cfg, 0x8006_0000 + seed, OPS);
        if let Some(shrunk) = fuzz_ops(0x8006_0000 + seed, &cfg, ops) {
            panic!("huge-block invariant violated:\n{shrunk}");
        }
    }
}

#[test]
fn heatmap_mass_is_conserved_under_decay_and_scale() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed(0x4EA7_0000 + seed);
        let mut m = chrono_repro::chrono_core::HeatMap::new(28);
        let mut total = 0.0;
        let n_adds = rng.below(49) + 1;
        for _ in 0..n_adds {
            let bucket = rng.below(28) as usize;
            let pages = 1.0 + rng.unit_f64() * 99.0;
            m.add(bucket, pages);
            total += pages;
        }
        let decay = 0.1 + rng.unit_f64() * 0.9;
        assert!((m.total() - total).abs() < 1e-6, "seed {seed}");
        m.decay(decay);
        assert!((m.total() - total * decay).abs() < 1e-6, "seed {seed}");
        let scaled = m.scaled_to(1000.0);
        assert!((scaled.total() - 1000.0).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn overlap_misplacement_never_exceeds_slow_population() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed(0x0E11_0000 + seed);
        let mut fast = chrono_repro::chrono_core::HeatMap::new(16);
        let mut slow = chrono_repro::chrono_core::HeatMap::new(16);
        for _ in 0..rng.below(20) {
            fast.add(rng.below(16) as usize, rng.unit_f64() * 500.0);
        }
        for _ in 0..rng.below(20) {
            slow.add(rng.below(16) as usize, rng.unit_f64() * 500.0);
        }
        let capacity = 1.0 + rng.unit_f64() * 4999.0;
        let o = chrono_repro::chrono_core::heatmap::identify_overlap(&fast, &slow, capacity);
        assert!(o.misplaced_slow_pages >= -1e-9, "seed {seed}");
        assert!(
            o.misplaced_slow_pages <= slow.total() + 1e-6,
            "seed {seed}: misplaced {} > slow total {}",
            o.misplaced_slow_pages,
            slow.total()
        );
        assert!(o.cutoff_bucket <= 16, "seed {seed}");
    }
}
