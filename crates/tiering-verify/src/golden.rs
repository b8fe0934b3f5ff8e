//! Golden-trace snapshots for canonical seeds.
//!
//! A golden is a text file recording, for one canonical seed, the trace
//! digest and access count of every policy it covers, one table per
//! `GoldenSet` in `GOLDEN_SETS`. `harness
//! verify` recomputes the table and diffs it against the checked-in file; a
//! mismatch means either a real behaviour change (re-bless deliberately with
//! `harness verify --bless`) or a lost determinism guarantee (investigate).
//!
//! Goldens are compared both by the harness binary (`harness verify`, the
//! release-mode CI gate) and by the `committed_goldens_match_recomputation`
//! integration test in `tests/determinism.rs` — the simulation is pure
//! integer and IEEE-754 arithmetic, so debug and release digests agree.

use std::fmt;
use std::path::{Path, PathBuf};

use sim_clock::Nanos;
use tiered_mem::FaultPlan;

use crate::policy_fuzz::{run_policy_case, run_policy_case_with_plan, CHAIN_POLICIES};
use crate::registry::{PolicyKind, Topology};
use crate::sharded::{shard_tier_chaos_events, ShardedCase, SHARD_GOLDEN_TENANTS};

/// The two canonical seeds snapshotted in the repository.
pub const GOLDEN_SEEDS: [u64; 2] = [0xC4A0_0001, 0xC4A0_0002];

/// Simulated run length for golden snapshots (milliseconds of virtual time).
pub const GOLDEN_MILLIS: u64 = 25;

/// Simulated run length for the multi-tenant shard goldens — shorter than
/// [`GOLDEN_MILLIS`] because the thread-invariance suite recomputes each
/// table at three worker-thread counts.
pub const SHARD_GOLDEN_MILLIS: u64 = 10;

/// The canonical seed for the faulty-run snapshot (both the workload shape
/// and the fault plan's RNG derive from it).
pub const FAULT_GOLDEN_SEED: u64 = 0xFA_0001;

/// One family of committed snapshots: `<prefix>_<seed>.txt` per seed, each
/// holding the table `compute` renders for that seed.
struct GoldenSet {
    /// File-name prefix.
    prefix: &'static str,
    /// The seeds snapshotted.
    seeds: &'static [u64],
    /// Recomputes one seed's table.
    compute: fn(u64) -> String,
}

/// Every committed snapshot family, in the order `harness verify` checks
/// them.
const GOLDEN_SETS: [GoldenSet; 5] = [
    GoldenSet {
        prefix: "seed",
        seeds: &GOLDEN_SEEDS,
        compute: classic_table,
    },
    GoldenSet {
        prefix: "fault_seed",
        seeds: &[FAULT_GOLDEN_SEED],
        compute: fault_table,
    },
    GoldenSet {
        prefix: "shard_seed",
        seeds: &GOLDEN_SEEDS,
        compute: shard_table,
    },
    GoldenSet {
        prefix: "threetier_seed",
        seeds: &GOLDEN_SEEDS,
        compute: three_tier_table,
    },
    GoldenSet {
        prefix: "tierchaos_seed",
        seeds: &GOLDEN_SEEDS,
        compute: tier_chaos_table,
    },
];

/// Directory holding the checked-in snapshots.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Path of the snapshot `prefix` takes for `seed`.
pub fn golden_path(prefix: &str, seed: u64) -> PathBuf {
    golden_dir().join(format!("{prefix}_{seed:08x}.txt"))
}

/// One `<policy> <digest-hex> <accesses>` row.
fn row(policy: &str, digest: u64, accesses: u64) -> String {
    format!("{policy:<16} {digest:016x} {accesses}")
}

/// The classic table for a seed: one row per policy in
/// [`PolicyKind::FUZZED`] order.
fn classic_table(seed: u64) -> String {
    let mut out =
        format!("# tiering-verify golden: seed {seed:#010x}, {GOLDEN_MILLIS} ms per policy\n");
    for p in PolicyKind::FUZZED {
        let r = run_policy_case(p, seed, GOLDEN_MILLIS);
        out.push_str(&row(&r.policy, r.digest, r.accesses));
        out.push('\n');
    }
    out
}

/// The faulty-run table: every Chrono tuning mode under the canonical
/// fault plan. Same seed ⇒ byte-identical table — faulty runs are exactly
/// as replayable as clean ones.
fn fault_table(seed: u64) -> String {
    let plan = FaultPlan::canonical(seed, Nanos::from_millis(GOLDEN_MILLIS));
    let mut out = format!(
        "# tiering-verify faulty golden: seed {seed:#010x}, canonical fault plan, \
         {GOLDEN_MILLIS} ms per tuning mode\n"
    );
    for p in PolicyKind::FUZZED.into_iter().filter(|p| p.is_chrono()) {
        let r = run_policy_case_with_plan(
            p,
            Topology::DramPmem,
            seed,
            GOLDEN_MILLIS,
            Some(plan.clone()),
        );
        out.push_str(&row(&r.policy, r.digest, r.accesses));
        out.push('\n');
    }
    out
}

/// The multi-tenant shard table: every policy run over
/// [`SHARD_GOLDEN_TENANTS`] weighted shards with the admission hook on,
/// single-threaded (the thread-invariance suite proves 2- and 8-thread runs
/// reproduce the same table). Rows append the per-tenant digests.
fn shard_table(seed: u64) -> String {
    let mut out = format!(
        "# tiering-verify shard golden: seed {seed:#010x}, {SHARD_GOLDEN_TENANTS} tenants, \
         admission on, {SHARD_GOLDEN_MILLIS} ms per policy\n"
    );
    for p in PolicyKind::FUZZED {
        let r = ShardedCase::new(p, seed, SHARD_GOLDEN_MILLIS, SHARD_GOLDEN_TENANTS).run();
        assert!(
            r.clean(),
            "shard golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        out.push_str(&row(p.id(), r.combined_digest, r.accesses));
        for d in &r.tenant_digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}

/// The three-tier table: cascaded Chrono-DCSC and TPP-3 on the
/// DRAM+CXL+PMem chain. Runs are invariant-checked while they execute, so a
/// golden that drifts because the oracle now rejects the run fails loudly
/// here instead of silently re-blessing.
fn three_tier_table(seed: u64) -> String {
    let mut out = format!(
        "# tiering-verify three-tier golden: seed {seed:#010x}, DRAM+CXL+PMem, \
         {GOLDEN_MILLIS} ms per policy\n"
    );
    for p in CHAIN_POLICIES {
        let r = run_policy_case_with_plan(p, Topology::ThreeTier, seed, GOLDEN_MILLIS, None);
        assert!(
            r.clean(),
            "three-tier golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        out.push_str(&row(&r.policy, r.digest, r.accesses));
        out.push('\n');
    }
    out
}

/// The tier-chaos shard table: the multi-tenant case with every tenant's
/// slow tier going offline mid-run (live evacuation window) and rejoining,
/// single-threaded, for the three Chrono tuning modes plus a representative
/// baseline. The arc must actually fire (health transitions recorded) — a
/// chaos golden whose tiers never fail pins nothing.
fn tier_chaos_table(seed: u64) -> String {
    let mut out = format!(
        "# tiering-verify tier-chaos shard golden: seed {seed:#010x}, \
         {SHARD_GOLDEN_TENANTS} tenants, slow tier offline/rejoin mid-run, \
         {SHARD_GOLDEN_MILLIS} ms per policy\n"
    );
    for p in [
        PolicyKind::Tpp,
        PolicyKind::Chrono,
        PolicyKind::ChronoTwice,
        PolicyKind::ChronoFixed,
    ] {
        let r = ShardedCase {
            tier_events: shard_tier_chaos_events(SHARD_GOLDEN_MILLIS),
            ..ShardedCase::new(p, seed, SHARD_GOLDEN_MILLIS, SHARD_GOLDEN_TENANTS)
        }
        .run();
        assert!(
            r.clean(),
            "tier-chaos golden case {p:?}/{seed:#x} broke invariants: {:?}",
            r.violations
        );
        assert!(
            r.total(|s| s.stats.tier_health_transitions) > 0,
            "tier-chaos golden case {p:?}/{seed:#x} never failed a tier"
        );
        out.push_str(&row(p.id(), r.combined_digest, r.accesses));
        for d in &r.tenant_digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}

/// Outcome of checking one seed's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Recorded and recomputed tables are identical.
    Match,
    /// No snapshot file exists yet (run `harness verify --bless`).
    Missing,
    /// Recorded and recomputed tables differ.
    Mismatch {
        /// Contents of the checked-in file.
        expected: String,
        /// Freshly recomputed table.
        actual: String,
    },
}

/// Result of checking one canonical seed.
#[derive(Debug, Clone)]
pub struct GoldenResult {
    /// The canonical seed.
    pub seed: u64,
    /// Snapshot file location.
    pub path: PathBuf,
    /// Comparison outcome.
    pub status: GoldenStatus,
}

impl GoldenResult {
    /// Whether this snapshot passed.
    pub fn ok(&self) -> bool {
        self.status == GoldenStatus::Match
    }
}

impl fmt::Display for GoldenResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.status {
            GoldenStatus::Match => {
                let name = self.path.file_name().unwrap_or_default().to_string_lossy();
                write!(f, "golden {name} (seed {:#010x}): ok", self.seed)
            }
            GoldenStatus::Missing => write!(
                f,
                "golden seed {:#010x}: missing snapshot {} (run `harness verify --bless`)",
                self.seed,
                self.path.display()
            ),
            GoldenStatus::Mismatch { expected, actual } => {
                writeln!(
                    f,
                    "golden seed {:#010x}: MISMATCH against {}",
                    self.seed,
                    self.path.display()
                )?;
                for (e, a) in expected.lines().zip(actual.lines()) {
                    if e != a {
                        writeln!(f, "  - {e}")?;
                        writeln!(f, "  + {a}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

fn diff_status(path: &Path, actual: String) -> GoldenStatus {
    match std::fs::read_to_string(path) {
        Err(_) => GoldenStatus::Missing,
        Ok(expected) if expected == actual => GoldenStatus::Match,
        Ok(expected) => GoldenStatus::Mismatch { expected, actual },
    }
}

/// Checks every committed snapshot against a fresh recomputation.
pub fn check_goldens() -> Vec<GoldenResult> {
    let mut results = Vec::new();
    for set in &GOLDEN_SETS {
        for &seed in set.seeds {
            let path = golden_path(set.prefix, seed);
            let status = diff_status(&path, (set.compute)(seed));
            results.push(GoldenResult { seed, path, status });
        }
    }
    results
}

/// Recomputes and writes every committed snapshot; returns the paths
/// written.
pub fn bless_goldens() -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(golden_dir())?;
    let mut written = Vec::new();
    for set in &GOLDEN_SETS {
        for &seed in set.seeds {
            let path = golden_path(set.prefix, seed);
            std::fs::write(&path, (set.compute)(seed))?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_table_is_deterministic() {
        // One policy per call keeps this fast enough for the debug-mode
        // suite; full-table comparisons run in the release-mode harness.
        let a = run_policy_case(PolicyKind::FUZZED[0], GOLDEN_SEEDS[0], 5);
        let b = run_policy_case(PolicyKind::FUZZED[0], GOLDEN_SEEDS[0], 5);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.accesses, b.accesses);
    }

    #[test]
    fn golden_paths_are_stable() {
        let paths: Vec<PathBuf> = GOLDEN_SETS
            .iter()
            .flat_map(|set| set.seeds.iter().map(|&seed| golden_path(set.prefix, seed)))
            .collect();
        let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(
            names,
            [
                "seed_c4a00001.txt",
                "seed_c4a00002.txt",
                "fault_seed_00fa0001.txt",
                "shard_seed_c4a00001.txt",
                "shard_seed_c4a00002.txt",
                "threetier_seed_c4a00001.txt",
                "threetier_seed_c4a00002.txt",
                "tierchaos_seed_c4a00001.txt",
                "tierchaos_seed_c4a00002.txt",
            ]
        );
        assert!(paths.iter().all(|p| p.parent() == Some(&golden_dir())));
    }

    #[test]
    #[ignore = "writes goldens; run explicitly to (re)bless only the tier-chaos snapshots"]
    fn bless_tier_chaos_goldens_only() {
        // Narrow bless: regenerates the tier-chaos shard snapshots without
        // touching any pre-existing golden file.
        let set = GOLDEN_SETS.iter().find(|s| s.prefix == "tierchaos_seed");
        let set = set.expect("tier-chaos snapshot family");
        for &seed in set.seeds {
            std::fs::write(golden_path(set.prefix, seed), (set.compute)(seed)).unwrap();
        }
    }

    #[test]
    fn fault_golden_is_deterministic() {
        // One tuning mode, short run: byte-identical across recomputations.
        let plan = FaultPlan::canonical(FAULT_GOLDEN_SEED, Nanos::from_millis(5));
        let one = || {
            run_policy_case_with_plan(
                PolicyKind::Chrono,
                Topology::DramPmem,
                FAULT_GOLDEN_SEED,
                5,
                Some(plan.clone()),
            )
        };
        let (a, b) = (one(), one());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.accesses, b.accesses);
    }
}
