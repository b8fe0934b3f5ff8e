//! Static analysis for the tiering workspace: the bug classes PR 1 and
//! PR 2 caught at runtime, caught before the code runs.
//!
//! Three pillars, all dependency-free (no `syn`, no `regex` — this crate
//! must build in the offline CI container):
//!
//! - [`lint`] — **chrono-lint**, a lexical scanner over the workspace
//!   sources enforcing repo-specific rules clippy cannot express:
//!   determinism hygiene (no wall clocks, no hash-order iteration in the
//!   simulator crates), the timestamp-narrowing-cast audit (the
//!   `cit_from_word` wrap-bug class), unit-suffix consistency,
//!   `PageFlags` encapsulation, and the chrono-race concurrency
//!   discipline (`shared-state`, `rng-stream`, `barrier-phase`) over the
//!   sharding modules. Findings are machine-readable
//!   (`file:line [rule] snippet`, or the [`findings_to_json`] document)
//!   and waivable inline (`// lint:allow(<rule>) reason`) or via a
//!   committed baseline.
//! - [`model`] — an **exhaustive small-scope model checker** for the page
//!   lifecycle: the transition relation (scan-unmap, hint-fault, probe,
//!   candidate filter, enqueue, promote, demote, split, swap-out/in,
//!   reclaim, LRU moves) declared as pure functions over
//!   `(PageFlags, queued)` words, the full reachable set enumerated
//!   exactly over the 2^16 state space, and every reachable state checked
//!   against the declared legality predicates. The reachable projection
//!   also backs the runtime ⊆ static *bridge check* wired into the
//!   tiering-verify oracle. The sibling [`tier_health`] model does the
//!   same for the tier failure-domain lifecycle (`Online → Degrading →
//!   Evacuating → Offline → Rejoining`): residency and evacuation
//!   transactions abstracted per tier, the reachable set enumerated
//!   exactly, and `Offline`-with-residency proven unreachable statically
//!   — the twin of the runtime oracle's `tier_offline_residency` check.
//! - [`race`] — **chrono-race**, an exhaustive shard-interleaving model
//!   checker for the barrier protocol: every schedule of small
//!   multi-shard configurations over the MigrationTxn × admission-slot ×
//!   fault-completion state is enumerated (memoized DAG + path-count DP,
//!   so certified schedule counts are exact multinomials), each asserted
//!   to converge to one canonical post-barrier state and to conserve
//!   slot flow. Its independently implemented [`canonical_grants`] also
//!   serves as the N-version admission oracle tiering-verify replays
//!   every live barrier decision through.
//!
//! `harness lint`, `harness model-check`, and `harness race-check` drive
//! all three from CI.

#![warn(missing_docs)]

pub mod lint;
pub mod model;
pub mod race;
pub mod tier_health;

use std::path::{Path, PathBuf};

pub use lint::{
    findings_from_json, findings_to_json, lint_source, lint_workspace, Finding, LintReport,
    RESTRICTED_CRATES, RESTRICTED_FILES, RULES,
};
pub use model::{
    check_model, explore, flag_word_reachable, legality_rules, render_report, transitions,
    LegalityRule, ModelReport, Transition, QUEUED,
};
pub use race::{
    canonical_grants, check_races, race_configs, render_race_report, GrantRule, RaceClaim,
    RaceConfig, RaceOp, RaceReport,
};
pub use tier_health::{
    check_health_model, describe_health_state, health_legality_rules, health_transitions,
    render_health_report,
};

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/tiering-analysis` → two levels up). The lint scanner and the
/// golden/baseline files are all addressed relative to this.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// Path of the committed lint waiver baseline.
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("lint-baseline.txt")
}

/// Path of the committed reachability golden.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/reachable_states.txt")
}

/// Path of the committed chrono-race exploration golden.
pub fn race_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/race_exploration.txt")
}

/// Path of the committed tier failure-domain lifecycle golden.
pub fn tier_health_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/tier_health_states.txt")
}
