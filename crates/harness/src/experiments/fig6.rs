//! Fig 6: pmbench throughput under varying concurrency, working-set size,
//! and read/write ratio, normalized to Linux-NB.
//!
//! The paper's three configurations — (50 procs, 5 GB), (32, 8 GB),
//! (32, 4 GB) on a 64 GB + 192 GB system — are scaled preserving the
//! working-set : memory ratios (~98 %, ~100 %, ~50 % utilization at a 25 %
//! fast share). Memtis runs with huge pages, its recommended setting.

use tiering_metrics::Table;

use super::{normalized_rows, ratio_cell};
use crate::runner::{pmbench, run_policy, PolicyKind, Scale};

/// The scaled configurations: (label, processes, pages/process, total frames).
pub const CONFIGS: [(&str, usize, u32, u32); 3] = [
    ("50 procs x 5GB-equiv", 10, 2400, 30_000),
    ("32 procs x 8GB-equiv", 8, 3200, 32_000),
    ("32 procs x 4GB-equiv", 8, 1600, 26_000),
];

/// The paper's read:write ratios.
pub const RATIOS: [(&str, f64); 4] = [
    ("95:5", 0.95),
    ("70:30", 0.70),
    ("30:70", 0.30),
    ("5:95", 0.05),
];

/// Runs one cell of the figure and returns throughput (accesses/s).
pub fn run_cell(
    kind: PolicyKind,
    scale: &Scale,
    procs: usize,
    pages: u32,
    frames: u32,
    read_ratio: f64,
) -> f64 {
    let workloads = || pmbench(procs, pages, read_ratio, 600);
    run_policy(kind, scale, frames, kind.page_size(), None, workloads).throughput()
}

/// Regenerates Fig 6 (all three subfigures).
pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    for (label, procs, pages, frames) in CONFIGS {
        let mut t = Table::new(
            format!("Fig 6 ({label}): normalized throughput vs Linux-NB"),
            &["Policy", "95:5", "70:30", "30:70", "5:95"],
        );
        let cell = |kind, (_, r): &(&str, f64)| run_cell(kind, scale, procs, pages, frames, *r);
        normalized_rows(&mut t, &PolicyKind::MAIN, &RATIOS, cell, ratio_cell);
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
