//! Fig 13: design-choice analysis — the Chrono ablation ladder
//! (basic → twice → thrice → full → manual) against Linux-NB.

use tiered_mem::PageSize;
use tiering_metrics::Table;

use crate::runner::{pmbench, run_policy, PolicyKind, Scale};

const PROCS: usize = 6;
const PAGES: u32 = 2048;

/// Throughput of one (variant, read ratio) cell.
pub fn run_cell(kind: PolicyKind, scale: &Scale, read_ratio: f64) -> f64 {
    let total = PROCS as u32 * PAGES;
    let workloads = || pmbench(PROCS, PAGES, read_ratio, 1400);
    run_policy(
        kind,
        scale,
        total + total / 8,
        PageSize::Base,
        None,
        workloads,
    )
    .throughput()
}

/// Regenerates Fig 13.
pub fn run(scale: &Scale) -> String {
    let ratios = [
        ("95:5", 0.95),
        ("70:30", 0.70),
        ("30:70", 0.30),
        ("5:95", 0.05),
    ];
    let mut t = Table::new(
        "Fig 13: design choice analysis (normalized throughput vs Linux-NB)",
        &["Variant", "95:5", "70:30", "30:70", "5:95"],
    );
    let mut grid: Vec<Vec<f64>> = Vec::new();
    for kind in PolicyKind::ABLATION {
        grid.push(
            ratios
                .iter()
                .map(|(_, r)| run_cell(kind, scale, *r))
                .collect(),
        );
    }
    let base = grid[0].clone(); // Linux-NB
    for (kind, row) in PolicyKind::ABLATION.iter().zip(&grid) {
        let cells: Vec<String> = std::iter::once(kind.name().to_string())
            .chain(row.iter().zip(&base).map(|(v, b)| format!("{:.2}", v / b)))
            .collect();
        t.row(&cells);
    }
    t.render()
}
