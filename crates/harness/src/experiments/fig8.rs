//! Fig 8: run-time characteristics — fast-tier memory access ratio (FMAR),
//! kernel-time share, and context-switch rate — for the 50-process pmbench
//! workload, absolute values plus normalization to Linux-NB.

use tiering_metrics::Table;

use crate::runner::{pmbench, run_policy, PolicyKind, Scale};

const PROCS: usize = 10;
const PAGES: u32 = 2400;
const FRAMES: u32 = 30_000;

/// One policy's Fig 8 metrics: (FMAR %, kernel %, ctx switches/s).
pub fn metrics_for(kind: PolicyKind, scale: &Scale) -> (f64, f64, f64) {
    let workloads = || pmbench(PROCS, PAGES, 0.70, 800);
    let run = run_policy(kind, scale, FRAMES, kind.page_size(), None, workloads);
    (
        run.sys.stats.fmar() * 100.0,
        run.sys.stats.kernel_time_fraction() * 100.0,
        run.sys.stats.context_switch_rate(),
    )
}

/// Regenerates Fig 8.
pub fn run(scale: &Scale) -> String {
    let mut rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for kind in PolicyKind::MAIN {
        let (fmar, kern, ctx) = metrics_for(kind, scale);
        rows.push((kind.name(), fmar, kern, ctx));
    }
    let (bf, bk, bc) = {
        let b = rows[0];
        (b.1, b.2, b.3)
    };
    let mut t = Table::new(
        "Fig 8: run-time characteristics (normalized to Linux-NB in parens)",
        &[
            "Policy",
            "FMAR (%)",
            "Kernel time (%)",
            "Context switch (/s)",
        ],
    );
    for (name, fmar, kern, ctx) in rows {
        t.row(&[
            name.to_string(),
            format!("{:.0} ({:.2})", fmar, fmar / bf),
            format!("{:.1} ({:.2})", kern, kern / bk),
            format!("{:.0} ({:.2})", ctx, ctx / bc),
        ]);
    }
    t.render()
}
