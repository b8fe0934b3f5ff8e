//! Fig 11: Graph500 — execution time under varying working-set size and
//! page granularity (a), and parameter sensitivity on the graph workload (b).

use sim_clock::Nanos;
use tiered_mem::PageSize;
use tiering_metrics::Table;
use tiering_policies::{DriverConfig, TieringPolicy};
use workloads::{Graph500Config, Graph500Workload, GraphKernel, Workload};

use crate::runner::{PolicyKind, Scale, Testbed};

/// (label, CSR pages target, total frames): the paper's 128/192/256 GB
/// working sets on 256 GB of memory, scaled preserving the ratios (50 %,
/// 75 %, 94 % utilization with a 25 % fast share). The fast tier is sized
/// *below* the recurring working set (offset + state regions) so the
/// degree-gradient reuse — not just one-pass streaming — decides placement,
/// as in the paper's memory-pressured configurations.
pub const SIZES: [(&str, u32, u32); 3] = [
    ("128GB-equiv", 4_096, 8_192),
    ("192GB-equiv", 6_144, 8_192),
    ("256GB-equiv", 7_680, 8_192),
];

fn graph_workload(pages: u32, procs: usize) -> Vec<Box<dyn Workload>> {
    // Multi-process Graph500: independent searches over private graphs, as
    // the paper's "multi-processes Graph500 test". Edge factor 8 keeps the
    // offset/state (recurring) regions large relative to the edge
    // (streaming) region at simulator scale; roots per process are sized so
    // steady-state reuse dominates the cold first traversal.
    (0..procs)
        .map(|i| {
            let per_proc = pages / procs as u32;
            let ef = 8u32;
            let vertices = (per_proc as u64 * 512 / (3 + ef as u64)).max(64) as u32;
            let cfg = Graph500Config {
                vertices,
                edge_factor: ef,
                kernel: GraphKernel::Bfs,
                roots: 24,
                seed: 1200 + i as u64,
            };
            Box::new(Graph500Workload::new(cfg)) as Box<dyn Workload>
        })
        .collect()
}

/// Graph runs use a longer scan period than the pmbench experiments: graph
/// pages are touched a handful of times per second (vs hundreds for hot
/// pmbench pages), and the paper's 60 s period amortizes each hint fault
/// over ~68 touches; a 100 ms period at graph touch rates would make every
/// other touch a fault. 500 ms restores the amortization ratio.
fn graph_scale(scale: &Scale) -> Scale {
    Scale {
        scan_period: Nanos::from_millis(500),
        scan_step: scale.scan_step * 2,
        ..scale.clone()
    }
}

/// Runs the two-process graph workload of `pages` on `frames` to
/// completion under `policy` and returns its simulated execution time.
fn graph_run(
    scale: &Scale,
    label: &str,
    policy: &mut dyn TieringPolicy,
    pages: u32,
    frames: u32,
    page_size: PageSize,
) -> Nanos {
    // Finite workload: the horizon only bounds a run that never finishes.
    let driver = Some(DriverConfig::for_secs(3600));
    let mut bed = Testbed::new(scale, frames, page_size, driver, graph_workload(pages, 2));
    let r = bed.run(label, policy, None);
    assert!(r.workloads_finished, "graph run must complete");
    r.makespan
}

/// Execution time (simulated) of one policy/size/granularity cell.
pub fn exec_time(
    kind: PolicyKind,
    scale: &Scale,
    pages: u32,
    frames: u32,
    page_size: PageSize,
) -> Nanos {
    let scale = &graph_scale(scale);
    let mut policy = kind.build(scale);
    graph_run(scale, kind.name(), &mut *policy, pages, frames, page_size)
}

/// Fig 11a: execution time across sizes and page granularities.
pub fn run_11a(scale: &Scale) -> String {
    let mut out = String::new();
    for (granularity, page_size) in [("base", PageSize::Base), ("huge", PageSize::Huge2M)] {
        let mut t = Table::new(
            format!("Fig 11a ({granularity} pages): Graph500 execution time (sim ms; speedup vs Linux-NB)"),
            &["Policy", "128GB-equiv", "192GB-equiv", "256GB-equiv"],
        );
        let mut grid: Vec<Vec<f64>> = Vec::new();
        for kind in PolicyKind::MAIN {
            grid.push(
                SIZES
                    .iter()
                    .map(|(_, pages, frames)| {
                        exec_time(kind, scale, *pages, *frames, page_size).as_secs_f64() * 1e3
                    })
                    .collect(),
            );
        }
        let base = grid[0].clone();
        for (kind, row) in PolicyKind::MAIN.iter().zip(&grid) {
            let cells: Vec<String> = std::iter::once(kind.name().to_string())
                .chain(
                    row.iter()
                        .zip(&base)
                        .map(|(v, b)| format!("{:.0} ({:.2}x)", v, b / v)),
                )
                .collect();
            t.row(&cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig 11b: sensitivity of Chrono's parameters on the graph workload,
/// reported as relative performance = inverse execution time.
pub fn run_11b(scale: &Scale) -> String {
    let title = "Fig 11b: Graph500 sensitivity analysis (relative performance)";
    let scale = &graph_scale(scale);
    let (_, pages, frames) = SIZES[1];
    super::fig10::sensitivity_table(title, scale, |label, mut policy| {
        let t = graph_run(scale, label, &mut policy, pages, frames, PageSize::Base);
        1.0 / t.as_secs_f64()
    })
}
