//! Fig 12: in-memory key-value store throughput — Memcached (a) and
//! Redis (b) under memtier-style Gaussian SET/GET mixes.

use tiering_metrics::Table;
use workloads::{KvFlavor, KvStoreConfig, KvStoreWorkload, Workload};

use crate::runner::{run_policy, PolicyKind, Scale};

const PAGES: u32 = 12_288;
const FRAMES: u32 = 16_384;
const PROCS: usize = 4;

/// Throughput of one (flavor, set ratio, policy) cell.
pub fn run_cell(kind: PolicyKind, scale: &Scale, flavor: KvFlavor, set_ratio: f64) -> f64 {
    let run = run_policy(kind, scale, FRAMES, kind.page_size(), None, || {
        (0..PROCS)
            .map(|i| {
                Box::new(KvStoreWorkload::new(KvStoreConfig::sized_to_pages(
                    PAGES / PROCS as u32,
                    flavor,
                    set_ratio,
                    1300 + i as u64,
                ))) as Box<dyn Workload>
            })
            .collect()
    });
    run.throughput()
}

/// Regenerates Fig 12.
pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    for flavor in [KvFlavor::Memcached, KvFlavor::Redis] {
        let mut t = Table::new(
            format!("Fig 12 ({:?}): normalized throughput vs Linux-NB", flavor),
            &["Policy", "Set/Get=1:10", "Set/Get=1:1"],
        );
        let ratios = [1.0 / 11.0, 0.5];
        let mut grid: Vec<Vec<f64>> = Vec::new();
        for kind in PolicyKind::MAIN {
            grid.push(
                ratios
                    .iter()
                    .map(|r| run_cell(kind, scale, flavor, *r))
                    .collect(),
            );
        }
        let base = grid[0].clone();
        for (kind, row) in PolicyKind::MAIN.iter().zip(&grid) {
            let cells: Vec<String> = std::iter::once(kind.name().to_string())
                .chain(row.iter().zip(&base).map(|(v, b)| format!("{:.2}", v / b)))
                .collect();
            t.row(&cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
