//! Fig 12: in-memory key-value store throughput — Memcached (a) and
//! Redis (b) under memtier-style Gaussian SET/GET mixes.

use tiering_metrics::Table;
use workloads::{KvFlavor, KvStoreConfig, KvStoreWorkload, Workload};

use super::{normalized_rows, ratio_cell};
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
        let cell = |kind, r: &f64| run_cell(kind, scale, flavor, *r);
        normalized_rows(&mut t, &PolicyKind::MAIN, &ratios, cell, ratio_cell);
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
