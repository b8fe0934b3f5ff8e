//! Fig 1: per-page memory access frequency with DRAM / NVM / top-10 %-hot
//! NVM breakdowns, for Pmbench, Graph500, Memcached, and Redis.
//!
//! The paper samples accesses with the PMU (PEBS) on a DRAM-NVM system under
//! the default kernel; here every access is observed directly (the simulator
//! *is* the PMU) while Linux-NB manages placement, and per-page frequencies
//! are attributed to the tier that served each access.

use std::collections::HashMap;

use tiered_mem::{PageSize, TierId, Vpn};
use tiering_metrics::Table;
use workloads::{
    Graph500Config, Graph500Workload, GraphKernel, KvFlavor, KvStoreConfig, KvStoreWorkload,
    PmbenchConfig, PmbenchWorkload, Workload,
};

use crate::runner::{PolicyKind, Scale, Testbed};

struct RegionStats {
    dram_avg: f64,
    nvm_avg: f64,
    nvm_top10_avg: f64,
}

fn profile(workload: Box<dyn Workload>, scale: &Scale) -> RegionStats {
    let pages = workload.address_space_pages();
    let wls = vec![workload];
    let mut bed = Testbed::new(scale, pages + pages / 4, PageSize::Base, None, wls);
    let kind = PolicyKind::LinuxNb;
    let mut counts: HashMap<u32, [u64; 2]> = HashMap::new();
    let mut tally = |_pid, vpn: Vpn, _w, tier: TierId| {
        // Every tier below DRAM counts as NVM, so longer chains tally too.
        counts.entry(vpn.0).or_insert([0, 0])[usize::from(tier != TierId::FAST)] += 1;
    };
    let r = bed.run(kind.name(), &mut *kind.build(scale), Some(&mut tally));

    let secs = r.makespan.as_secs_f64().max(1e-9);
    let mut dram: Vec<u64> = Vec::new();
    let mut nvm: Vec<u64> = Vec::new();
    for c in counts.values() {
        if c[0] > 0 {
            dram.push(c[0]);
        }
        if c[1] > 0 {
            nvm.push(c[1]);
        }
    }
    nvm.sort_unstable_by(|a, b| b.cmp(a));
    let avg = |v: &[u64]| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64 / secs
        }
    };
    let top = &nvm[..(nvm.len() / 10).max(1).min(nvm.len())];
    RegionStats {
        dram_avg: avg(&dram),
        nvm_avg: avg(&nvm),
        nvm_top10_avg: avg(top),
    }
}

/// Regenerates Fig 1.
pub fn run(scale: &Scale) -> String {
    let pages = 12_288u32;
    let mut t = Table::new(
        "Fig 1: per-page access frequency by region (accesses/simulated-second)",
        &[
            "Benchmark",
            "DRAM",
            "NVM",
            "NVM top-10% hot",
            "top-10% / NVM avg",
        ],
    );
    let cases: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "Pmbench",
            Box::new(PmbenchWorkload::new(PmbenchConfig::paper_skewed(
                pages, 0.7, 11,
            ))),
        ),
        (
            "Graph500",
            Box::new(Graph500Workload::new(Graph500Config::sized_to_pages(
                pages,
                GraphKernel::Bfs,
                12,
            ))),
        ),
        (
            "Memcached",
            Box::new(KvStoreWorkload::new(KvStoreConfig::sized_to_pages(
                pages,
                KvFlavor::Memcached,
                1.0 / 11.0,
                13,
            ))),
        ),
        (
            "Redis",
            Box::new(KvStoreWorkload::new(KvStoreConfig::sized_to_pages(
                pages,
                KvFlavor::Redis,
                1.0 / 11.0,
                14,
            ))),
        ),
    ];
    for (name, w) in cases {
        let s = profile(w, scale);
        t.row(&[
            name.to_string(),
            format!("{:.0}", s.dram_avg),
            format!("{:.0}", s.nvm_avg),
            format!("{:.0}", s.nvm_top10_avg),
            format!("{:.1}x", s.nvm_top10_avg / s.nvm_avg.max(1e-9)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::Nanos;

    #[test]
    fn three_tier_accesses_count_as_nvm() {
        let scale = Scale {
            run_for: Nanos::from_millis(20),
            topology: crate::runner::Topology::ThreeTier,
            ..Scale::default_scale()
        };
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(1024, 0.7, 11));
        let s = profile(Box::new(w), &scale);
        assert!(s.dram_avg > 0.0 && s.nvm_avg > 0.0);
    }
}
