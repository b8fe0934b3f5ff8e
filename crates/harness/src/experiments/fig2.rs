//! Fig 2: hot-page identification quality (a) and PEBS bin stability (b).

use tiered_mem::{PageSize, TierId, Vpn};
use tiering_metrics::{ConfusionCounts, Table};
use tiering_policies::{DriverConfig, Memtis, MemtisConfig};

use crate::runner::{pmbench, PolicyKind, Scale, Testbed};

const PROCS: usize = 8;
const PAGES_PER_PROC: u32 = 2048;

/// Whether a page of the Fig 2 workload lies in the centre 25 % of the
/// address space (the paper's ground-truth hot region).
fn in_hot_center(pages: u32, vpn: Vpn) -> bool {
    let lo = (pages as f64 * 0.375) as u32;
    let hi = (pages as f64 * 0.625) as u32;
    (lo..hi).contains(&vpn.0)
}

/// Fig 2a: F1-score and page promotion ratio per policy, access-weighted as
/// in Section 2.4 — actual positives are accesses to the hot region,
/// predicted positives are accesses served by DRAM.
pub fn run_2a(scale: &Scale) -> String {
    let mut t = Table::new(
        "Fig 2a: hot page identification (access-weighted)",
        &["Policy", "Precision", "Recall", "F1-Score", "PPR"],
    );
    for kind in [
        PolicyKind::AutoTiering,
        PolicyKind::MultiClock,
        PolicyKind::Tpp,
        PolicyKind::Memtis,
        PolicyKind::Chrono,
    ] {
        let total = PROCS as u32 * PAGES_PER_PROC;
        // Memtis ran with huge pages in the paper; this experiment is
        // explicitly base-page-oriented, so every policy sees 4 KiB pages
        // except Memtis, which keeps its recommended huge setup and pays the
        // fragmentation the paper highlights.
        let mut bed = Testbed::new(
            scale,
            total + total / 4,
            kind.page_size(),
            Some(DriverConfig {
                run_for: scale.run_for,
                track_slow_accesses: true,
                ..Default::default()
            }),
            pmbench(PROCS, PAGES_PER_PROC, 0.95, 300),
        );
        // Skip the placement warmup (first ~third of accesses, shared by all
        // policies) so the scores reflect steady-state identification.
        let mut seen = 0u64;
        let warmup_accesses = 4_000_000u64;
        let mut counts = ConfusionCounts::default();
        let mut tally = |_pid, vpn: Vpn, _w, tier: TierId| {
            seen += 1;
            if seen > warmup_accesses {
                counts.tally(in_hot_center(PAGES_PER_PROC, vpn), tier == TierId::FAST);
            }
        };
        let r = bed.run(kind.name(), &mut *kind.build(scale), Some(&mut tally));
        let ppr = bed.sys.stats.promoted_pages as f64 / r.accessed_slow_pages.max(1) as f64;
        t.row(&[
            kind.name().to_string(),
            format!("{:.3}", counts.precision()),
            format!("{:.3}", counts.recall()),
            format!("{:.3}", counts.f1()),
            format!("{:.3}", ppr),
        ]);
    }
    t.render()
}

/// Fig 2b: distribution of PEBS counter bins under huge- vs base-page
/// granularity in Memtis — the statistical starvation of base pages.
pub fn run_2b(scale: &Scale) -> String {
    let mut t = Table::new(
        "Fig 2b: Memtis PEBS bin distribution (% of sampled pages)",
        &[
            "Granularity",
            "bin#1",
            "bin#2-3",
            "bin#4-5",
            "bin#6-7",
            "bin#8-9",
            "bin#>9",
        ],
    );
    for (label, page_size) in [
        ("Huge-Page", PageSize::Huge2M),
        ("Base-Page", PageSize::Base),
    ] {
        let total = PROCS as u32 * PAGES_PER_PROC;
        let workloads = pmbench(PROCS, PAGES_PER_PROC, 0.95, 300);
        let mut bed = Testbed::new(scale, total + total / 4, page_size, None, workloads);
        let mut policy = Memtis::new(MemtisConfig {
            sample_period: scale.memtis_sample_period,
            migrate_interval: scale.scan_period / 10,
            cooling_interval: scale.scan_period * 4,
            adjust_interval: scale.scan_period / 2,
            fast_fill_ratio: 0.95,
            split_enabled: false, // isolate the sampling statistics
            seed: 0x2B,
        });
        bed.run(label, &mut policy, None);

        let dist = policy.bin_distribution();
        let sampled: u64 = dist[1..].iter().sum();
        let pct = |range: std::ops::Range<usize>| -> String {
            let n: u64 = dist[range].iter().sum();
            format!("{:.1}%", n as f64 / sampled.max(1) as f64 * 100.0)
        };
        t.row(&[
            label.to_string(),
            pct(1..2),
            pct(2..4),
            pct(4..6),
            pct(6..8),
            pct(8..10),
            pct(10..tiering_policies::memtis::BINS),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_center_is_quarter_of_space() {
        let pages = 1000;
        let hot = (0..pages).filter(|v| in_hot_center(pages, Vpn(*v))).count();
        assert_eq!(hot, 250);
        assert!(in_hot_center(pages, Vpn(500)));
        assert!(!in_hot_center(pages, Vpn(100)));
    }
}
