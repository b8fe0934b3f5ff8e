//! Fig 7: pmbench access latency — the baseline load/store CDF (7a) and the
//! per-policy average/median/P99 normalized to Linux-NB across read/write
//! ratios (7b–7e).

use sim_clock::Nanos;
use tiering_metrics::{LatencyHistogram, Table};

use crate::runner::{pmbench, run_policy, PolicyKind, Scale, StandardRun};

const PROCS: usize = 10;
const PAGES: u32 = 2400;
const FRAMES: u32 = 30_000;

fn one_run(kind: PolicyKind, scale: &Scale, read_ratio: f64) -> StandardRun {
    let workloads = || pmbench(PROCS, PAGES, read_ratio, 700);
    run_policy(kind, scale, FRAMES, kind.page_size(), None, workloads)
}

fn cdf_table(reads: &LatencyHistogram, writes: &LatencyHistogram) -> String {
    let points: Vec<Nanos> = [0u64, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768]
        .map(|ns| Nanos(ns.max(1)))
        .to_vec();
    let r = reads.cdf_at(&points);
    let w = writes.cdf_at(&points);
    let mut t = Table::new(
        "Fig 7a: Linux-NB latency CDF (accumulated percentage)",
        &["Latency (ns)", "Memory Load", "Memory Store"],
    );
    for (i, p) in points.iter().enumerate() {
        t.row(&[
            format!("{}", p.as_nanos()),
            format!("{:.1}%", r[i] * 100.0),
            format!("{:.1}%", w[i] * 100.0),
        ]);
    }
    t.render()
}

/// Regenerates Fig 7.
pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    for (label, ratio) in [
        ("95:5", 0.95),
        ("70:30", 0.70),
        ("30:70", 0.30),
        ("5:95", 0.05),
    ] {
        let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
        let mut base: Option<(f64, f64, f64)> = None;
        for kind in PolicyKind::MAIN {
            let run = one_run(kind, scale, ratio);
            let avg = run.result.latency.mean().as_nanos() as f64;
            let med = run.result.latency.quantile(0.5).as_nanos() as f64;
            let p99 = run.result.latency.quantile(0.99).as_nanos() as f64;
            if kind == PolicyKind::LinuxNb {
                base = Some((avg, med, p99));
                // 7a: profile the baseline's load/store distribution once.
                if ratio == 0.70 {
                    out.push_str(&cdf_table(
                        &run.result.latency_reads,
                        &run.result.latency_writes,
                    ));
                    out.push('\n');
                }
            }
            rows.push((kind.name().to_string(), avg, med, p99));
        }
        let (ba, bm, bp) = base.expect("Linux-NB always runs first");
        let mut t = Table::new(
            format!("Fig 7 (R/W {label}): latency normalized to Linux-NB"),
            &["Policy", "Average", "Median", "P99"],
        );
        for (name, a, m, p) in rows {
            t.row(&[
                name,
                format!("{:.2}", a / ba),
                format!("{:.2}", m / bm),
                format!("{:.2}", p / bp),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
