//! Graph analytics scenario: Graph500-style BFS over a scale-free graph
//! whose CSR working set exceeds DRAM — the Section 5.2 setting. Prints
//! execution time for every policy, base vs. huge pages.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use chrono_repro::harness::runner::{PolicyKind, Scale, Testbed};
use chrono_repro::sim_clock::Nanos;
use chrono_repro::tiered_mem::PageSize;
use chrono_repro::tiering_policies::DriverConfig;
use chrono_repro::workloads::{Graph500Config, Graph500Workload, GraphKernel, Workload};

fn exec_time(kind: PolicyKind, page_size: PageSize) -> Nanos {
    let scale = Scale::default_scale();
    let workloads = (0..2)
        .map(|i| {
            let mut cfg = Graph500Config::sized_to_pages(4_096, GraphKernel::Bfs, 21 + i);
            cfg.roots = 2;
            Box::new(Graph500Workload::new(cfg)) as Box<dyn Workload>
        })
        .collect();
    let driver = Some(DriverConfig::for_secs(600));
    let mut bed = Testbed::new(&scale, 12_288, page_size, driver, workloads);
    let r = bed.run(kind.name(), &mut *kind.build(&scale), None);
    assert!(r.workloads_finished, "BFS must run to completion");
    r.makespan
}

fn main() {
    println!("Graph500 BFS, 2 processes, CSR working set 2x the fast tier\n");
    println!("{:<14} {:>16} {:>16}", "policy", "base pages", "huge pages");
    let mut base_nb = None;
    for kind in PolicyKind::MAIN {
        let base = exec_time(kind, PageSize::Base);
        let huge = exec_time(kind, PageSize::Huge2M);
        if kind == PolicyKind::LinuxNb {
            base_nb = Some(base);
        }
        let speedup = base_nb
            .map(|b| {
                format!(
                    "  ({:.2}x vs NB base)",
                    b.as_secs_f64() / base.as_secs_f64()
                )
            })
            .unwrap_or_default();
        println!(
            "{:<14} {:>16} {:>16}{}",
            kind.name(),
            format!("{}", base),
            format!("{}", huge),
            speedup
        );
    }
}
