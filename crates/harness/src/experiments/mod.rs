//! One module per paper artifact. Every `run(scale)` returns the rendered
//! plain-text tables so both the CLI and the integration tests can consume
//! them.

pub mod ext;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figb;
pub mod tables;

use tiering_metrics::Table;

use crate::runner::{PolicyKind, Scale};

/// Fills `t` with one row per kind: its name, then `cell(value, base)` per
/// column, where `measure` gives each value and the first kind's row (the
/// Linux-NB baseline) gives each column's base.
pub(crate) fn normalized_rows<C>(
    t: &mut Table,
    kinds: &[PolicyKind],
    columns: &[C],
    mut measure: impl FnMut(PolicyKind, &C) -> f64,
    cell: impl Fn(f64, f64) -> String,
) {
    let grid: Vec<Vec<f64>> = kinds
        .iter()
        .map(|&kind| columns.iter().map(|c| measure(kind, c)).collect())
        .collect();
    for (kind, row) in kinds.iter().zip(&grid) {
        let cells: Vec<String> = std::iter::once(kind.name().to_string())
            .chain(row.iter().zip(&grid[0]).map(|(v, b)| cell(*v, *b)))
            .collect();
        t.row(&cells);
    }
}

/// The throughput cell of [`normalized_rows`]: value over base, two places.
pub(crate) fn ratio_cell(v: f64, base: f64) -> String {
    format!("{:.2}", v / base)
}

/// Experiment ids accepted by the CLI, with their descriptions.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Table 1: solution characteristics"),
    ("table2", "Table 2: Chrono parameter defaults"),
    ("fig1", "Fig 1: per-page access frequency by memory region"),
    ("fig2a", "Fig 2a: hot-page identification F1 / PPR"),
    ("fig2b", "Fig 2b: PEBS bin distribution, huge vs base pages"),
    (
        "fig6",
        "Fig 6: pmbench throughput across R/W ratios and configs",
    ),
    (
        "fig7",
        "Fig 7: pmbench latency (CDF + normalized statistics)",
    ),
    (
        "fig8",
        "Fig 8: run-time characteristics (FMAR, kernel time, ctx)",
    ),
    ("fig9", "Fig 9: per-cgroup DRAM page percentage histories"),
    (
        "fig10a",
        "Fig 10a: CIT vs access probability across the space",
    ),
    ("fig10b", "Fig 10b: CIT threshold history"),
    ("fig10c", "Fig 10c: migration rate limit history"),
    ("fig10d", "Fig 10d: pmbench parameter sensitivity"),
    ("fig11a", "Fig 11a: Graph500 execution time"),
    ("fig11b", "Fig 11b: Graph500 parameter sensitivity"),
    ("fig12", "Fig 12: Memcached / Redis throughput"),
    ("fig13", "Fig 13: design-choice analysis (Chrono variants)"),
    ("figb1", "Fig B1: page-density family h(x, α)"),
    ("figb2", "Fig B2: promotion efficiency E(n, α)"),
    (
        "ext-baselines",
        "Extension: Telescope + FlexMem vs the plotted field",
    ),
    (
        "ext-adapt",
        "Extension: adaptation to a phase-shifting hot region",
    ),
    (
        "ext-limits",
        "Extension: cgroup memory limits with slow-tier reclaim",
    ),
];

/// Runs one experiment by id; `None` for unknown ids.
pub fn run_by_id(id: &str, scale: &Scale) -> Option<String> {
    Some(match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig1" => fig1::run(scale),
        "fig2a" => fig2::run_2a(scale),
        "fig2b" => fig2::run_2b(scale),
        "fig6" => fig6::run(scale),
        "fig7" => fig7::run(scale),
        "fig8" => fig8::run(scale),
        "fig9" => fig9::run(scale),
        "fig10a" => fig10::run_10a(scale),
        "fig10b" => fig10::run_10b(scale),
        "fig10c" => fig10::run_10c(scale),
        "fig10d" => fig10::run_10d(scale),
        "fig11a" => fig11::run_11a(scale),
        "fig11b" => fig11::run_11b(scale),
        "fig12" => fig12::run(scale),
        "fig13" => fig13::run(scale),
        "figb1" => figb::run_b1(),
        "figb2" => figb::run_b2(),
        "ext-baselines" => ext::run_baselines(scale),
        "ext-adapt" => ext::run_adapt(scale),
        "ext-limits" => ext::run_limits(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(
        title: &str,
        header: &[&str],
        kinds: &[PolicyKind],
        grid: &[&[f64]],
        cell: fn(f64, f64) -> String,
    ) -> String {
        let mut t = Table::new(title, header);
        let row = |k: PolicyKind| kinds.iter().position(|&x| x == k).expect("listed kind");
        let cols: Vec<usize> = (0..grid[0].len()).collect();
        normalized_rows(&mut t, kinds, &cols, |k, &c| grid[row(k)][c], cell);
        t.render()
    }

    /// Renders a fixed grid in the fig13 and fig11a cell formats; the
    /// expected text is what the figures' own per-figure loops printed.
    #[test]
    fn normalized_rows_render_fig13_and_fig11a_cells() {
        let fig13 = render(
            "Fig 13: design choice analysis (normalized throughput vs Linux-NB)",
            &["Variant", "95:5", "70:30", "30:70", "5:95"],
            &PolicyKind::ABLATION,
            &[
                &[1000.0, 1200.0, 1500.0, 2000.0],
                &[1840.0, 2484.0, 3735.0, 4680.0],
                &[1920.0, 2628.0, 3450.0, 4120.0],
                &[1720.0, 2376.0, 2625.0, 4320.0],
                &[2160.0, 2856.0, 4590.0, 6720.0],
                &[1920.0, 2628.0, 3450.0, 4120.0],
            ],
            ratio_cell,
        );
        assert_eq!(
            fig13,
            "== Fig 13: design choice analysis (normalized throughput vs Linux-NB) ==
Variant        95:5  70:30  30:70  5:95
---------------------------------------
Linux-NB       1.00  1.00   1.00   1.00
Chrono-basic   1.84  2.07   2.49   2.34
Chrono-twice   1.92  2.19   2.30   2.06
Chrono-thrice  1.72  1.98   1.75   2.16
Chrono         2.16  2.38   3.06   3.36
Chrono-manual  1.92  2.19   2.30   2.06
"
        );
        let fig11a = render(
            "Fig 11a (base pages): Graph500 execution time (sim ms; speedup vs Linux-NB)",
            &["Policy", "128GB-equiv", "192GB-equiv", "256GB-equiv"],
            &PolicyKind::MAIN,
            &[
                &[412.3, 655.8, 901.2],
                &[398.1, 640.0, 950.4],
                &[420.9, 700.2, 880.0],
                &[350.5, 600.7, 850.3],
                &[380.0, 610.1, 870.8],
                &[300.2, 520.6, 760.4],
            ],
            fig11::speedup_cell,
        );
        assert_eq!(
            fig11a,
            "== Fig 11a (base pages): Graph500 execution time (sim ms; speedup vs Linux-NB) ==
Policy       128GB-equiv  192GB-equiv  256GB-equiv
--------------------------------------------------
Linux-NB     412 (1.00x)  656 (1.00x)  901 (1.00x)
AutoTiering  398 (1.04x)  640 (1.02x)  950 (0.95x)
MultiClock   421 (0.98x)  700 (0.94x)  880 (1.02x)
TPP          350 (1.18x)  601 (1.09x)  850 (1.06x)
Memtis       380 (1.08x)  610 (1.07x)  871 (1.03x)
Chrono       300 (1.37x)  521 (1.26x)  760 (1.19x)
"
        );
    }
}
