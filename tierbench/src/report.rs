//! Metric definitions, summary statistics and the result line.
//!
//! The tables here are the single source of every printed metric's name,
//! unit and direction; the benchmark's tests hold them equal to
//! `BENCHMARK.json`.

use sim_clock::Nanos;
use tiering_metrics::LatencyHistogram;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [MetricDef; 9] = [
    m("sim_acc_per_host_s", "acc/host_s", "higher"),
    m("host_ns_per_access_tail", "ns", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("sim_throughput", "acc/sim_s", "higher"),
    m("fmar", "ratio", "higher"),
    m("sim_lat_p99_ns", "sim_ns", "lower"),
    m("slot_share_equality", "ratio", "higher"),
    m("check_pass_ratio", "ratio", "higher"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. Every
/// `_ns` layer time is host ns of self time per simulated access (summed
/// over worker threads on the fleet), so the layer rows add up to
/// `trace.total_ns_per_access`.
pub const PER_LAYER: [MetricDef; 44] = [
    m("workloads.next_access_ns", "ns/acc", "lower"),
    m("workloads.record_s", "s", "lower"),
    m("workloads.trace_mib", "MiB", "lower"),
    m("tiered_mem.access_ns", "ns/acc", "lower"),
    m("driver.self_ns_per_access", "ns/acc", "lower"),
    m("chrono.scan_fault_ns", "ns/acc", "lower"),
    m("chrono.scan_faults", "count", "lower"),
    m("chrono.probe_fault_ns", "ns/acc", "lower"),
    m("chrono.probe_faults", "count", "lower"),
    m("chrono.ev_scan_ns", "ns/acc", "lower"),
    m("chrono.ev_migrate_ns", "ns/acc", "lower"),
    m("chrono.ev_demote_ns", "ns/acc", "lower"),
    m("chrono.ev_tune_ns", "ns/acc", "lower"),
    m("chrono.ev_dcsc_ns", "ns/acc", "lower"),
    m("chrono.ev_scan", "count", "lower"),
    m("chrono.ev_migrate", "count", "lower"),
    m("chrono.ev_demote", "count", "lower"),
    m("chrono.ev_tune", "count", "lower"),
    m("chrono.ev_dcsc", "count", "lower"),
    m("chrono.on_access_ns", "ns/acc", "lower"),
    m("shard.barrier_ns", "ns/acc", "lower"),
    m("shard.barriers", "count", "lower"),
    m("shard.worker_imbalance", "ratio", "lower"),
    m("trace.clock_ns", "ns/acc", "lower"),
    m("trace.total_ns_per_access", "ns/acc", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("tiered_mem.hint_faults", "count", "lower"),
    m("tiered_mem.demand_faults", "count", "lower"),
    m("tiered_mem.scanned_ptes", "count", "lower"),
    m("migration.begun", "count", "lower"),
    m("migration.completed", "count", "higher"),
    m("migration.aborted", "count", "lower"),
    m("migration.backpressured", "count", "lower"),
    m("migration.promoted_edge0", "count", "higher"),
    m("migration.promoted_edge1", "count", "higher"),
    m("migration.demoted_edge0", "count", "lower"),
    m("migration.demoted_edge1", "count", "lower"),
    m("shard.admission_grants", "count", "higher"),
    m("shard.admission_rejects", "count", "lower"),
    m("shard.max_starvation", "count", "lower"),
    m("migration.complete_ratio", "ratio", "higher"),
    m("chrono.promote_yield", "ratio", "higher"),
    m("chrono.thrash_per_promotion", "ratio", "lower"),
    m("sim.accesses", "count", "higher"),
];

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest-percentile sample that still has at least ten samples above
/// it, or the largest sample when there are ten or fewer: `(value,
/// percentile, sample count)`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let i = if n > 10 { n - 11 } else { n - 1 };
    (v[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

/// The 0.99 quantile of a latency histogram, interpolated linearly within
/// the log bucket that holds it (buckets are about 1.1 % wide), so it
/// resolves moves smaller than one bucket.
pub fn p99_interpolated(h: &LatencyHistogram) -> f64 {
    const Q: f64 = 0.99;
    if h.count() == 0 {
        return 0.0;
    }
    let idx = LatencyHistogram::bucket_index(h.quantile(Q));
    let bucket = |ns: u64| LatencyHistogram::bucket_index(Nanos(ns));
    let mut lo = h.quantile(Q).as_nanos();
    while lo > 0 && bucket(lo - 1) == idx {
        lo -= 1;
    }
    let mut hi = lo + 1;
    while bucket(hi) == idx {
        hi += 1;
    }
    let cdf = h.cdf_at(&[Nanos(lo.saturating_sub(1)), Nanos(lo)]);
    let below = if lo == 0 { 0.0 } else { cdf[0] };
    let within = (cdf[1] - below).max(f64::MIN_POSITIVE);
    let frac = ((Q - below) / within).clamp(0.0, 1.0);
    (lo as f64 + frac * (hi - lo) as f64).min(h.max().as_nanos() as f64)
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric's value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th.
        assert_eq!(tail(&v), (90.0, 90.0, 100));
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0, 2));
    }

    #[test]
    fn p99_interpolates_within_its_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..980 {
            h.record(Nanos(100));
        }
        for i in 0..20 {
            h.record(Nanos(1000 + i));
        }
        let p = p99_interpolated(&h);
        let floor = h.quantile(0.99).as_nanos() as f64;
        assert!(
            p > floor && p < floor * 1.02,
            "p99 {p} not inside its bucket at {floor}"
        );
    }
}
