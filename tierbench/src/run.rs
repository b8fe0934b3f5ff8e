//! The benchmark's modes: the measured run (`--trace 0` end-to-end,
//! `--trace 1` per-layer), the hold-out seed report and the sensitivity
//! self-test.

use std::time::Duration;

use crate::clock::{busy_wait_cost, now_ns, secs_since, Calibration};
use crate::probe::{Mode, Site, Span};
use crate::report::{median, peak_rss_mib, tail, MetricDef, END_TO_END, PER_LAYER};
use crate::scenario::{profile, rep, Checks, RepResult, SimOutcome, Size, WorkloadId};

/// Reps every measured run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Base/slowed rep pairs per site in the sensitivity self-test.
const SENSITIVITY_PAIRS: usize = 5;
/// Per-access spans are recorded for one access in this many. Odd, so the
/// sample does not alias with the power-of-two strides of the generators.
const SAMPLE_EVERY: u32 = 31;

/// What a measured run prints.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<(MetricDef, f64)>,
}

fn def(table: &[MetricDef], name: &str) -> MetricDef {
    *table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Every rep must reproduce the first one exactly.
fn check_reps(checks: &mut Checks, reps: &[RepResult], first: &SimOutcome, what: &str) {
    for (i, r) in reps.iter().enumerate() {
        checks.check(r.sim.fingerprint == first.fingerprint, || {
            format!("{what} rep {i} diverged from the first untraced rep")
        });
    }
}

/// The deterministic end-to-end metrics of one outcome.
pub fn deterministic(sim: &SimOutcome) -> [(&'static str, f64); 4] {
    [
        ("sim_throughput", sim.sim_throughput()),
        ("fmar", sim.fmar()),
        ("sim_lat_p99_ns", sim.p99_ns()),
        ("slot_share_equality", sim.slot_share_equality),
    ]
}

/// The measured run: reps until `seconds` have passed. When `trace` asks
/// for the per-layer metrics, decorated reps alternate with undecorated
/// ones, so both see the same host conditions.
pub fn measure(
    id: WorkloadId,
    seed: u64,
    size: Size,
    seconds: f64,
    trace: bool,
    threads: usize,
) -> Outcome {
    let mut checks = Checks::default();
    let cal = trace.then(Calibration::measure);
    let timed = Some(Mode::Timed {
        every: SAMPLE_EVERY,
    });
    let t0 = now_ns();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_REPS || secs_since(t0) < seconds {
        untraced.push(rep(id, seed, size, None, threads));
        if trace {
            traced.push(rep(id, seed, size, timed, threads));
        }
    }
    let first = untraced[0].sim.clone();
    check_reps(&mut checks, &untraced, &first, "untraced");
    for r in &untraced {
        checks.merge(r.checks.clone());
    }
    let run_s: Vec<f64> = untraced
        .iter()
        .map(|r| r.host.run_ns as f64 / 1e9)
        .collect();
    let rate: Vec<f64> = untraced
        .iter()
        .map(|r| r.sim.accesses as f64 / (r.host.run_ns as f64 / 1e9))
        .collect();
    let setup: Vec<f64> = untraced.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    // The tail is taken per rep, whose window count the simulation fixes,
    // and the median over reps is reported.
    let tails: Vec<(f64, f64, usize)> = untraced.iter().map(|r| tail(&r.host.windows)).collect();
    let tail_ns = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, tail_pct, tail_n) = tails[0];
    println!(
        "{}: seed {seed}, {} untraced reps of {} accesses, {threads} worker threads",
        id.name(),
        untraced.len(),
        first.accesses
    );
    let shown: Vec<String> = run_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "  host s/rep: median {:.4} of [{}]",
        median(&run_s),
        shown.join(" ")
    );
    println!(
        "  host_ns_per_access_tail: median over reps of each rep's p{tail_pct:.2} of {tail_n} windows"
    );

    let Some(cal) = cal else {
        let passed = checks.attempted - checks.failures.len() as u64;
        let mut metrics = vec![
            (def(&END_TO_END, "sim_acc_per_host_s"), median(&rate)),
            (def(&END_TO_END, "host_ns_per_access_tail"), tail_ns),
            (def(&END_TO_END, "setup_s"), median(&setup)),
            (def(&END_TO_END, "peak_rss_mib"), peak_rss_mib()),
        ];
        for (name, v) in deterministic(&first) {
            metrics.push((def(&END_TO_END, name), v));
        }
        metrics.push((
            def(&END_TO_END, "check_pass_ratio"),
            passed as f64 / checks.attempted.max(1) as f64,
        ));
        println!("  checks: {passed}/{} passed", checks.attempted);
        return Outcome { checks, metrics };
    };

    check_reps(&mut checks, &traced, &first, "traced");
    for r in &traced {
        checks.merge(r.checks.clone());
    }
    let traced_s: Vec<f64> = traced.iter().map(|r| r.host.run_ns as f64 / 1e9).collect();
    let overhead = median(&traced_s) / median(&run_s) - 1.0;
    let metrics = layer_metrics(&untraced, &traced, &cal, overhead);
    println!(
        "  checks: {}/{} passed",
        checks.attempted - checks.failures.len() as u64,
        checks.attempted
    );
    Outcome { checks, metrics }
}

/// Per-layer metrics from the traced reps, with the human-readable layer
/// table printed on the way.
fn layer_metrics(
    untraced: &[RepResult],
    traced: &[RepResult],
    cal: &Calibration,
    overhead: f64,
) -> Vec<(MetricDef, f64)> {
    let sim = &untraced[0].sim;
    let accesses = traced.iter().map(|r| r.sim.accesses).sum::<u64>() as f64;
    let reps = traced.len() as f64;
    let mut span_ns = [0.0f64; Span::ALL.len()];
    let mut span_n = [0u64; Span::ALL.len()];
    let (mut reads, mut total, mut wall, mut serial, mut idle, mut imbalance) =
        (0u64, 0.0, 0.0, 0.0, 0.0, 0.0);
    for r in traced {
        let p = profile(r, cal.empty_span_ns);
        for (i, (_, ns, n)) in p.spans.iter().enumerate() {
            span_ns[i] += ns;
            span_n[i] += n;
        }
        reads += p.reads;
        total += p.total_ns;
        wall += p.wall_ns;
        serial += p.serial_ns;
        idle += p.idle_ns;
        imbalance += p.imbalance / reps;
    }
    // Sampled spans stand for every access: scale by calls ÷ samples.
    let per_acc = |s: Span| -> f64 {
        let i = s as usize;
        let ns = if s.sampled() {
            if span_n[i] == 0 {
                0.0
            } else {
                span_ns[i] * accesses / span_n[i] as f64
            }
        } else {
            span_ns[i]
        };
        ns / accesses
    };
    let count = |s: Span| span_n[s as usize] as f64 / reps;
    let clock = reads as f64 * cal.read_ns / accesses;
    let barrier = serial / accesses;
    let total_pa = total / accesses;
    let layers: f64 = Span::ALL.iter().map(|&s| per_acc(s)).sum();
    let driver = total_pa - layers - clock - barrier;

    println!(
        "  traced: {} reps, total {:.2} ns/acc (wall {:.2} ns/acc), overhead {:+.1}% vs untraced",
        traced.len(),
        total_pa,
        wall / accesses,
        overhead * 100.0
    );
    println!(
        "  clock: empty span {:.1} ns, read {:.1} ns; per-access spans sampled 1 in {SAMPLE_EVERY}",
        cal.empty_span_ns, cal.read_ns
    );
    println!(
        "  {:<28} {:>10} {:>7} {:>14} {:>12}",
        "layer", "ns/acc", "share", "calls/rep", "ns/call"
    );
    let row = |name: &str, pa: f64, calls: f64| {
        let per_call = if calls > 0.0 {
            format!("{:.1}", pa * accesses / reps / calls)
        } else {
            "-".to_string()
        };
        println!(
            "  {:<28} {:>10.3} {:>6.1}% {:>14.0} {:>12}",
            name,
            pa,
            100.0 * pa / total_pa,
            calls,
            per_call
        );
    };
    let acc_per_rep = accesses / reps;
    let names = [
        (Span::NextAccess, "workloads.next_access"),
        (Span::Access, "tiered_mem.access"),
        (Span::OnAccess, "chrono.on_access"),
        (Span::ScanFault, "chrono.scan_fault"),
        (Span::ProbeFault, "chrono.probe_fault"),
        (Span::EvScan, "chrono.ev_scan"),
        (Span::EvMigrate, "chrono.ev_migrate"),
        (Span::EvDemote, "chrono.ev_demote"),
        (Span::EvTune, "chrono.ev_tune"),
        (Span::EvDcsc, "chrono.ev_dcsc"),
        (Span::EvOther, "policy.ev_other"),
    ];
    for (s, name) in names {
        let calls = if s.sampled() { acc_per_rep } else { count(s) };
        row(name, per_acc(s), calls);
    }
    row("shard.barrier", barrier, 0.0);
    row("trace.clock", clock, reads as f64 / reps);
    row("driver (residual)", driver, 0.0);
    println!("  {:<28} {:>10.3} {:>6.1}%", "total", total_pa, 100.0);
    if idle > 0.0 {
        println!(
            "  worker idle (not in total): {:.3} ns/acc, imbalance {:.3}",
            idle / accesses,
            imbalance
        );
    }

    let c = &sim.counts;
    let (offered, dequeued) = sim.queue.unwrap_or((0, 0));
    let record: Vec<f64> = untraced.iter().map(|r| r.record_ns as f64 / 1e9).collect();
    let values: Vec<(&str, f64)> = vec![
        ("workloads.next_access_ns", per_acc(Span::NextAccess)),
        ("workloads.record_s", median(&record)),
        (
            "workloads.trace_mib",
            untraced[0].trace_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("tiered_mem.access_ns", per_acc(Span::Access)),
        ("driver.self_ns_per_access", driver + per_acc(Span::EvOther)),
        ("chrono.scan_fault_ns", per_acc(Span::ScanFault)),
        ("chrono.scan_faults", count(Span::ScanFault)),
        ("chrono.probe_fault_ns", per_acc(Span::ProbeFault)),
        ("chrono.probe_faults", count(Span::ProbeFault)),
        ("chrono.ev_scan_ns", per_acc(Span::EvScan)),
        ("chrono.ev_migrate_ns", per_acc(Span::EvMigrate)),
        ("chrono.ev_demote_ns", per_acc(Span::EvDemote)),
        ("chrono.ev_tune_ns", per_acc(Span::EvTune)),
        ("chrono.ev_dcsc_ns", per_acc(Span::EvDcsc)),
        ("chrono.ev_scan", count(Span::EvScan)),
        ("chrono.ev_migrate", count(Span::EvMigrate)),
        ("chrono.ev_demote", count(Span::EvDemote)),
        ("chrono.ev_tune", count(Span::EvTune)),
        ("chrono.ev_dcsc", count(Span::EvDcsc)),
        ("chrono.on_access_ns", per_acc(Span::OnAccess)),
        ("shard.barrier_ns", barrier),
        ("shard.barriers", sim.barriers as f64),
        (
            "shard.worker_imbalance",
            if idle > 0.0 { imbalance } else { 1.0 },
        ),
        ("trace.clock_ns", clock),
        ("trace.total_ns_per_access", total_pa),
        ("trace.overhead", overhead),
        ("tiered_mem.hint_faults", c.hint_faults as f64),
        ("tiered_mem.demand_faults", c.demand_faults as f64),
        ("tiered_mem.scanned_ptes", c.scanned_ptes as f64),
        ("migration.begun", c.begun as f64),
        ("migration.completed", c.completed as f64),
        ("migration.aborted", c.aborted as f64),
        ("migration.backpressured", c.backpressured as f64),
        ("migration.promoted_edge0", c.promoted[0] as f64),
        ("migration.promoted_edge1", c.promoted[1] as f64),
        ("migration.demoted_edge0", c.demoted[0] as f64),
        ("migration.demoted_edge1", c.demoted[1] as f64),
        ("shard.admission_grants", sim.admission_grants as f64),
        ("shard.admission_rejects", sim.admission_rejects as f64),
        ("shard.max_starvation", sim.max_starvation as f64),
        (
            "migration.complete_ratio",
            c.completed as f64 / c.begun.max(1) as f64,
        ),
        (
            "chrono.promote_yield",
            dequeued as f64 / offered.max(1) as f64,
        ),
        (
            "chrono.thrash_per_promotion",
            c.thrash_events as f64 / c.promoted_pages.max(1) as f64,
        ),
        ("sim.accesses", sim.accesses as f64),
    ];
    values
        .into_iter()
        .map(|(n, v)| (def(&PER_LAYER, n), v))
        .collect()
}

/// Prints the deterministic metrics of the default and the hold-out seed.
pub fn holdout(id: WorkloadId, threads: usize) -> Checks {
    let (default_seed, holdout_seed) = id.seeds();
    let mut checks = Checks::default();
    for (label, seed) in [("default", default_seed), ("hold-out", holdout_seed)] {
        let r = rep(id, seed, Size::full(id), None, threads);
        let line: Vec<String> = deterministic(&r.sim)
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!("{} {label} seed {seed}: {}", id.name(), line.join(" "));
        checks.merge(r.checks);
    }
    checks
}

/// The busy-wait each sensitivity site injects per call, sized so the
/// workload where the site dominates slows by roughly a third.
fn injected(site: Site) -> Duration {
    match site {
        Site::NextAccess => Duration::from_micros(1),
        Site::ProbeFault => Duration::from_micros(4),
        Site::DcscEvent => Duration::from_micros(150),
    }
}

/// The sensitivity self-test: per site, alternate reps with the site's
/// decorator idle and busy-waiting per call, and check that host time moved
/// by calls × d, d being the wait's measured cost (spread over the worker
/// threads on the fleet). A site passes when the median paired difference
/// is within a quarter of the prediction plus the noise, the noise being
/// the larger of 3 % of the base time and half the range of the paired
/// differences. Returns whether every site passed.
pub fn sensitivity(id: WorkloadId, seed: u64, threads: usize) -> bool {
    let pairs = SENSITIVITY_PAIRS;
    let mut all_ok = true;
    println!(
        "{} sensitivity self-test (seed {seed}, {pairs} pairs per site)",
        id.name()
    );
    println!(
        "  {:<12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>7} verdict",
        "site", "d (ns)", "calls/rep", "base (s)", "predicted", "measured", "noise", "ratio"
    );
    for site in Site::ALL {
        let wait_ns = injected(site).as_nanos() as u64;
        let d_ns = busy_wait_cost(wait_ns);
        let mut base = Vec::new();
        let mut diffs = Vec::new();
        let mut calls = 0;
        for i in 0..pairs {
            // Alternate which side of a pair runs first.
            let order = if i % 2 == 0 {
                [0, wait_ns]
            } else {
                [wait_ns, 0]
            };
            let mut secs = [0.0; 2];
            for ns in order {
                let r = rep(
                    id,
                    seed,
                    Size::full(id),
                    Some(Mode::Delay { site, ns }),
                    threads,
                );
                calls = r.taps.iter().map(|t| t.delayed_calls()).sum::<u64>();
                secs[usize::from(ns > 0)] = r.host.run_ns as f64 / 1e9;
            }
            base.push(secs[0]);
            diffs.push(secs[1] - secs[0]);
        }
        let b = median(&base);
        let workers = if id == WorkloadId::Fleet {
            threads as f64
        } else {
            1.0
        };
        let predicted = calls as f64 * d_ns / 1e9 / workers;
        let measured = median(&diffs);
        let spread = diffs.iter().copied().fold(f64::MIN, f64::max)
            - diffs.iter().copied().fold(f64::MAX, f64::min);
        let noise = (0.03 * b).max(spread / 2.0);
        let ok = (measured - predicted).abs() <= 0.25 * predicted + noise;
        all_ok &= ok;
        println!(
            "  {:<12} {:>10.1} {:>12} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7.3} {}",
            site.name(),
            d_ns,
            calls,
            b,
            predicted,
            measured,
            noise,
            measured / predicted.max(f64::MIN_POSITIVE),
            if ok { "ok" } else { "MISMATCH" }
        );
    }
    all_ok
}
