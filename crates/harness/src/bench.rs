//! `harness bench`: dependency-free performance measurement.
//!
//! Two suites, each writing one JSON file at the repository root so every
//! PR shows a trajectory:
//!
//! - **fig10** (`BENCH_fig10.json`): end-to-end simulation throughput for
//!   the Fig 10 workload shapes under Chrono-DCSC and TPP — host-side
//!   accesses/sec and migrations/sec (how fast the simulator executes), plus
//!   the simulated throughput (what the simulation reports). The access
//!   streams are pre-materialised outside the timed region (the pmbench
//!   generators are open-loop, so replay is bit-exact with live generation):
//!   the timed quantity is the simulator — driver, substrate, policy — not
//!   the Box–Muller sampling that feeds it. The suite also carries the
//!   multi-tenant fleet shape: the same seeded tenant mix run at 1 and at 4
//!   worker threads, measuring what the sharded scheduler buys in aggregate
//!   wall-clock throughput (digest equality across thread counts is enforced
//!   separately, by `tests/determinism.rs`). The ≥2× speedup expectation is
//!   reported as a verdict, never asserted, and judged only where
//!   `available_parallelism()` covers the worker count — with fewer CPUs the
//!   pool pays synchronization cost with little to parallelize onto.
//! - **substrate** (`BENCH_substrate.json`): ns/op microbenchmarks for the
//!   five measured hot paths — the demand/hint fault path, the Ticking-scan
//!   `walk_range` sweep, heat-map add/decay/overlap, LRU rotation, and the
//!   invariant-oracle sweep.
//!
//! Simulated work is counted with the sim-clock as everywhere else; the
//! *host* timer below is the one permitted wall-clock use in the workspace.
//! chrono-lint leaves the harness crate unrestricted for wall-clock use,
//! but the waivers are written out anyway so the exemption is explicit at
//! the use sites.
//!
//! `--check` re-runs the suites at quick scale (`--quick`: shrunken run
//! lengths and iteration counts; refused on its own, since quick numbers
//! must never overwrite the full-mode files) and compares against the
//! committed JSON instead of overwriting it, failing on a schema mismatch
//! or a >25 % end-to-end throughput regression (`ci.sh` exposes
//! `CHRONO_SKIP_BENCH=1` to skip the gate on slow or heavily loaded
//! machines).

use std::path::{Path, PathBuf};
// lint:allow(wall-clock) the bench module's purpose is host-side timing
use std::time::Instant;

use sim_clock::{DetRng, Nanos};
use tiered_mem::{
    LruEntry, LruKind, LruLists, PageFlags, PageSize, ProcessId, SystemConfig, TieredSystem, Vpn,
};
use tiering_policies::DriverConfig;
use tiering_verify::InvariantOracle;
use workloads::{PmbenchConfig, PmbenchWorkload, Trace, Workload};

use crate::runner::{run_policy, PolicyKind, Scale, Topology};
use crate::tenants::{run_fleet, FleetConfig};
use crate::{take_bool_flag, take_flag};

/// Schema tag written into (and required from) every bench JSON file.
pub const SCHEMA: &str = "chrono-bench/v1";

/// Throughput regression tolerated by `--check` before failing (fraction).
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// One measured quantity: a name, an op count, and the host time it took.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable result identifier (compared by `--check`).
    pub name: String,
    /// What one "op" is (access, page, sample, rotation, sweep).
    pub unit: &'static str,
    /// Operations executed.
    pub ops: u64,
    /// Host nanoseconds elapsed.
    pub host_nanos: u64,
    /// Extra `(key, value)` metrics specific to this result.
    pub extra: Vec<(&'static str, f64)>,
}

impl BenchResult {
    /// Nanoseconds of host time per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.host_nanos as f64 / self.ops as f64
        }
    }

    /// Operations per host second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.host_nanos as f64
        }
    }
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// Path of a suite's committed JSON file.
pub fn bench_path(suite: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{suite}.json"))
}

// ----- end-to-end suite (fig10 shapes) ------------------------------------

/// Runs one Fig 10-shaped workload under a policy for a fixed number of
/// accesses and measures host time. Each process's stream is recorded into
/// a [`Trace`] before the timer starts — the pmbench generators are
/// open-loop, so replay is bit-exact with live generation while the
/// Gaussian sampling that dominates generation stays out of the timed
/// region. Each trace is sized 1.5× its fair share so the driver's access
/// cap, not trace exhaustion, ends the run.
fn e2e_run(
    kind: PolicyKind,
    topology: Topology,
    label: &str,
    procs: u32,
    pages: u32,
    accesses: u64,
) -> BenchResult {
    // The sim-time horizon is a non-binding backstop; the access cap stops
    // the run.
    let horizon = Nanos::from_secs(3600);
    let scale = Scale {
        run_for: horizon,
        topology,
        ..Scale::default_scale()
    };
    let driver_cfg = DriverConfig {
        run_for: horizon,
        max_accesses: accesses,
        ..Default::default()
    };
    let total_frames = procs * (pages + pages / 4);
    let replays: Vec<Box<dyn Workload>> = (0..procs)
        .map(|i| {
            let seed = if procs == 1 { 1010 } else { 1100 + i as u64 };
            let read_ratio = if procs == 1 { 0.95 } else { 0.7 };
            let per_proc = (accesses / procs as u64) * 3 / 2;
            let mut live =
                PmbenchWorkload::new(PmbenchConfig::paper_skewed(pages, read_ratio, seed));
            Box::new(Trace::record(&mut live, per_proc as usize).into_workload())
                as Box<dyn Workload>
        })
        .collect();
    // lint:allow(wall-clock) host-side throughput is the measured quantity
    let start = Instant::now();
    let run = run_policy(
        kind,
        &scale,
        total_frames,
        PageSize::Base,
        Some(driver_cfg),
        move || replays,
    );
    // lint:allow(timestamp-cast) elapsed ns fit u64 for any realistic run
    let host_nanos = start.elapsed().as_nanos() as u64;
    let s = &run.sys.stats;
    let migrations = s.promoted_pages + s.demoted_pages;
    let host_secs = (host_nanos as f64 / 1e9).max(1e-9);
    BenchResult {
        name: label.to_string(),
        unit: "access",
        ops: run.result.accesses,
        host_nanos,
        extra: vec![
            ("migrated_pages", migrations as f64),
            ("migrations_per_sec", migrations as f64 / host_secs),
            ("sim_throughput", run.result.throughput()),
            ("fmar", s.fmar()),
        ],
    }
}

/// Worker-thread count of the parallel multi-tenant fleet row.
pub const FLEET_THREADS: usize = 4;

/// One multi-tenant fleet row: `tenants` shards under the admission hook on
/// `threads` worker threads. Shard construction happens inside the timed
/// region for both thread counts, so the 1-thread vs N-thread comparison is
/// apples to apples; construction is a small, thread-independent prefix of
/// the run.
fn bench_fleet(tenants: usize, millis: u64, threads: usize) -> BenchResult {
    let cfg = FleetConfig {
        tenants,
        threads,
        millis,
        ..FleetConfig::default()
    };
    // lint:allow(wall-clock) host-side throughput is the measured quantity
    let start = Instant::now();
    let result = run_fleet(&cfg);
    // lint:allow(timestamp-cast) elapsed ns fit u64 for any realistic run
    let host_nanos = start.elapsed().as_nanos() as u64;
    BenchResult {
        name: format!("fig10_fleet_{threads}thread"),
        unit: "access",
        ops: result.total_accesses(),
        host_nanos,
        extra: vec![
            ("tenants", tenants as f64),
            ("threads", threads as f64),
            ("barriers", result.barriers as f64),
            ("slot_share_gini", result.slot_share_gini()),
        ],
    }
}

/// The end-to-end suite: Fig 10 profile (1×8192 pages) and multi-process
/// (6×2048 pages) shapes under Chrono-DCSC and TPP, the profile shape again
/// on the three-tier DRAM+CXL+PMem chain (cascaded Chrono and TPP-3), plus
/// the multi-tenant fleet shape at 1 and at [`FLEET_THREADS`] worker
/// threads.
pub fn run_fig10_suite(quick: bool) -> Vec<BenchResult> {
    let accesses: u64 = if quick { 1_000_000 } else { 12_000_000 };
    let mut out = Vec::new();
    for (kind, tag) in [
        (PolicyKind::Chrono, "chrono_dcsc"),
        (PolicyKind::Tpp, "tpp"),
    ] {
        out.push(e2e_run(
            kind,
            Topology::DramPmem,
            &format!("fig10_profile_{tag}"),
            1,
            8192,
            accesses,
        ));
        out.push(e2e_run(
            kind,
            Topology::DramPmem,
            &format!("fig10_multi_{tag}"),
            6,
            2048,
            accesses,
        ));
        out.push(e2e_run(
            kind,
            Topology::ThreeTier,
            &format!("fig10_threetier_{tag}"),
            1,
            8192,
            accesses,
        ));
    }
    // Same fleet at 1 and at FLEET_THREADS threads: thread-count changes the
    // wall clock, never the digest (tests/determinism.rs proves the latter).
    let (tenants, millis) = if quick { (64, 5) } else { (256, 10) };
    let single = bench_fleet(tenants, millis, 1);
    let mut multi = bench_fleet(tenants, millis, FLEET_THREADS);
    let speedup = if single.ops_per_sec() > 0.0 {
        multi.ops_per_sec() / single.ops_per_sec()
    } else {
        1.0
    };
    multi.extra.push(("speedup_vs_1thread", speedup));
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("  {}", fleet_scaling_verdict(speedup, cpus));
    out.push(single);
    out.push(multi);
    out
}

/// The fleet rows' thread-scaling verdict, reported next to the results
/// rather than asserted: a slow fleet row is a finding to read, not a
/// reason to abort the suite. The ≥2× expectation only holds where the host
/// can run all [`FLEET_THREADS`] workers in parallel; with fewer CPUs the
/// scoped pool pays its synchronization cost with little to parallelize
/// onto, so the row is recorded but not judged.
pub fn fleet_scaling_verdict(speedup: f64, cpus: usize) -> String {
    let head =
        format!("fleet speedup {speedup:.2}x at {FLEET_THREADS} threads on a {cpus}-cpu host");
    if cpus < FLEET_THREADS {
        format!("{head}: not judged (fewer cpus than threads)")
    } else if speedup >= 2.0 {
        format!("{head}: ok (>= 2x)")
    } else {
        format!("{head}: BELOW the 2x expectation")
    }
}

// ----- substrate microbenchmarks ------------------------------------------

/// Times `body` and wraps the result.
fn timed<F: FnMut() -> u64>(name: &str, unit: &'static str, mut body: F) -> BenchResult {
    // lint:allow(wall-clock) microbenchmark timing
    let start = Instant::now();
    let ops = body();
    // lint:allow(timestamp-cast) elapsed ns fit u64 for any realistic run
    let host_nanos = start.elapsed().as_nanos() as u64;
    BenchResult {
        name: name.to_string(),
        unit,
        ops,
        host_nanos,
        extra: Vec::new(),
    }
}

/// A small system with every page of one process demand-mapped.
fn mapped_system(pages: u32) -> (TieredSystem, ProcessId) {
    let mut sys = TieredSystem::new(SystemConfig::quarter_fast(pages + pages / 4));
    let pid = sys.add_process(pages, PageSize::Base);
    for v in 0..pages {
        sys.access(pid, Vpn(v), true);
    }
    (sys, pid)
}

/// Demand/hint fault path: every access takes a `PROT_NONE` hint fault, the
/// per-access cost Ticking-scan and NUMA balancing pay on poisoned PTEs.
fn bench_fault_path(rounds: u32) -> BenchResult {
    let pages = 2048;
    let (mut sys, pid) = mapped_system(pages);
    timed("hint_fault_path", "access", || {
        let mut ops = 0u64;
        for _ in 0..rounds {
            for v in 0..pages {
                let e = sys.process_mut(pid).space.entry_mut(Vpn(v));
                e.flags.set(PageFlags::PROT_NONE);
                sys.access(pid, Vpn(v), false);
                ops += 1;
            }
        }
        ops
    })
}

/// Ticking-scan `walk_range` sweep over a fully mapped space; ops count base
/// pages of scan progress (the budgeted unit).
fn bench_walk_range(rounds: u32) -> BenchResult {
    let pages = 32_768;
    let (mut sys, pid) = mapped_system(pages);
    timed("walk_range_sweep", "page", || {
        let mut cursor = Vpn(0);
        let mut visited = 0u64;
        let step = 4096;
        for _ in 0..rounds * (pages / step) {
            cursor = sys.process_mut(pid).space.walk_range(cursor, step, |_, e| {
                if e.flags.has(PageFlags::ACCESSED) {
                    e.flags.clear(PageFlags::ACCESSED);
                } else {
                    e.flags.set(PageFlags::ACCESSED);
                }
            });
            visited += step as u64;
        }
        visited
    })
}

/// Heat-map maintenance: the DCSC cadence of sample adds with periodic
/// decay + overlap identification (one decay/overlap per 1024 adds).
fn bench_heatmap(samples: u64) -> BenchResult {
    use chrono_core::heatmap::{identify_overlap, HeatMap};
    let mut fast = HeatMap::new(28);
    let mut slow = HeatMap::new(28);
    let mut rng = DetRng::seed(0xBEC);
    timed("heatmap_add_decay_overlap", "sample", || {
        let mut sink = 0.0f64;
        for i in 0..samples {
            let b = rng.below(32) as usize;
            if i % 2 == 0 {
                fast.add(b, 1.0);
            } else {
                slow.add(b, 1.0);
            }
            if i % 1024 == 1023 {
                fast.decay(0.98);
                slow.decay(0.98);
                let o = identify_overlap(&fast, &slow, 4096.0);
                sink += o.misplaced_slow_pages;
            }
        }
        // Keep the accumulated result observable so the loop cannot be
        // optimized away.
        std::hint::black_box(sink);
        samples
    })
}

/// LRU rotation: tail-insert + head-pop cycles with the stamp-validation
/// pattern `age_active_list` / reclaim use.
fn bench_lru_rotation(rotations: u64) -> BenchResult {
    let mut lists = LruLists::new();
    let span = 4096u32;
    for v in 0..span {
        lists.push(
            LruKind::Active,
            LruEntry {
                pid: ProcessId(0),
                vpn: Vpn(v),
                stamp: 0,
            },
        );
    }
    timed("lru_rotation", "rotation", || {
        let mut live = 0u64;
        for _ in 0..rotations {
            let e = lists.pop(LruKind::Active).expect("list cycles");
            // Stamp check mirrors the lazy-deletion validation in the system.
            if e.stamp == 0 {
                live += 1;
            }
            lists.push(LruKind::Active, e);
        }
        std::hint::black_box(live);
        rotations
    })
}

/// Invariant-oracle sweep over a mapped system (the per-step cost the
/// fuzzing harness pays with the oracle attached).
fn bench_oracle_sweep(sweeps: u64) -> BenchResult {
    let (sys, _pid) = mapped_system(2048);
    let mut oracle = InvariantOracle::new();
    timed("oracle_sweep", "sweep", || {
        let mut clean = 0u64;
        for _ in 0..sweeps {
            if oracle.check(&sys).is_empty() {
                clean += 1;
            }
        }
        assert_eq!(clean, sweeps, "oracle found violations in a benign system");
        sweeps
    })
}

/// The substrate suite: ns/op for the five hot paths.
pub fn run_substrate_suite(quick: bool) -> Vec<BenchResult> {
    let k = if quick { 1 } else { 8 };
    vec![
        bench_fault_path(4 * k),
        bench_walk_range(16 * k),
        bench_heatmap(200_000 * k as u64),
        bench_lru_rotation(500_000 * k as u64),
        bench_oracle_sweep(25 * k as u64),
    ]
}

// ----- JSON rendering ------------------------------------------------------

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Stable short form: enough digits to round-trip a throughput.
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

/// Renders one suite as the committed JSON document.
pub fn render_json(suite: &str, quick: bool, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"machine\": {\n");
    out.push_str(&format!("    \"arch\": \"{}\",\n", std::env::consts::ARCH));
    out.push_str(&format!("    \"os\": \"{}\",\n", std::env::consts::OS));
    out.push_str(&format!(
        "    \"cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!(
        "    \"profile\": \"{}\"\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    out.push_str("  },\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"unit\": \"{}\",\n", r.unit));
        out.push_str(&format!("      \"ops\": {},\n", r.ops));
        out.push_str(&format!(
            "      \"host_ms\": {},\n",
            json_f64(r.host_nanos as f64 / 1e6)
        ));
        out.push_str(&format!(
            "      \"ns_per_op\": {},\n",
            json_f64(r.ns_per_op())
        ));
        for (k, v) in &r.extra {
            out.push_str(&format!("      \"{k}\": {},\n", json_f64(*v)));
        }
        out.push_str(&format!(
            "      \"ops_per_sec\": {}\n",
            json_f64(r.ops_per_sec())
        ));
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ----- minimal JSON field extraction for --check ---------------------------

/// Extracts the string value of `"key": "..."` after `from` in `text`.
fn find_string(text: &str, key: &str, from: usize) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the numeric value of `"key": N` after `from` in `text`.
fn find_number(text: &str, key: &str, from: usize) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One committed baseline entry.
struct CommittedEntry {
    name: String,
    ops_per_sec: f64,
    ns_per_op: f64,
    /// Reduced-scale reference recorded alongside the full run, if present.
    /// `--check` gates against this: quick runs carry a systematically
    /// larger cold-start fraction, so comparing them against full-scale
    /// throughput would conflate scale with regression.
    quick_ops_per_sec: Option<f64>,
}

/// The committed baseline of one suite. Fails with a message if the schema
/// tag is wrong or absent.
fn parse_committed(suite: &str, text: &str) -> Result<Vec<CommittedEntry>, String> {
    match find_string(text, "schema", 0) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema is {s:?}, expected {SCHEMA:?}")),
        None => return Err("missing \"schema\" field".to_string()),
    }
    match find_string(text, "suite", 0) {
        Some(s) if s == suite => {}
        other => return Err(format!("suite tag {other:?} does not match {suite:?}")),
    }
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("\"name\":") {
        let at = from + pos;
        // Optional fields must be looked up within this entry's block only,
        // or a missing key would silently pick up the next entry's value.
        let end = text[at + 7..]
            .find("\"name\":")
            .map(|p| at + 7 + p)
            .unwrap_or(text.len());
        let block = &text[at..end];
        let name = find_string(block, "name", 0).ok_or("unreadable result name")?;
        let ops_per_sec =
            find_number(block, "ops_per_sec", 0).ok_or(format!("{name}: missing ops_per_sec"))?;
        let ns_per_op =
            find_number(block, "ns_per_op", 0).ok_or(format!("{name}: missing ns_per_op"))?;
        let quick_ops_per_sec = find_number(block, "quick_ops_per_sec", 0);
        out.push(CommittedEntry {
            name,
            ops_per_sec,
            ns_per_op,
            quick_ops_per_sec,
        });
        from = at + "\"name\":".len();
    }
    if out.is_empty() {
        return Err("no results in committed file".to_string());
    }
    Ok(out)
}

/// Compares fresh results against the committed file of `suite`. Only the
/// end-to-end throughput entries gate (microbenchmark ns/op is reported but
/// informational: it is too machine-sensitive for a hard CI bound).
fn check_suite(suite: &str, fresh: &[BenchResult]) -> Result<(), String> {
    let path = bench_path(suite);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let committed = parse_committed(suite, &text)?;
    let mut failures = Vec::new();
    for r in fresh {
        let Some(entry) = committed.iter().find(|e| e.name == r.name) else {
            failures.push(format!("{}: not present in committed baseline", r.name));
            continue;
        };
        // Gate against the committed quick-mode reference when the file has
        // one — `--check` runs at reduced scale, and quick throughput is
        // systematically below full-scale throughput (the cold-start
        // fraction is ~12× larger), not a regression.
        let base_ops_per_sec = entry.quick_ops_per_sec.unwrap_or(entry.ops_per_sec);
        let fresh_ops_per_sec = r.ops_per_sec();
        let ratio = if base_ops_per_sec > 0.0 {
            fresh_ops_per_sec / base_ops_per_sec
        } else {
            1.0
        };
        let gated = suite == "fig10";
        println!(
            "  {:28} {:>12.0} ops/s (baseline {:>12.0}{}, {:+.1} %){}",
            r.name,
            fresh_ops_per_sec,
            base_ops_per_sec,
            if entry.quick_ops_per_sec.is_some() {
                " quick-ref"
            } else {
                ""
            },
            (ratio - 1.0) * 100.0,
            if gated { "" } else { "  [informational]" }
        );
        let _ = entry.ns_per_op;
        if gated && ratio < 1.0 - REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}: throughput regressed {:.1} % (> {:.0} % tolerance)",
                r.name,
                (1.0 - ratio) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

// ----- CLI entry -----------------------------------------------------------

fn plural(unit: &str) -> String {
    match unit {
        "access" => "accesses".to_string(),
        u => format!("{u}s"),
    }
}

const USAGE: &str = "usage: harness bench [--quick] [--check] [--suite fig10|substrate]";

/// `harness bench [--quick] [--check] [--suite fig10|substrate]`.
///
/// Default: run both suites and (re)write `BENCH_fig10.json` and
/// `BENCH_substrate.json` at the repository root. With `--check`, run the
/// quick suites and diff against the committed files instead of writing.
/// `--quick` without `--check` is a usage error (exit 2).
pub fn run_bench(mut args: Vec<String>) -> i32 {
    let quick = take_bool_flag(&mut args, "--quick");
    let check = take_bool_flag(&mut args, "--check");
    let suite = take_flag(&mut args, "--suite", "fig10 or substrate", |v| {
        Some(v.to_string())
    });
    let suite_filter = match suite {
        Ok(suite) => suite,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return 2;
        }
    };
    if let Some(bad) = args.first() {
        eprintln!("unknown bench argument '{bad}'\n{USAGE}");
        return 2;
    }
    if let Some(s) = &suite_filter {
        if s != "fig10" && s != "substrate" {
            eprintln!("unknown suite '{s}' (expected fig10 or substrate)");
            return 2;
        }
    }
    if quick && !check {
        // Writing quick numbers would overwrite the committed full-mode
        // baselines that `--check` compares against.
        eprintln!("--quick only runs with --check (it would overwrite the full-mode BENCH_*.json)");
        eprintln!("{USAGE}");
        return 2;
    }
    let want = |s: &str| suite_filter.as_deref().map(|f| f == s).unwrap_or(true);
    let mut failed = false;

    for suite in ["fig10", "substrate"] {
        if !want(suite) {
            continue;
        }
        // --check always runs the reduced scale: it is the CI smoke gate.
        println!(
            "bench suite {suite} ({} mode)...",
            if check { "quick" } else { "full" }
        );
        let mut results = if suite == "fig10" {
            run_fig10_suite(check)
        } else {
            run_substrate_suite(check)
        };
        for r in &results {
            println!(
                "  {:28} {:>10} {} in {:>8.1} ms  ({:.1} ns/{}, {:.0} ops/s)",
                r.name,
                r.ops,
                plural(r.unit),
                r.host_nanos as f64 / 1e6,
                r.ns_per_op(),
                r.unit,
                r.ops_per_sec()
            );
        }
        if check {
            // Wall-clock noise on shared CI hosts can dwarf the tolerance,
            // so the gated suite gets up to three attempts, keeping each
            // entry's best observed throughput (noise only ever slows a
            // run): a genuine >25 % regression fails every measurement, a
            // noisy neighbour does not.
            let mut attempt = 1;
            loop {
                match check_suite(suite, &results) {
                    Ok(()) => {
                        println!("  {suite}: ok against committed baseline");
                        break;
                    }
                    Err(_) if suite == "fig10" && attempt < 3 => {
                        println!("  {suite}: attempt {attempt} over tolerance; re-running");
                        attempt += 1;
                        for fresh in run_fig10_suite(true) {
                            if let Some(r) = results.iter_mut().find(|r| r.name == fresh.name) {
                                if fresh.ops_per_sec() > r.ops_per_sec() {
                                    *r = fresh;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("bench check FAILED for {suite}:\n{e}");
                        failed = true;
                        break;
                    }
                }
            }
        } else {
            if suite == "fig10" {
                // Embed a quick-mode reference next to each full-scale
                // number: `--check` runs at quick scale, whose throughput is
                // systematically below full scale (the cold-start fraction
                // is ~12× larger), so the gate must compare like with like.
                println!("  measuring quick-mode reference for --check...");
                for q in run_fig10_suite(true) {
                    if let Some(r) = results.iter_mut().find(|r| r.name == q.name) {
                        r.extra.push(("quick_ops_per_sec", q.ops_per_sec()));
                    }
                }
            }
            let path = bench_path(suite);
            let doc = render_json(suite, false, &results);
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("cannot write {}: {e}", path.display());
                return 2;
            }
            println!("  wrote {}", path.display());
        }
    }
    if failed {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Vec<BenchResult> {
        vec![
            BenchResult {
                name: "fig10_profile_chrono_dcsc".to_string(),
                unit: "access",
                ops: 1_000_000,
                host_nanos: 500_000_000,
                extra: vec![
                    ("migrated_pages", 42.0),
                    ("sim_throughput", 1e7),
                    ("quick_ops_per_sec", 1_500_000.0),
                ],
            },
            BenchResult {
                name: "fig10_multi_tpp".to_string(),
                unit: "access",
                ops: 2_000_000,
                host_nanos: 250_000_000,
                extra: vec![],
            },
        ]
    }

    #[test]
    fn rates_are_consistent() {
        let r = &sample_results()[0];
        assert!((r.ns_per_op() - 500.0).abs() < 1e-9);
        assert!((r.ops_per_sec() - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn rendered_json_round_trips_through_the_checker() {
        let doc = render_json("fig10", false, &sample_results());
        let parsed = parse_committed("fig10", &doc).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "fig10_profile_chrono_dcsc");
        assert!((parsed[0].ops_per_sec - 2_000_000.0).abs() < 1.0);
        assert!((parsed[0].ns_per_op - 500.0).abs() < 1e-6);
        assert!((parsed[1].ops_per_sec - 8_000_000.0).abs() < 1.0);
        // The quick-mode reference rides in `extra` and must survive the
        // round trip — the gate compares against it when present.
        assert!((parsed[0].quick_ops_per_sec.expect("quick ref") - 1_500_000.0).abs() < 1.0);
        assert_eq!(parsed[1].quick_ops_per_sec, None);
    }

    #[test]
    fn checker_rejects_bad_schema() {
        let doc = render_json("fig10", false, &sample_results()).replace(SCHEMA, "other/v0");
        assert!(parse_committed("fig10", &doc).is_err());
        let doc = render_json("substrate", false, &sample_results());
        assert!(parse_committed("fig10", &doc).is_err(), "suite tag differs");
    }

    #[test]
    fn checker_rejects_empty_results() {
        let doc = render_json("fig10", false, &[]);
        assert!(parse_committed("fig10", &doc).is_err());
    }

    #[test]
    fn quick_substrate_suite_runs() {
        // Tiny end-to-end sanity pass over every microbench body: each must
        // complete and report nonzero ops (host time may round to zero on
        // very fast machines, so only ops are asserted).
        for r in [
            bench_fault_path(1),
            bench_heatmap(2048),
            bench_lru_rotation(1000),
            bench_oracle_sweep(1),
        ] {
            assert!(r.ops > 0, "{} did nothing", r.name);
        }
    }

    #[test]
    fn fleet_scaling_is_judged_only_with_enough_cpus() {
        let ungated = fleet_scaling_verdict(1.07, FLEET_THREADS - 1);
        assert!(
            ungated.ends_with("not judged (fewer cpus than threads)"),
            "{ungated}"
        );
        assert!(fleet_scaling_verdict(2.4, FLEET_THREADS).ends_with("ok (>= 2x)"));
        let slow = fleet_scaling_verdict(1.69, FLEET_THREADS);
        assert!(slow.ends_with("BELOW the 2x expectation"), "{slow}");
        assert!(
            slow.starts_with("fleet speedup 1.69x at 4 threads"),
            "{slow}"
        );
    }

    #[test]
    fn quick_without_check_is_a_usage_error() {
        // Refused before any suite runs, so no BENCH_*.json is touched.
        let before = std::fs::read(bench_path("fig10")).ok();
        for args in [&["--quick"][..], &["--quick", "--suite", "substrate"][..]] {
            let args = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(run_bench(args), 2);
        }
        assert_eq!(std::fs::read(bench_path("fig10")).ok(), before);
    }

    #[test]
    fn suite_without_a_value_is_a_usage_error() {
        // Refused before any suite runs, so neither BENCH_*.json is touched.
        let files = || ["fig10", "substrate"].map(|s| std::fs::read(bench_path(s)).ok());
        let before = files();
        for args in [&["--suite"][..], &["--check", "--suite"][..]] {
            let args = args.iter().map(|a| a.to_string()).collect();
            assert_eq!(run_bench(args), 2);
        }
        assert_eq!(files(), before);
    }

    #[test]
    fn units_pluralize() {
        assert_eq!(plural("access"), "accesses");
        assert_eq!(plural("sweep"), "sweeps");
    }

    #[test]
    fn bench_paths_land_at_the_repo_root() {
        let p = bench_path("fig10");
        assert!(p.ends_with("BENCH_fig10.json"));
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
