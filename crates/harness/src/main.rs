//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! harness [--scale N] [--json DIR] [--trace DIR]
//!         [--inflight-slots N] [--migration-backlog-cap MS]
//!         [--fault-plan canonical|storm|inert|canonical3|storm3] [--fault-seed X]
//!         [--topology dram-pmem|dram-cxl|three-tier]
//!         <experiment-id>...
//! harness list
//! harness all
//! harness verify [--bless]
//! harness fuzz [--seeds N] [--ops N] [--seed-base X] [--replay SEED]
//!              [--self-test] [--migration-stress] [--fault-storm]
//!              [--tenant-storm] [--three-tier] [--tier-chaos]
//! harness run --tenants N [--threads T] [--policy NAME] [--millis MS]
//!             [--seed X] [--slots N] [--topology NAME]
//! harness lint [--all] [--rules]
//! harness model-check [--bless]
//! harness race-check [--bless]
//! harness bench [--quick] [--check] [--suite fig10|substrate]
//! ```
//!
//! `--scale`, `--inflight-slots`, `--migration-backlog-cap`, `--fault-plan`,
//! `--fault-seed` and `--topology` shape every experiment run and nothing
//! else. A subcommand given one of the first five exits 2 rather than
//! ignore it. So does every subcommand but `bench`, whose runs the sink
//! writes, given the sink flags `--json DIR` / `--trace DIR`.
//!
//! `--inflight-slots` / `--migration-backlog-cap` bound the two-phase
//! migration engine (transactions in flight / queued copy milliseconds per
//! destination channel); past either bound policies see
//! `MigrateError::Backpressure`.
//!
//! `--topology` picks the tier chain every experiment system is built on:
//! `dram-pmem` (default) is the paper's two-tier testbed, `dram-cxl` swaps
//! the Optane bottom tier for symmetric CXL memory, and `three-tier` runs
//! the DRAM+CXL+PMem chain with cascaded per-edge migration. The Chrono
//! variants come back as a [`harness::Topology`]-aware cascade and
//! TPP / Multi-Clock as their hop-wise generalizations on chains longer
//! than two tiers. The other five baselines (Linux-NB, Auto-Tiering,
//! FlexMem, Memtis, Telescope) have no chain-aware variant: they promote
//! only out of tier 1 and demote only tier 0 → tier 1, so on three tiers a
//! page first touched into the bottom tier stays there for the whole run.
//! Fig 10's profile and sensitivity runs and Fig 11b keep a two-tier
//! Chrono pair on every chain.
//!
//! `--fault-plan` attaches a deterministic fault-injection plan to every
//! experiment run: `canonical` is the paper's resilience scenario (1%
//! transient copy faults, 0.01% poison, one mid-run 25% fast-tier shrink),
//! `storm` is the high-rate fuzzing mix, `inert` wires the machinery up with
//! zero probabilities, and `canonical3`/`storm3` add the tier failure-domain
//! arc (mid-run degrade → offline with live evacuation → rejoin) on the
//! three-tier chain — both are rejected unless `--topology three-tier` is
//! selected, since they schedule events on tiers a two-tier chain does not
//! have. `--fault-seed` seeds the fault dice independently of
//! the workload (default 0xFA17); same plan + same seed replays the exact
//! same fault sequence.
//!
//! `--json DIR` writes per-scan-period counter rows (JSON + CSV) for every
//! run; `--trace DIR` additionally dumps the bounded discrete-event ring as
//! JSON Lines. Both are off by default and cost nothing when unset.

use std::path::PathBuf;
use std::time::Instant;

use harness::experiments::{run_by_id, EXPERIMENTS};
use harness::{
    analysis, bench, parse_u64, sink, take_flag, tenants, verify, FaultPlanKind, Scale, Topology,
};

/// A subcommand's entry point: its own arguments in, the exit code out.
type Entry = fn(Vec<String>) -> i32;

/// The subcommands; each parses its own flags and none reads the
/// experiment [`Scale`]. The first three take `--json` as their own flag.
const SUBCOMMANDS: [(&str, Entry); 7] = [
    ("lint", analysis::run_lint),
    ("model-check", analysis::run_model_check),
    ("race-check", analysis::run_race_check),
    ("verify", verify::run_verify),
    ("fuzz", verify::run_fuzz),
    ("bench", bench::run_bench),
    ("run", tenants::run_tenants),
];

/// The subcommand `args` starts with, if any.
fn subcommand(args: &[String]) -> Option<(&'static str, Entry)> {
    let first = args.first()?;
    SUBCOMMANDS.into_iter().find(|(name, _)| first == name)
}

/// A parsed command line.
#[derive(Debug)]
struct Cli {
    /// The scale every experiment run is built at.
    scale: Scale,
    /// `--json` / `--trace` sink directories (not yet created).
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    /// A subcommand and its own flags, or the experiment ids.
    args: Vec<String>,
}

/// The flags that shape the experiment [`Scale`].
const KNOBS: [&str; 5] = [
    "--scale",
    "--inflight-slots",
    "--migration-backlog-cap",
    "--fault-plan",
    "--fault-seed",
];

/// Parses the global flags. A flag that the chosen subcommand would drop is
/// an error, as is a fault plan that does not fit the topology.
fn parse(mut args: Vec<String>) -> Result<Cli, String> {
    let knob = KNOBS.into_iter().find(|k| args.iter().any(|a| a == k));
    let mut scale = Scale::default_scale();
    let positive = |v: &str| v.parse().ok().filter(|&n: &u64| n > 0);
    if let Some(n) = take_flag(&mut args, "--scale", "a positive integer", positive)? {
        scale = scale.with_run_multiplier(n);
    }
    let mut migration = tiered_mem::MigrationSpec::default();
    let want = "a positive integer";
    let slots = take_flag(&mut args, "--inflight-slots", want, positive)?;
    let want = "milliseconds (integer)";
    let cap = take_flag(&mut args, "--migration-backlog-cap", want, |v| {
        v.parse().ok()
    })?;
    if let Some(n) = slots {
        migration.inflight_slots = n as usize;
    }
    if let Some(ms) = cap {
        migration.backlog_cap = sim_clock::Nanos::from_millis(ms);
    }
    if slots.is_some() || cap.is_some() {
        scale.migration = Some(migration);
    }
    let plans = "one of: canonical, storm, inert, canonical3, storm3";
    scale.fault = take_flag(&mut args, "--fault-plan", plans, FaultPlanKind::parse)?;
    let seed = take_flag(&mut args, "--fault-seed", "an integer", parse_u64)?;
    scale.fault_seed = seed.unwrap_or(scale.fault_seed);

    let dir = |v: &str| Some(PathBuf::from(v));
    let json = take_flag(&mut args, "--json", "a directory argument", dir)?;
    let trace = take_flag(&mut args, "--trace", "a directory argument", dir)?;
    let mut cli = Cli {
        scale,
        json,
        trace,
        args,
    };
    if let Some((sub, _)) = subcommand(&cli.args) {
        // `bench` drives its runs through the runner, so the sink does
        // write them.
        let sink = [(&cli.json, "--json"), (&cli.trace, "--trace")]
            .into_iter()
            .find(|(dir, _)| dir.is_some() && sub != "bench");
        if let Some(flag) = knob.or(sink.map(|(_, f)| f)) {
            return Err(format!(
                "{flag} applies to experiment runs only; `harness {sub}` would ignore it"
            ));
        }
        // `run` and `fuzz` own their own topology spellings.
        return Ok(cli);
    }

    let shapes = "one of: dram-pmem, dram-cxl, three-tier";
    if let Some(t) = take_flag(&mut cli.args, "--topology", shapes, Topology::parse)? {
        cli.scale.topology = t;
        if let Some((sub, _)) = subcommand(&cli.args) {
            return Err(format!(
                "--topology in front of `harness {sub}` is an experiment knob it would ignore"
            ));
        }
    }
    // A fault plan may only reference tiers the chosen topology has:
    // `canonical3`/`storm3` schedule mid- and bottom-tier events, so a
    // two-tier chain must reject them up front rather than silently
    // dropping the events.
    if let Some(kind) = cli.scale.fault {
        let topology = cli.scale.topology;
        if let Err(e) = kind.validate_for_topology(topology.num_tiers()) {
            return Err(format!(
                "--fault-plan {} does not fit --topology {}: {e}",
                kind.name(),
                topology.name()
            ));
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse(std::env::args().skip(1).collect()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    for dir in [&cli.json, &cli.trace].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {}", dir.display(), e);
            std::process::exit(2);
        }
    }
    sink::configure(cli.json, cli.trace);
    let (scale, mut args) = (cli.scale, cli.args);
    if let Some((_, entry)) = subcommand(&args) {
        std::process::exit(entry(args.split_off(1)));
    }

    if args.is_empty() || args[0] == "list" {
        println!("Available experiments:");
        for (id, desc) in EXPERIMENTS {
            println!("  {:8} {}", id, desc);
        }
        println!("  {:8} run every experiment", "all");
        println!(
            "  {:8} determinism + metamorphic + golden checks [--bless]",
            "verify"
        );
        println!(
            "  {:8} invariant fuzzing [--seeds N] [--ops N] [--replay SEED] [--migration-stress] [--fault-storm] [--tenant-storm] [--three-tier] [--tier-chaos]",
            "fuzz"
        );
        println!(
            "  {:8} multi-tenant fleet --tenants N [--threads T] [--policy NAME] [--millis MS] [--topology NAME]",
            "run"
        );
        println!(
            "  {:8} chrono-lint static analysis [--all] [--rules]",
            "lint"
        );
        println!(
            "  {:8} exhaustive PageFlags lifecycle check [--bless]",
            "model-check"
        );
        println!(
            "  {:8} chrono-race barrier discipline: static + interleaving model + self-test [--bless]",
            "race-check"
        );
        println!(
            "  {:8} perf suites -> BENCH_*.json [--quick] [--check] [--suite fig10|substrate]",
            "bench"
        );
        return;
    }

    // A family name expands to its members: `fig10` runs fig10a..fig10d,
    // `fig2` runs fig2a+fig2b. Exact ids always win over prefix expansion.
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        let mut ids = Vec::new();
        for arg in &args {
            if EXPERIMENTS.iter().any(|(id, _)| id == arg) {
                ids.push(arg.as_str());
                continue;
            }
            let family: Vec<&str> = EXPERIMENTS
                .iter()
                .map(|(id, _)| *id)
                .filter(|id| id.starts_with(arg.as_str()))
                .collect();
            if family.is_empty() {
                ids.push(arg.as_str()); // falls through to the unknown-id error
            } else {
                ids.extend(family);
            }
        }
        ids
    };

    for id in ids {
        let start = Instant::now();
        sink::set_experiment(id);
        match run_by_id(id, &scale) {
            Some(output) => {
                println!("{}", output);
                eprintln!("[{} finished in {:.1?}]", id, start.elapsed());
            }
            None => {
                eprintln!("unknown experiment '{}'; try `harness list`", id);
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(line: &str) -> String {
        let args = line.split_whitespace().map(String::from).collect();
        parse(args).expect_err(line)
    }

    #[test]
    fn subcommands_refuse_experiment_knobs() {
        let knobs = [
            "--scale 2",
            "--inflight-slots 1",
            "--migration-backlog-cap 5",
            "--fault-plan storm",
            "--fault-seed 0x1",
        ];
        for (sub, _) in SUBCOMMANDS {
            for knob in knobs {
                let flag = knob.split(' ').next().expect("flag");
                for line in [format!("{knob} {sub}"), format!("{sub} {knob}")] {
                    let msg = refusal(&line);
                    assert!(msg.contains(flag) && msg.contains(sub), "{line}: {msg}");
                }
            }
        }
        let msg = refusal("run --tenants 4 --millis 5 --threads 1 --fault-plan storm");
        assert!(msg.contains("--fault-plan"), "{msg}");
        let msg = refusal("--topology three-tier run --tenants 4");
        assert!(msg.contains("--topology"), "{msg}");
    }

    #[test]
    fn subcommands_but_bench_refuse_the_sink() {
        for (flag, line) in [
            ("--json", "--json out run --tenants 4 --millis 5"),
            ("--trace", "run --tenants 4 --millis 5 --trace out"),
            ("--json", "--json out verify"),
            ("--json", "verify --json out"),
            ("--trace", "--trace out fuzz --seeds 2"),
            ("--json", "fuzz --seeds 2 --json out"),
            ("--json", "--json out lint"),
            ("--json", "lint --json out"),
            ("--trace", "--trace out race-check"),
        ] {
            let msg = refusal(line);
            assert!(msg.contains(flag), "{line}: {msg}");
        }
    }

    #[test]
    fn scale_zero_is_refused() {
        assert!(refusal("--scale 0 fig1").contains("--scale requires a positive integer"));
    }

    #[test]
    fn experiment_runs_and_subcommand_flags_still_parse() {
        let ok = |line: &str| parse(line.split_whitespace().map(String::from).collect());
        let cli = ok("--scale 2 --fault-plan canonical --json out --topology dram-cxl fig1")
            .expect("experiment run");
        assert_eq!(cli.args, ["fig1"]);
        assert_eq!(cli.scale.topology, Topology::DramCxl);
        assert_eq!(cli.json, Some(PathBuf::from("out")));
        assert_eq!(ok("lint --all").expect("lint").args, ["lint", "--all"]);
        assert!(ok("--json out bench --quick").is_ok());
        assert!(ok("run --topology three-tier").is_ok());
        assert!(ok("--fault-plan canonical3 fig1").is_err());
    }
}
