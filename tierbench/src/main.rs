//! `tierbench`: the repository benchmark.
//!
//! ```text
//! tierbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! tierbench --workload NAME --holdout
//! tierbench --workload NAME --sensitivity [--seed N]
//! ```
//!
//! The measured run prints its layer notes and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics: the end-to-end set with `--trace 0`, the per-layer set
//! with `--trace 1`.

use std::process::ExitCode;

use tierbench::report::result_line;
use tierbench::run::{holdout, measure, sensitivity};
use tierbench::scenario::{Size, WorkloadId};

struct Args {
    workload: WorkloadId,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    holdout: bool,
    sensitivity: bool,
}

fn parse(mut argv: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<Option<String>, String> {
        let Some(pos) = argv.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let v = argv
            .get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        argv.drain(pos..=pos + 1);
        Ok(Some(v))
    };
    let number = |flag: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} needs a whole number, got '{v}'"))
    };
    let names = WorkloadId::ALL.map(WorkloadId::name).join(", ");
    let workload = take("--workload")?.ok_or(format!("--workload is required ({names})"))?;
    let workload = WorkloadId::parse(&workload)
        .ok_or_else(|| format!("unknown workload '{workload}' (one of {names})"))?;
    let seed = take("--seed")?.map(|v| number("--seed", v)).transpose()?;
    let seconds = take("--seconds")?
        .map(|v| number("--seconds", v))
        .transpose()?
        .unwrap_or(10);
    let trace = match take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, got '{v}'")),
    };
    let mut flag = |name: &str| match argv.iter().position(|a| a == name) {
        Some(pos) => {
            argv.remove(pos);
            true
        }
        None => false,
    };
    let holdout = flag("--holdout");
    let sensitivity = flag("--sensitivity");
    if let Some(extra) = argv.first() {
        return Err(format!("unknown argument '{extra}'"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        holdout,
        sensitivity,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tierbench: {e}");
            return ExitCode::from(2);
        }
    };
    let id = args.workload;
    let seed = args.seed.unwrap_or(id.seeds().0);
    // The fleet steps its shards on every CPU the host offers.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.sensitivity {
        let ok = sensitivity(id, seed, threads);
        println!(
            "sensitivity {}: {}",
            id.name(),
            if ok { "pass" } else { "FAIL" }
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.holdout {
        let checks = holdout(id, threads);
        for f in &checks.failures {
            println!("check failed: {f}");
        }
        return if checks.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let out = measure(id, seed, Size::full(id), args.seconds, args.trace, threads);
    for f in out.checks.failures.iter().take(20) {
        println!("check failed: {f}");
    }
    let failed = out.checks.failures.len() as u64;
    println!(
        "{}",
        result_line(failed == 0, out.checks.attempted, failed, &out.metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
