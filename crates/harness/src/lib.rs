#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the Chrono
//! paper's evaluation (Section 5) on the simulation substrate.
//!
//! Each `experiments::figN` module builds the workload/system configuration
//! of the corresponding paper artifact (scaled per DESIGN.md §1), runs every
//! policy, and renders the same rows/series the paper reports as plain-text
//! tables. The `harness` binary dispatches by experiment id:
//!
//! ```text
//! harness fig6            # regenerate Figure 6 (pmbench throughput)
//! harness all             # everything
//! harness --scale 4 fig9  # 4× longer simulated runs
//! ```

pub mod analysis;
pub mod bench;
pub mod experiments;
pub mod runner;
pub mod sink;
pub mod tenants;
pub mod verify;

pub use runner::{FaultPlanKind, PolicyKind, Scale, StandardRun, Topology};

/// Removes `--flag` from a subcommand's `args`, reporting whether it was
/// present.
pub(crate) fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// Removes `flag <value>` from `args` and parses the value; `Ok(None)` when
/// the flag is absent, and an error naming the flag and `want` when the
/// value is missing or malformed.
pub fn take_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    want: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(pos + 1).and_then(|v| parse(v));
    let value = value.ok_or_else(|| format!("{flag} requires {want}"))?;
    args.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`.
pub fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}
