//! `harness lint`, `harness model-check`, and `harness race-check`: the CI
//! entry points into the `tiering-analysis` layer.
//!
//! ```text
//! harness lint [--all] [--rules]
//! harness model-check [--bless]
//! harness race-check [--bless]
//! ```
//!
//! `lint` runs chrono-lint over the workspace and fails on any finding not
//! waived inline (`--all` also prints the waived findings; `--rules` prints
//! the rule catalog). `model-check` enumerates the exact reachable `PageFlags`
//! lifecycle set, asserts every reachable state legal and every declared
//! transition live, and diffs the rendered reachability report against the
//! committed golden (`--bless` rewrites it); it then does the same for the
//! tier failure-domain lifecycle model (own golden, plus the injected
//! `Offline`-with-residency self-test, which must be caught or the checker
//! itself is broken). `race-check` is the chrono-race
//! gate: the exhaustive shard-interleaving exploration (convergence +
//! slot-flow conservation on every schedule, diffed against its golden)
//! plus the injected arrival-order-grants self-test, which must *fail* to
//! converge or the checker itself is broken.

use std::path::Path;

use tiering_analysis::{
    check_health_model, check_model, check_races, describe_health_state, golden_path,
    health_legality_rules, health_transitions, legality_rules, lint_workspace, race_configs,
    race_golden_path, render_health_report, render_race_report, render_report, tier_health,
    tier_health_golden_path, transitions, workspace_root, Finding, GrantRule, Transition, RULES,
};

use crate::take_bool_flag;

/// Writes `rendered` to `golden` under `--bless`, otherwise diffs it
/// against the committed file, printing the outcome either way. `cmd`
/// names the subcommand and `what` the rendered artifact in the messages.
/// Returns whether the golden matched (or was written); `Err` carries the
/// exit code of a failed bless write.
fn bless_or_diff(
    cmd: &str,
    what: &str,
    golden: &Path,
    rendered: &str,
    bless: bool,
) -> Result<bool, i32> {
    if bless {
        if let Some(dir) = golden.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(golden, rendered) {
            eprintln!("{cmd}: cannot write {}: {e}", golden.display());
            return Err(1);
        }
        println!("blessed {}", golden.display());
        return Ok(true);
    }
    match std::fs::read_to_string(golden) {
        Ok(committed) if committed == rendered => {
            println!("golden {} ok", golden.display());
            Ok(true)
        }
        Ok(_) => {
            println!(
                "golden {} DIFFERS from the computed {what}; \
                 inspect with `harness {cmd} --bless` + git diff",
                golden.display()
            );
            Ok(false)
        }
        Err(e) => {
            println!("golden {} unreadable ({e}); run --bless", golden.display());
            Ok(false)
        }
    }
}

/// The `--rules` catalog, one line per rule. Pure so the output-sync test
/// can hold it against [`RULES`].
pub fn render_rules() -> String {
    let mut out = String::new();
    for (name, what) in RULES {
        out.push_str(&format!("{name:20} {what}\n"));
    }
    out
}

/// `harness lint [--all] [--rules]`. Returns the process exit code.
pub fn run_lint(mut args: Vec<String>) -> i32 {
    let show_all = take_bool_flag(&mut args, "--all");
    let show_rules = take_bool_flag(&mut args, "--rules");
    if let Some(unknown) = args.first() {
        eprintln!("lint: unknown argument '{unknown}'");
        return 2;
    }
    if show_rules {
        print!("{}", render_rules());
        return 0;
    }

    let report = match lint_workspace(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: cannot scan workspace: {e}");
            return 1;
        }
    };

    let unwaived: Vec<&Finding> = report.unwaived().collect();
    for f in &report.findings {
        if show_all || f.waived == tiering_analysis::lint::Waived::No {
            println!("{f}");
        }
    }
    let waived = report.findings.len() - unwaived.len();
    println!(
        "lint: {} files, {} finding(s) ({} waived, {} unwaived)",
        report.files_scanned,
        report.findings.len(),
        waived,
        unwaived.len(),
    );
    i32::from(!unwaived.is_empty())
}

/// `harness model-check [--bless]`. Returns the process exit code.
pub fn run_model_check(mut args: Vec<String>) -> i32 {
    let bless = take_bool_flag(&mut args, "--bless");
    if let Some(unknown) = args.first() {
        eprintln!("model-check: unknown argument '{unknown}'");
        return 2;
    }

    let ts = transitions();
    let rules = legality_rules();
    let report = check_model(&ts, &rules);
    println!(
        "model-check: {} transitions, {} legality rules, {} reachable states",
        ts.len(),
        rules.len(),
        report.reachable.len()
    );

    let mut failed = false;
    for (s, rule) in &report.illegal {
        println!(
            "ILLEGAL reachable state {:05x} ({}) violates {rule}",
            s,
            tiered_mem::PageFlags::from_bits((s & tiered_mem::PageFlags::MASK as u32) as u16)
                .describe()
        );
        failed = true;
    }
    for name in &report.dead_transitions {
        println!("DEAD transition {name}: never fired from any reachable state");
        failed = true;
    }

    let rendered = render_report(&report);
    match bless_or_diff(
        "model-check",
        "reachable set",
        &golden_path(),
        &rendered,
        bless,
    ) {
        Ok(ok) => failed |= !ok,
        Err(code) => return code,
    }

    // Second pillar of the same gate: the tier failure-domain lifecycle
    // model, with its own golden and its own must-fail self-test.
    let hts = health_transitions();
    let hrules = health_legality_rules();
    let hreport = check_health_model(&hts, &hrules);
    println!(
        "model-check: tier-health: {} transitions, {} legality rules, {} reachable states",
        hts.len(),
        hrules.len(),
        hreport.reachable.len()
    );
    for (s, rule) in &hreport.illegal {
        println!(
            "ILLEGAL reachable tier state {:02x} ({}) violates {rule}",
            s,
            describe_health_state(*s)
        );
        failed = true;
    }
    for name in &hreport.dead_transitions {
        println!("DEAD tier-health transition {name}: never fired from any reachable state");
        failed = true;
    }

    let hrendered = render_health_report(&hreport);
    let hgolden = tier_health_golden_path();
    match bless_or_diff("model-check", "reachable set", &hgolden, &hrendered, bless) {
        Ok(ok) => failed |= !ok,
        Err(code) => return code,
    }

    // Self-test: a finish_offline that skips the drained-and-idle guard
    // must be caught as Offline-with-residency, or the checker is dead
    // weight.
    let mut buggy = health_transitions();
    buggy.push(Transition {
        name: "buggy_finish_offline_without_drain",
        apply: |s| {
            if tier_health::health_of(s) == tier_health::EVACUATING
                && tier_health::residency_of(s) > 0
            {
                vec![tier_health::pack(
                    tier_health::OFFLINE,
                    tier_health::residency_of(s),
                    tier_health::inflight_of(s),
                )]
            } else {
                vec![]
            }
        },
    });
    let injected = check_health_model(&buggy, &hrules);
    if injected
        .illegal
        .iter()
        .any(|(_, rule)| *rule == "offline_holds_nothing")
    {
        println!("model-check: tier-health self-test ok (Offline-with-residency caught)");
    } else {
        println!(
            "model-check: SELF-TEST FAILED — injected Offline-with-residency \
             transition was not detected"
        );
        failed = true;
    }

    if failed {
        eprintln!("model-check: FAILED");
        1
    } else {
        println!("model-check: reachable sets are legal and match the goldens");
        0
    }
}

/// `harness race-check [--bless]`. Runs the chrono-race pillar end to end:
/// the exhaustive interleaving exploration under the shipped tenant-id
/// grant rule (every schedule must converge and conserve slot flow, and
/// the rendered report must match the committed golden), then the
/// self-test under the injected arrival-order rule (which must be caught
/// as divergent — a checker that passes a known-racy protocol is broken).
/// The static race rules (`shared-state`/`rng-stream`/`barrier-phase`) are
/// part of `harness lint`, which ci.sh runs alongside this.
pub fn run_race_check(mut args: Vec<String>) -> i32 {
    let bless = take_bool_flag(&mut args, "--bless");
    if let Some(unknown) = args.first() {
        eprintln!("race-check: unknown argument '{unknown}'");
        return 2;
    }

    let configs = race_configs();
    let report = check_races(&configs, GrantRule::TenantId);
    let mut failed = false;
    for c in &report.configs {
        let schedules: u64 = c.windows.iter().map(|w| w.schedules).sum();
        println!(
            "race-check: config {}: {} schedules over {} windows, converged={}, {} conservation checks",
            c.name,
            schedules,
            c.windows.len(),
            c.converged,
            c.conservation_checks
        );
        if !c.converged {
            println!("  DIVERGED: some schedule reached a different post-barrier state");
            failed = true;
        }
        for v in &c.violations {
            println!("  SLOT-FLOW VIOLATION: {v}");
            failed = true;
        }
    }

    let rendered = render_race_report(&report);
    match bless_or_diff(
        "race-check",
        "exploration",
        &race_golden_path(),
        &rendered,
        bless,
    ) {
        Ok(ok) => failed |= !ok,
        Err(code) => return code,
    }

    // Self-test: the injected order-dependent grant rule must be caught.
    let injected = check_races(&configs, GrantRule::ArrivalOrder);
    if injected.ok() {
        println!(
            "race-check: SELF-TEST FAILED — injected arrival-order grants \
             were not detected as divergent"
        );
        failed = true;
    } else {
        println!("race-check: self-test ok (injected arrival-order grants caught)");
    }

    if failed {
        eprintln!("race-check: FAILED");
        1
    } else {
        println!("race-check: every schedule converges, slot flow conserved");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_catalog_rendering_stays_in_sync() {
        let rendered = render_rules();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            lines.len(),
            RULES.len(),
            "one `lint --rules` line per catalog entry"
        );
        for ((name, what), line) in RULES.iter().zip(&lines) {
            assert!(
                line.starts_with(name) && line.ends_with(what),
                "rule line drifted from the catalog: {line:?}"
            );
        }
        // The chrono-race static rules are part of the grown catalog.
        for rule in ["shared-state", "rng-stream", "barrier-phase"] {
            assert!(
                RULES.iter().any(|(n, _)| *n == rule),
                "missing {rule} in the catalog"
            );
        }
    }
}
