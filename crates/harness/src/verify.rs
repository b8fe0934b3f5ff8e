//! `harness verify` and `harness fuzz`: the CI entry points into the
//! `tiering-verify` layer.
//!
//! ```text
//! harness verify [--bless]
//! harness fuzz [--seeds N] [--ops N] [--seed-base X] [--replay SEED]
//!              [--self-test] [--migration-stress] [--fault-storm]
//!              [--tenant-storm] [--three-tier] [--tier-chaos]
//! ```
//!
//! `verify` runs the differential determinism check for every policy, the
//! metamorphic relations, and the golden-trace snapshots (`--bless` rewrites
//! the snapshots instead of diffing them). `fuzz` runs seeded op-schedule
//! fuzzing of the substrate; failures are shrunk and printed as replayable
//! schedules. `--replay SEED` re-runs a single reported seed; `--self-test`
//! injects a known corruption and checks the pipeline catches and shrinks
//! it. `--migration-stress` switches to the migration-heavy profile:
//! write-dominated access mixes over tiny in-flight tables, so the
//! write-abort, split-abort and `Backpressure` paths fire constantly.
//! `--fault-storm` switches to the fault-injection profile: every case
//! carries a storm-rate `FaultPlan` and the op mix adds frame poisoning,
//! capacity shrink/grow and channel-degradation windows, so the quarantine,
//! soft-offline and watermark-rescale paths run under the oracle.
//! `--tenant-storm` switches to the multi-tenant sharded profile: 4–8
//! tenants with mixed policies over a weighted frame partition, the
//! admission hook on a deliberately tight slot pool, and a fault plan on one
//! tenant — checked against the cross-shard invariants (global frame
//! conservation, PFN exclusivity, per-tenant slot-flow conservation).
//! `--three-tier` switches to the tier-chain profile: every case runs over a
//! DRAM+CXL+PMem chain and the op mix draws migration destinations, victim
//! pops, ageing and degradation windows across all three tiers, so the
//! per-edge engines and the generalized residency invariants run under the
//! oracle. `--tier-chaos` switches to the tier failure-domain profile:
//! end-to-end three-tier policy runs under the `canonical3`/`storm3` plans
//! (mid-run degrade → offline with live evacuation → rejoin), oracle
//! attached, with an effectiveness self-test asserting the sweep actually
//! failed and drained tiers.

use tiering_verify::ops::{generate_ops, CaseConfig, FuzzOp};
use tiering_verify::{
    bless_goldens, check_goldens, determinism_digests, fuzz_one, fuzz_one_fault_storm,
    fuzz_one_stress, fuzz_one_three_tier, metamorphic, GoldenStatus, PolicyKind,
};

/// Parses `--flag N` out of `args`; returns the default when absent.
fn take_u64_flag(args: &mut Vec<String>, flag: &str, default: u64) -> u64 {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return default;
    };
    let value = args.get(pos + 1).and_then(|v| match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    });
    let Some(value) = value else {
        eprintln!("{flag} requires an integer argument");
        std::process::exit(2);
    };
    args.drain(pos..=pos + 1);
    value
}

/// Removes `--flag` from `args`, reporting whether it was present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// `harness verify [--bless]`. Returns the process exit code.
pub fn run_verify(mut args: Vec<String>) -> i32 {
    let bless = take_bool_flag(&mut args, "--bless");
    if let Some(unknown) = args.first() {
        eprintln!("verify: unknown argument '{unknown}'");
        return 2;
    }
    let mut failed = false;

    // 1. Differential determinism: same seed, same policy ⇒ same digest.
    const DET_SEED: u64 = 0x00D1_7E57;
    const DET_MILLIS: u64 = 15;
    for p in PolicyKind::FUZZED {
        let (a, b) = determinism_digests(p, DET_SEED, DET_MILLIS);
        if a == b {
            println!("determinism {:<16} ok ({a:016x})", p.id());
        } else {
            println!(
                "determinism {:<16} FAILED: {a:016x} != {b:016x} on seed {DET_SEED:#x}",
                p.id()
            );
            failed = true;
        }
    }

    // 2. Metamorphic relations over the Chrono control loop.
    let meta_failures = metamorphic::run_all(0x4E7A, 8);
    if meta_failures.is_empty() {
        println!("metamorphic relations ok (rate-limit, CIT-threshold, huge/base accounting)");
    } else {
        for f in &meta_failures {
            println!("metamorphic FAILED: {f}");
        }
        failed = true;
    }

    // 3. Golden-trace snapshots.
    if bless {
        match bless_goldens() {
            Ok(paths) => {
                for p in paths {
                    println!("blessed {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                return 1;
            }
        }
    } else {
        for result in check_goldens() {
            if !matches!(result.status, GoldenStatus::Match) {
                failed = true;
            }
            println!("{result}");
        }
    }

    if failed {
        eprintln!("verify: FAILED");
        1
    } else {
        println!("verify: all checks passed");
        0
    }
}

/// `harness fuzz [--seeds N] [--ops N] [--seed-base X] [--replay SEED]
/// [--self-test] [--migration-stress] [--fault-storm] [--tenant-storm]
/// [--three-tier] [--tier-chaos]`. Returns the process exit code.
pub fn run_fuzz(mut args: Vec<String>) -> i32 {
    let stress = take_bool_flag(&mut args, "--migration-stress");
    let fault_storm = take_bool_flag(&mut args, "--fault-storm");
    let tenant_storm = take_bool_flag(&mut args, "--tenant-storm");
    let three_tier = take_bool_flag(&mut args, "--three-tier");
    let tier_chaos = take_bool_flag(&mut args, "--tier-chaos");
    if [stress, fault_storm, tenant_storm, three_tier, tier_chaos]
        .iter()
        .filter(|&&b| b)
        .count()
        > 1
    {
        eprintln!(
            "fuzz: --migration-stress, --fault-storm, --tenant-storm, --three-tier \
             and --tier-chaos are mutually exclusive"
        );
        return 2;
    }
    let seeds = take_u64_flag(&mut args, "--seeds", 256);
    let ops = take_u64_flag(&mut args, "--ops", 4000) as usize;
    let default_base = if stress {
        0x57E5_5000
    } else if fault_storm {
        0xFA17_0000
    } else if tenant_storm {
        0x7E4A_0000
    } else if three_tier {
        0x37E1_0000
    } else if tier_chaos {
        0x7C40_0000
    } else {
        0x5EED_0000
    };
    let seed_base = take_u64_flag(&mut args, "--seed-base", default_base);
    let replay = if args.iter().any(|a| a == "--replay") {
        Some(take_u64_flag(&mut args, "--replay", 0))
    } else {
        None
    };
    let self_test = take_bool_flag(&mut args, "--self-test");
    if let Some(unknown) = args.first() {
        eprintln!("fuzz: unknown argument '{unknown}'");
        return 2;
    }

    if tenant_storm {
        return run_tenant_storm(seeds, seed_base, replay);
    }
    if tier_chaos {
        return run_tier_chaos(seeds, seed_base, replay, ops);
    }

    // The fuzzer intentionally drives the substrate into panics and catches
    // them; silence the default hook so expected unwinds don't spam stderr.
    // Safe here: the harness binary is single-threaded.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let run_case = |seed, ops| {
        if stress {
            fuzz_one_stress(seed, ops)
        } else if fault_storm {
            fuzz_one_fault_storm(seed, ops)
        } else if three_tier {
            fuzz_one_three_tier(seed, ops)
        } else {
            fuzz_one(seed, ops)
        }
    };
    let profile = if stress {
        "migration-stress "
    } else if fault_storm {
        "fault-storm "
    } else if three_tier {
        "three-tier "
    } else {
        ""
    };
    let code = if self_test {
        run_self_test(seed_base, ops)
    } else if let Some(seed) = replay {
        match run_case(seed, ops) {
            None => {
                println!("replay seed {seed:#x}: clean ({ops} {profile}ops)");
                0
            }
            Some(shrunk) => {
                println!("{shrunk}");
                1
            }
        }
    } else {
        let mut failures = 0u64;
        for i in 0..seeds {
            let seed = seed_base.wrapping_add(i);
            if let Some(shrunk) = run_case(seed, ops) {
                println!("{shrunk}");
                failures += 1;
            }
        }
        if failures == 0 {
            println!("fuzz: {seeds} {profile}seeds x {ops} ops, zero invariant violations");
            0
        } else {
            eprintln!("fuzz: {failures} of {seeds} {profile}seeds FAILED");
            1
        }
    };
    std::panic::set_hook(default_hook);
    code
}

/// The `--tenant-storm` profile: seeded multi-shard cases (4–8 tenants,
/// mixed policies, skewed weights, a tight admission-slot pool, a canonical
/// fault plan on one tenant) with the per-shard oracle plus the cross-shard
/// invariants — global frame conservation, PFN exclusivity across tenants,
/// per-tenant slot-flow conservation. Also asserts the admission-reject
/// path actually fired somewhere in the batch: a sweep where no migration
/// was ever rejected would mean the contention the profile exists to test
/// never happened.
fn run_tenant_storm(seeds: u64, seed_base: u64, replay: Option<u64>) -> i32 {
    const STORM_MILLIS: u64 = 10;
    if let Some(seed) = replay {
        let r = tiering_verify::fuzz_one_tenant_storm(seed, STORM_MILLIS);
        println!(
            "replay seed {seed:#x}: {} tenants, {} threads, digest {:016x}, \
             {} rejects, slot-gini {:.3}, {} violations",
            r.tenants,
            r.threads,
            r.combined_digest,
            r.backpressure_rejects,
            r.slot_gini,
            r.violations.len()
        );
        for v in &r.violations {
            println!("  violation [{}] {}", v.invariant, v.detail);
        }
        return i32::from(!r.clean());
    }
    let mut failures = 0u64;
    let mut rejects = 0u64;
    for i in 0..seeds {
        let seed = seed_base.wrapping_add(i);
        let r = tiering_verify::fuzz_one_tenant_storm(seed, STORM_MILLIS);
        rejects += r.backpressure_rejects;
        if !r.clean() {
            failures += 1;
            println!("tenant-storm seed {seed:#x} FAILED:");
            for v in &r.violations {
                println!("  violation [{}] {}", v.invariant, v.detail);
            }
        }
    }
    if failures == 0 && rejects > 0 {
        println!(
            "fuzz: {seeds} tenant-storm seeds x {STORM_MILLIS} ms, zero invariant violations, \
             {rejects} admission rejects exercised"
        );
        0
    } else {
        if rejects == 0 {
            eprintln!("fuzz: tenant-storm sweep never exercised the admission-reject path");
        }
        if failures > 0 {
            eprintln!("fuzz: {failures} of {seeds} tenant-storm seeds FAILED");
        }
        1
    }
}

/// The `--tier-chaos` profile: seeded end-to-end three-tier policy runs
/// under the `canonical3`/`storm3` tier failure-domain plans (degrade,
/// offline with live evacuation, rejoin), with the invariant oracle —
/// including the `tier_offline_residency` and `evac_flow` checks —
/// attached to every scan period. The `--ops` knob maps onto simulated
/// run length (200 ops ≈ 1 simulated ms, so the default 4000 runs each
/// seed for 20 ms — long enough for the full offline/rejoin arc).
///
/// The sweep carries its own effectiveness self-test: across the batch,
/// tier health transitions and evacuated pages must both be nonzero, or
/// the chaos the profile exists to inject never actually happened and the
/// "zero violations" headline would be vacuous.
fn run_tier_chaos(seeds: u64, seed_base: u64, replay: Option<u64>, ops: usize) -> i32 {
    // lint:allow(timestamp-cast) ops is a CLI op count, not a timestamp
    let run_millis = ((ops as u64) / 200).max(5);
    if let Some(seed) = replay {
        let r = tiering_verify::fuzz_one_tier_chaos(seed, run_millis);
        println!(
            "replay seed {seed:#x}: policy {}, digest {:016x}, {} accesses, \
             {} tier transitions, {} evacuated pages, {} violations",
            r.policy,
            r.digest,
            r.accesses,
            r.tier_health_transitions,
            r.evacuated_pages,
            r.violations.len()
        );
        for v in &r.violations {
            println!("  violation [{}] {}", v.invariant, v.detail);
        }
        return i32::from(!r.clean());
    }
    let mut failures = 0u64;
    let mut transitions = 0u64;
    let mut evacuated = 0u64;
    for i in 0..seeds {
        let seed = seed_base.wrapping_add(i);
        let r = tiering_verify::fuzz_one_tier_chaos(seed, run_millis);
        transitions += r.tier_health_transitions;
        evacuated += r.evacuated_pages;
        if !r.clean() {
            failures += 1;
            println!("tier-chaos seed {seed:#x} ({}) FAILED:", r.policy);
            for v in &r.violations {
                println!("  violation [{}] {}", v.invariant, v.detail);
            }
        }
    }
    if failures == 0 && transitions > 0 && evacuated > 0 {
        println!(
            "fuzz: {seeds} tier-chaos seeds x {run_millis} ms, zero invariant violations, \
             {transitions} tier transitions and {evacuated} evacuated pages exercised"
        );
        0
    } else {
        if transitions == 0 || evacuated == 0 {
            eprintln!(
                "fuzz: tier-chaos sweep never exercised the failure arc \
                 ({transitions} transitions, {evacuated} evacuated)"
            );
        }
        if failures > 0 {
            eprintln!("fuzz: {failures} of {seeds} tier-chaos seeds FAILED");
        }
        1
    }
}

/// Injects a known cross-mapping corruption into a generated schedule and
/// checks the pipeline catches it and shrinks the reproduction to a handful
/// of ops. Exercises the same path a real substrate bug would take.
fn run_self_test(seed_base: u64, ops: usize) -> i32 {
    // Find a base-page case shape (the injected op corrupts base mappings).
    let seed = (0..64)
        .map(|i| seed_base.wrapping_add(i))
        .find(|&s| {
            let cfg = CaseConfig::from_seed(s);
            cfg.procs[0].1 == tiered_mem::PageSize::Base && cfg.procs[0].0 >= 2
        })
        .expect("some seed in any 64-window yields a base-page case");
    let cfg = CaseConfig::from_seed(seed);
    let mut schedule = generate_ops(&cfg, seed, ops.min(500));
    schedule.push(FuzzOp::Access {
        pid: 0,
        vpn: 0,
        write: false,
    });
    schedule.push(FuzzOp::Access {
        pid: 0,
        vpn: 1,
        write: false,
    });
    schedule.push(FuzzOp::CorruptPfn {
        pid: 0,
        src: 0,
        dst: 1,
    });
    let Some(shrunk) = tiering_verify::ops::fuzz_ops(seed, &cfg, schedule) else {
        eprintln!("self-test: injected corruption was NOT caught");
        return 1;
    };
    println!("{shrunk}");
    if shrunk.ops.len() > 20 {
        eprintln!(
            "self-test: shrunk reproduction has {} ops (want <= 20)",
            shrunk.ops.len()
        );
        return 1;
    }
    println!(
        "self-test: corruption caught and shrunk to {} ops",
        shrunk.ops.len()
    );
    0
}
