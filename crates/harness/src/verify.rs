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
//! metamorphic relations, the golden-trace snapshots (`--bless` rewrites
//! the snapshots instead of diffing them) and the pinned fleet digests. `fuzz` sweeps seeds of one
//! profile of `tiering_verify::PROFILES` (the clean substrate profile by
//! default; each other row names its flag and says what it exercises):
//! failures are shrunk or listed, and the sweep fails if a counter its row
//! names never moved. `--replay SEED` re-runs a single reported seed;
//! `--self-test` injects a known corruption into a clean case and checks
//! the pipeline catches and shrinks it. A flag the chosen mode would ignore
//! is a usage error.

use tiering_verify::profile::{self_test, Case, Length};
use tiering_verify::{
    bless_goldens, check_goldens, determinism_digests, metamorphic, FuzzProfile, GoldenStatus,
    PolicyKind, Topology, CLEAN, PROFILES,
};

use crate::tenants::{run_fleet, FleetConfig};
use crate::{parse_u64, take_bool_flag, take_flag};

/// Combined digests of `harness run --tenants 64 --millis 20 --threads 1
/// --topology T --policy P`, one row per chain shape, one column per
/// [`PolicyKind::FUZZED`] kind in that order. A fleet exercises the
/// partition, admission and barrier code that no golden file runs at this
/// tenant count, so a change that moves any of these is a behaviour change.
/// `--bless` leaves them alone: such a change edits this table.
const FLEET_DIGESTS: [(Topology, [u64; 10]); 2] = [
    (
        Topology::DramPmem,
        [
            0xd3e7f2bb1b347b3d,
            0xde107351e70f9222,
            0xda2094caf89549e7,
            0x09e7d83ee51be4d9,
            0x97c8ce91a35374d0,
            0xd877efdc6d2c8274,
            0x7583d5ec6bcb8af8,
            0x6bf59438edf00d67,
            0xe05cc98394861826,
            0xe9b3ed43a891d4a1,
        ],
    ),
    (
        Topology::ThreeTier,
        [
            0xbf4cfb9c80288e7d,
            0xf3f6dece4fe92718,
            0x571f4c599d29047f,
            0x4d3638c983cad594,
            0xf51f1ed49ed10c02,
            0xcfdd872b2e7e95c8,
            0x613a4fd02ebc643e,
            0xd7bacd6e47205597,
            0x4f52d1997e6d0231,
            0xf554abe8a1b812e2,
        ],
    ),
];

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

    // 4. Pinned fleet digests.
    for (topology, digests) in FLEET_DIGESTS {
        for (policy, want) in PolicyKind::FUZZED.into_iter().zip(digests) {
            let cfg = FleetConfig {
                tenants: 64,
                threads: 1,
                policy,
                millis: 20,
                topology,
                ..FleetConfig::default()
            };
            let got = run_fleet(&cfg).combined_digest();
            let (name, id) = (topology.name(), policy.id());
            if got == want {
                println!("fleet {name:<10} {id:<16} ok ({got:016x})");
            } else {
                println!("fleet {name:<10} {id:<16} FAILED: {got:016x}, pinned {want:016x}");
                failed = true;
            }
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

/// What `harness fuzz` runs once its flags check out.
enum FuzzRun {
    /// `seeds` cases from `seed_base`.
    Sweep { seeds: u64, seed_base: u64 },
    /// One seed.
    Replay(u64),
    /// The injected-corruption check, from the first base-page case at or
    /// after `seed_base`.
    SelfTest { seed_base: u64 },
}

/// Parses `harness fuzz`'s flags into the profile row, the run and `--ops`.
fn parse_fuzz(mut args: Vec<String>) -> Result<(&'static FuzzProfile, FuzzRun, u64), String> {
    let mut chosen = Vec::new();
    for p in &PROFILES {
        if p.flag.is_some_and(|f| take_bool_flag(&mut args, f)) {
            chosen.push(p);
        }
    }
    let profile = match chosen[..] {
        [] => CLEAN,
        [p] => p,
        _ => {
            let flags: Vec<&str> = PROFILES.iter().filter_map(|p| p.flag).collect();
            return Err(format!("{} are mutually exclusive", flags.join(", ")));
        }
    };
    let mut int = |flag| take_flag(&mut args, flag, "an integer argument", parse_u64);
    let seeds = int("--seeds")?;
    let ops = int("--ops")?;
    let seed_base = int("--seed-base")?;
    let replay = int("--replay")?;
    let self_test = take_bool_flag(&mut args, "--self-test");
    if let Some(unknown) = args.first() {
        return Err(format!("unknown argument '{unknown}'"));
    }
    // Each mode takes only the flags it uses.
    let ignored = [
        (replay.is_some() && self_test, "--replay and --self-test"),
        (replay.is_some() && seeds.is_some(), "--replay and --seeds"),
        (
            replay.is_some() && seed_base.is_some(),
            "--replay and --seed-base",
        ),
        (self_test && seeds.is_some(), "--self-test and --seeds"),
        (
            self_test && profile.flag.is_some(),
            "--self-test and a profile flag",
        ),
        (
            ops.is_some() && matches!(profile.length, Length::Fixed(_)),
            "--ops and a fixed-length profile",
        ),
    ];
    if let Some((_, flags)) = ignored.iter().find(|(hit, _)| *hit) {
        return Err(format!("{flags} do not combine"));
    }
    let seed_base = seed_base.unwrap_or(profile.seed_base);
    let run = match (replay, self_test) {
        (Some(seed), _) => FuzzRun::Replay(seed),
        (None, true) => FuzzRun::SelfTest { seed_base },
        (None, false) => FuzzRun::Sweep {
            seeds: seeds.unwrap_or(256),
            seed_base,
        },
    };
    Ok((profile, run, ops.unwrap_or(4000)))
}

/// `harness fuzz [--seeds N] [--ops N] [--seed-base X] [--replay SEED]
/// [--self-test] [--migration-stress] [--fault-storm] [--tenant-storm]
/// [--three-tier] [--tier-chaos]`. Returns the process exit code: 2 on a
/// usage error, 1 when a case fails or a counter the row names never moved.
pub fn run_fuzz(args: Vec<String>) -> i32 {
    let (profile, run, ops) = match parse_fuzz(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("fuzz: {msg}");
            return 2;
        }
    };
    // Substrate cases drive the substrate into panics on purpose and catch
    // them; silence the default hook so expected unwinds don't spam stderr.
    // Safe here: substrate cases run on the harness's one thread.
    let saved_hook = matches!(profile.case, Case::Substrate { .. }).then(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        hook
    });
    let (len, unit) = profile.length.resolve(ops);
    let code = match run {
        FuzzRun::SelfTest { seed_base } => match self_test(seed_base, ops) {
            Ok(shrunk) => {
                let n = shrunk.ops.len();
                println!("{shrunk}\nself-test: corruption caught and shrunk to {n} ops");
                0
            }
            Err(e) => {
                eprintln!("self-test: {e}");
                1
            }
        },
        FuzzRun::Replay(seed) => {
            let out = profile.run(seed, ops);
            let verdict = if out.failure.is_some() {
                "FAILED"
            } else {
                "clean"
            };
            println!(
                "replay seed {seed:#x} ({}, {len} {unit}): {}, {} accesses{}; {verdict}",
                profile.name,
                out.summary,
                out.accesses,
                profile.describe(&out.counts)
            );
            if let Some(f) = &out.failure {
                println!("{f}");
            }
            i32::from(out.failure.is_some())
        }
        FuzzRun::Sweep { seeds, seed_base } => {
            let sweep = profile.sweep(seed_base, seeds, ops);
            for f in &sweep.failures {
                println!("{} {f}", profile.name);
            }
            let idle = profile.idle(&sweep.totals);
            if !idle.is_empty() {
                eprintln!("fuzz: {} sweep never exercised {idle:?}", profile.name);
            }
            if !sweep.failures.is_empty() {
                let n = sweep.failures.len();
                eprintln!("fuzz: {n} of {seeds} {} seeds FAILED", profile.name);
            } else if idle.is_empty() {
                println!(
                    "fuzz: {seeds} {} seeds x {len} {unit}, zero invariant violations{}",
                    profile.name,
                    profile.describe(&sweep.totals)
                );
            }
            i32::from(!sweep.failures.is_empty() || !idle.is_empty())
        }
    };
    if let Some(hook) = saved_hook {
        std::panic::set_hook(hook);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fuzz(args: &str) -> i32 {
        run_fuzz(args.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn fuzz_refuses_flags_it_would_ignore() {
        for args in [
            "--tenant-storm --self-test --seeds 2",
            "--tier-chaos --self-test",
            "--migration-stress --self-test",
            "--self-test --replay 0x5eed0001",
            "--self-test --seeds 4",
            "--replay 0x5eed0001 --seeds 4",
            "--replay 0x5eed0001 --seed-base 0x5eed0000",
            "--tenant-storm --ops 99999",
            "--tenant-storm --replay 0x7e4a0000 --ops 2000",
            "--three-tier --fault-storm",
            "--seeds",
            "--ops many",
            "--bogus",
        ] {
            assert_eq!(fuzz(args), 2, "harness fuzz {args}");
        }
    }

    #[test]
    fn fuzz_sweeps_replays_and_self_tests() {
        assert_eq!(fuzz("--seeds 2 --ops 100"), 0);
        assert_eq!(fuzz("--replay 0x5eed0001 --ops 100"), 0);
        assert_eq!(fuzz("--self-test --ops 200"), 0);
    }
}
