//! The `harness fuzz` profiles as one table.
//!
//! Each [`FuzzProfile`] row names a profile and its CLI flag, its default
//! seed base, how `--ops` maps to run length, the counters its sweep must
//! see nonzero (or the "zero violations" headline would be vacuous), and
//! the case it runs: a substrate [`Shape`] plus op [`Mix`], or one of the
//! two policy-level cases. [`FuzzProfile::run`] is the one runner every
//! row goes through.

use tiered_mem::{MigrateError, PageSize, TierId, TieredSystem};

use crate::ops::{
    fuzz_ops, run_case, Arm, CaseConfig, FuzzOp, Mix, Shape, ShrunkFailure,
    TierDraw::{Any, Coin, Fast},
};
use crate::oracle::Violation;
use crate::policy_fuzz::{run_policy_case_with_plan, tier_chaos_case};
use crate::registry::Topology;
use crate::sharded::ShardedCase;

/// One fuzz profile: a row of [`PROFILES`].
#[derive(Debug, Clone, Copy)]
pub struct FuzzProfile {
    /// Name printed in sweep summaries.
    pub name: &'static str,
    /// The `harness fuzz` flag selecting the row; the clean row is the
    /// default and has none.
    pub flag: Option<&'static str>,
    /// Default first seed of a sweep.
    pub seed_base: u64,
    /// How `--ops` maps to the length of one case.
    pub length: Length,
    /// Counts the sweep must see nonzero, summed over its cases.
    pub counters: &'static [Counter],
    /// What one seed runs.
    pub case: Case,
}

/// How `--ops` maps to the length of one case.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// The schedule is `--ops` ops long.
    Ops,
    /// `--ops / ops_per_ms` simulated milliseconds, at least `min`.
    Millis {
        /// Ops per simulated millisecond.
        ops_per_ms: u64,
        /// Shortest run.
        min: u64,
    },
    /// A fixed number of simulated milliseconds; `--ops` does not apply.
    Fixed(u64),
}

impl Length {
    /// The case length for `ops` and its unit.
    pub fn resolve(self, ops: u64) -> (u64, &'static str) {
        match self {
            Length::Ops => (ops, "ops"),
            Length::Millis { ops_per_ms, min } => ((ops / ops_per_ms).max(min), "ms"),
            Length::Fixed(millis) => (millis, "ms"),
        }
    }
}

/// A count read off the system a case leaves behind (summed over tenants
/// on sharded cases).
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// Printed after the count.
    pub name: &'static str,
    /// Reads the count.
    pub read: fn(&TieredSystem) -> u64,
}

impl Counter {
    const fn new(name: &'static str, read: fn(&TieredSystem) -> u64) -> Counter {
        Counter { name, read }
    }
}

/// What one seed of a profile runs.
#[derive(Debug, Clone, Copy)]
pub enum Case {
    /// A seeded op schedule over the raw substrate, oracle-checked after
    /// every op and shrunk on failure.
    Substrate {
        /// Derives the system.
        shape: Shape,
        /// Derives the schedule.
        mix: Mix,
    },
    /// [`ShardedCase::tenant_storm`] under the per-shard oracle and the
    /// cross-shard invariants.
    TenantStorm,
    /// A three-tier policy run under a tier failure-domain plan
    /// ([`crate::policy_fuzz::tier_chaos_case`]).
    TierChaos,
}

/// The clean profile's op mix: accesses dominate (they drive demand
/// paging); migrations, reclaim, LRU churn, watermark retunes and clock
/// steps are sprinkled through.
pub const CLEAN_MIX: Mix = Mix {
    salt: 0,
    arms: &[
        (64, Arm::Access(0.3)),
        (68, Arm::Migrate(Coin(0.5))),
        (72, Arm::BeginMigrate(Coin(0.5))),
        (78, Arm::PromoteReclaim),
        (82, Arm::SwapOut),
        (86, Arm::PopVictim(Coin(0.7))),
        (89, Arm::AgeActive(Fast)),
        (93, Arm::LruMove),
        (95, Arm::Split),
        (97, Arm::RetunePro),
        (99, Arm::Advance(10_000)),
    ],
};

/// Every profile, the clean default first.
pub const PROFILES: [FuzzProfile; 6] = [
    // The clean profile: mostly small base-page systems with an occasional
    // huge-page case, under the clean mix.
    FuzzProfile {
        name: "clean",
        flag: None,
        seed_base: 0x5EED_0000,
        length: Length::Ops,
        counters: &[],
        case: Case::Substrate {
            shape: Shape {
                salt: 0xCA5E_CA5E_CA5E_CA5E,
                huge: Some(0.2),
                fast_shifts: 3,
                mid_x: None,
                max_procs: 3,
                budget: (3, 4),
                max_slots: 8,
                max_backlog_us: 5000,
                storm: false,
            },
            mix: CLEAN_MIX,
        },
    },
    // Migration stress: one or two in-flight slots and microsecond backlog
    // caps so admission rejects constantly, under a store-heavy mix whose
    // two-phase begins dominate and whose clock steps are short, so
    // in-flight transactions keep colliding with stores (the write-abort
    // path), splits and swap-outs instead of draining between ops.
    FuzzProfile {
        name: "migration-stress",
        flag: Some("--migration-stress"),
        seed_base: 0x57E5_5000,
        length: Length::Ops,
        counters: &[
            Counter::new("write aborts", |s| s.stats.aborted_migrations),
            Counter::new("backpressure rejects", |s| {
                s.stats.failed_fast_migrations[MigrateError::Backpressure.index()]
            }),
        ],
        case: Case::Substrate {
            shape: Shape {
                salt: 0x57E5_57E5_57E5_57E5,
                huge: None,
                fast_shifts: 2,
                mid_x: None,
                max_procs: 2,
                budget: (3, 4),
                max_slots: 2,
                max_backlog_us: 50,
                storm: false,
            },
            mix: Mix {
                salt: 0x0B5E_55ED_0B5E_55ED,
                arms: &[
                    (49, Arm::Access(0.7)),
                    (74, Arm::BeginMigrate(Coin(0.5))),
                    (79, Arm::PromoteReclaim),
                    (83, Arm::SwapOut),
                    (87, Arm::Split),
                    (99, Arm::Advance(20)),
                ],
            },
        },
    },
    // Fault storm: every case carries a storm-rate fault plan and a page
    // budget the slow tier alone can hold (capacity lost to quarantine,
    // shrink and poisoning never OOMs demand paging), and the mix adds
    // frame poisonings, hotplug shrink/grow and channel-degradation
    // windows, so the quarantine, soft-offline and watermark-rescale paths
    // run under the oracle.
    FuzzProfile {
        name: "fault-storm",
        flag: Some("--fault-storm"),
        seed_base: 0xFA17_0000,
        length: Length::Ops,
        counters: &[
            Counter::new("quarantined frames", |s| s.stats.quarantined_frames),
            Counter::new("offlined frames", |s| s.stats.offlined_frames),
            Counter::new("restored frames", |s| s.stats.restored_frames),
            Counter::new("copy faults", |s| {
                s.stats.failed_fast_migrations[MigrateError::CopyFault.index()]
            }),
        ],
        case: Case::Substrate {
            shape: Shape {
                salt: 0xFA17_FA17_FA17_FA17,
                huge: None,
                fast_shifts: 3,
                mid_x: None,
                max_procs: 2,
                budget: (1, 2),
                max_slots: 4,
                max_backlog_us: 500,
                storm: true,
            },
            mix: Mix {
                salt: 0x5708_4EED_5708_4EED,
                arms: &[
                    (49, Arm::Access(0.4)),
                    (57, Arm::BeginMigrate(Coin(0.5))),
                    (63, Arm::PromoteReclaim),
                    (67, Arm::SwapOut),
                    (73, Arm::PoisonFrame),
                    (77, Arm::ShrinkOrGrow),
                    (81, Arm::GrowFast),
                    (85, Arm::Degrade(Coin(0.6))),
                    (88, Arm::Migrate(Coin(0.5))),
                    (99, Arm::Advance(5_000)),
                ],
            },
        },
    },
    // Tenant storm: 4–8 tenants with mixed policies over a weighted frame
    // partition, the admission hook on a deliberately tight slot pool and a
    // fault plan on one tenant, checked against the cross-shard invariants
    // (global frame conservation, PFN exclusivity, per-tenant slot-flow
    // conservation, canonical admission grants).
    FuzzProfile {
        name: "tenant-storm",
        flag: Some("--tenant-storm"),
        seed_base: 0x7E4A_0000,
        length: Length::Fixed(10),
        counters: &[Counter::new("admission rejects", |s| {
            s.stats.failed_fast_migrations[MigrateError::Backpressure.index()]
        })],
        case: Case::TenantStorm,
    },
    // Three tier: every case runs over a DRAM+CXL+PMem chain whose bottom
    // tier alone can hold every page, and every tier-carrying op draws its
    // tier uniformly from the chain, so both migration edges (and two-hop
    // moves), reclaim pops, ageing and degradation windows cover all three
    // tiers under the generalized per-tier oracle.
    FuzzProfile {
        name: "three-tier",
        flag: Some("--three-tier"),
        seed_base: 0x37E1_0000,
        length: Length::Ops,
        counters: &[
            Counter::new("fast-tier frames", |s| s.used_frames(TierId(0)).into()),
            Counter::new("mid-tier frames", |s| s.used_frames(TierId(1)).into()),
            Counter::new("slow-tier frames", |s| s.used_frames(TierId(2)).into()),
        ],
        case: Case::Substrate {
            shape: Shape {
                salt: 0x371E_3A5E_371E_3A5E,
                huge: None,
                fast_shifts: 2,
                mid_x: Some(2),
                max_procs: 3,
                budget: (3, 4),
                max_slots: 8,
                max_backlog_us: 5000,
                storm: false,
            },
            mix: Mix {
                salt: 0x7513_7513_7513_7513,
                arms: &[
                    (64, Arm::Access(0.3)),
                    (68, Arm::Migrate(Any)),
                    (72, Arm::BeginMigrate(Any)),
                    (78, Arm::PromoteReclaim),
                    (82, Arm::SwapOut),
                    (86, Arm::PopVictim(Any)),
                    (89, Arm::AgeActive(Any)),
                    (93, Arm::LruMove),
                    (95, Arm::Degrade(Any)),
                    (97, Arm::RetunePro),
                    (99, Arm::Advance(10_000)),
                ],
            },
        },
    },
    // Tier chaos: end-to-end three-tier policy runs under the
    // `canonical3`/`storm3` plans (mid-run degrade, offline with live
    // evacuation, rejoin) with the oracle attached. 200 ops make one
    // simulated ms, so the default 4000 runs each seed for 20 ms, long
    // enough for the full offline/rejoin arc.
    FuzzProfile {
        name: "tier-chaos",
        flag: Some("--tier-chaos"),
        seed_base: 0x7C40_0000,
        length: Length::Millis {
            ops_per_ms: 200,
            min: 5,
        },
        counters: &[
            Counter::new("tier transitions", |s| s.stats.tier_health_transitions),
            Counter::new("evacuated pages", |s| s.stats.evacuated_pages),
        ],
        case: Case::TierChaos,
    },
];

/// The clean profile, the default.
pub const CLEAN: &FuzzProfile = &PROFILES[0];

/// What one seed of a profile did.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The row's counters as the case left them, in row order.
    pub counts: Vec<u64>,
    /// Accesses the case's final systems served.
    pub accesses: u64,
    /// What ran: the case line of a substrate case; the digest and shape of
    /// a policy-level one.
    pub summary: String,
    /// The failure, ready to print; `None` when every invariant held.
    pub failure: Option<String>,
}

/// What a run of consecutive seeds found.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Each failing seed's report.
    pub failures: Vec<String>,
    /// The row's counters summed over the seeds, in row order.
    pub totals: Vec<u64>,
}

impl FuzzProfile {
    /// The case and schedule a substrate row derives for `seed`; `None` on
    /// policy-level rows.
    pub fn schedule(&self, seed: u64, ops: u64) -> Option<(CaseConfig, Vec<FuzzOp>)> {
        let Case::Substrate { shape, mix } = &self.case else {
            return None;
        };
        let cfg = shape.derive(seed);
        let count = self.length.resolve(ops).0 as usize;
        let schedule = mix.generate(&cfg, seed, count);
        Some((cfg, schedule))
    }

    /// Runs one seed at the length `ops` maps to.
    pub fn run(&self, seed: u64, ops: u64) -> CaseOutcome {
        let (len, _) = self.length.resolve(ops);
        let (summary, systems, failure) = match self.case {
            Case::Substrate { .. } => {
                let (cfg, schedule) = self.schedule(seed, ops).expect("a substrate row");
                let summary = cfg.to_string();
                match run_case(&cfg, &schedule) {
                    Ok(sys) => (summary, vec![sys], None),
                    Err(_) => {
                        let shrunk = fuzz_ops(seed, &cfg, schedule).expect("the case failed");
                        (summary, Vec::new(), Some(shrunk.to_string()))
                    }
                }
            }
            Case::TenantStorm => {
                let case = ShardedCase::tenant_storm(seed, len);
                let r = case.run();
                let (tenants, threads) = (case.policies.len(), case.threads);
                let (digest, gini) = (r.combined_digest, r.slot_gini);
                let summary = format!(
                    "{tenants} tenants, {threads} threads, digest {digest:016x}, slot-gini {gini:.3}"
                );
                let failure = violations_text(seed, &r.violations);
                (summary, r.systems, failure)
            }
            Case::TierChaos => {
                let (policy, plan) = tier_chaos_case(seed, len);
                let r =
                    run_policy_case_with_plan(policy, Topology::ThreeTier, seed, len, Some(plan));
                let summary = format!("policy {}, digest {:016x}", r.policy, r.digest);
                let failure = violations_text(seed, &r.violations);
                (summary, vec![r.sys], failure)
            }
        };
        CaseOutcome {
            counts: self
                .counters
                .iter()
                .map(|c| systems.iter().map(c.read).sum())
                .collect(),
            accesses: systems.iter().map(|s| s.stats.total_accesses()).sum(),
            summary,
            failure,
        }
    }

    /// Runs `seeds` consecutive seeds from `first`.
    pub fn sweep(&self, first: u64, seeds: u64, ops: u64) -> Sweep {
        let mut sweep = Sweep {
            failures: Vec::new(),
            totals: vec![0; self.counters.len()],
        };
        for seed in (0..seeds).map(|i| first.wrapping_add(i)) {
            let out = self.run(seed, ops);
            for (t, n) in sweep.totals.iter_mut().zip(&out.counts) {
                *t += n;
            }
            sweep.failures.extend(out.failure);
        }
        sweep
    }

    /// `; <count> <counter>, ...` for the row's counters; empty when the
    /// row names none.
    pub fn describe(&self, counts: &[u64]) -> String {
        let parts: Vec<String> = (self.counters.iter().zip(counts))
            .map(|(c, n)| format!("{n} {}", c.name))
            .collect();
        if parts.is_empty() {
            String::new()
        } else {
            format!("; {}", parts.join(", "))
        }
    }

    /// The row's counters that read zero in `counts`.
    pub fn idle(&self, counts: &[u64]) -> Vec<&'static str> {
        (self.counters.iter().zip(counts))
            .filter(|&(_, &n)| n == 0)
            .map(|(c, _)| c.name)
            .collect()
    }
}

/// The pipeline self-test: appends a known cross-mapping corruption to the
/// clean schedule (`ops` long, at most 500) of the first base-page case at
/// or after `seed_base` and runs it, as a real substrate bug would run. The
/// oracle must catch it and the shrinker cut it to at most 20 ops.
pub fn self_test(seed_base: u64, ops: u64) -> Result<ShrunkFailure, String> {
    let (seed, cfg, mut schedule) = (0..64)
        .map(|i| seed_base.wrapping_add(i))
        .find_map(|s| {
            let (cfg, schedule) = CLEAN.schedule(s, ops.min(500))?;
            let (pages, size) = cfg.procs[0];
            (size == PageSize::Base && pages >= 2).then_some((s, cfg, schedule))
        })
        .expect("some seed in any 64-window yields a base-page case");
    let access = |vpn| FuzzOp::Access {
        pid: 0,
        vpn,
        write: false,
    };
    let corrupt = FuzzOp::CorruptPfn {
        pid: 0,
        src: 0,
        dst: 1,
    };
    schedule.extend([access(0), access(1), corrupt]);
    let shrunk = fuzz_ops(seed, &cfg, schedule).ok_or("injected corruption was NOT caught")?;
    match shrunk.ops.len() {
        n if n > 20 => Err(format!(
            "reproduction shrunk to {n} ops (want <= 20):\n{shrunk}"
        )),
        _ => Ok(shrunk),
    }
}

/// A policy-level failure: one line per violation.
fn violations_text(seed: u64, violations: &[Violation]) -> Option<String> {
    let n = violations.len();
    let lines = violations
        .iter()
        .map(|v| format!("\n  violation [{}] {}", v.invariant, v.detail));
    (n > 0).then(|| {
        format!(
            "seed {seed:#018x}: {n} violations{}",
            lines.collect::<String>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str) -> &'static FuzzProfile {
        PROFILES
            .iter()
            .find(|p| p.name == name)
            .expect("a profile row")
    }

    #[test]
    fn substrate_profiles_are_pinned_bounded_clean_and_effective() {
        // Per row: FNV-1a over the case and schedule of the row's first
        // eight seeds at 400 ops, recorded before the four per-profile
        // shape derivations and generators became table rows (any drift in
        // a row's RNG draws fails here); how many seeds from 0 must run
        // clean at 400 ops and move every counter the row names; and what
        // every case shape must satisfy besides fitting its frames.
        type ShapeHolds = fn(&CaseConfig) -> bool;
        let rows: [(&str, u64, u64, ShapeHolds); 4] = [
            ("clean", 0x132e_6a79_c0f7_53b3, 8, |_| true),
            ("migration-stress", 0x092e_55ee_9135_64da, 4, |c| {
                c.migration.inflight_slots <= 2
            }),
            ("three-tier", 0x5b8e_8b9a_df8f_5425, 4, |c| {
                c.num_tiers() == 3
            }),
            ("fault-storm", 0x0c68_40c4_0e43_20d7, 4, |c| {
                c.fault_plan.is_some()
            }),
        ];
        for (name, pin, seeds, shape_holds) in rows {
            let p = profile(name);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for seed in p.seed_base..p.seed_base + 8 {
                let (cfg, ops) = p.schedule(seed, 400).unwrap();
                for b in format!("{cfg:?}{ops:?}").bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            assert_eq!(h, pin, "{name}: case or schedule drifted ({h:#018x})");
            for seed in 0..64 {
                let (cfg, _) = p.schedule(seed, 0).unwrap();
                let pages: u32 = (0..cfg.procs.len() as u16)
                    .map(|i| cfg.total_pages(i))
                    .sum();
                let frames = cfg.fast_frames + cfg.mid_frames.unwrap_or(0) + cfg.slow_frames;
                assert!(pages <= frames && shape_holds(&cfg), "{name} {seed}: {cfg}");
            }
            let sweep = p.sweep(0, seeds, 400);
            assert!(sweep.failures.is_empty(), "{}", sweep.failures.join("\n"));
            let idle = p.idle(&sweep.totals);
            assert!(idle.is_empty(), "{name}: no {idle:?} across {seeds} seeds");
        }
    }

    #[test]
    fn policy_profiles_are_deterministic_clean_and_effective() {
        // Per row: the seeds, each run twice, and `--ops` (4000 ops make
        // 20 ms of tier chaos, long enough for the full failure arc).
        for (name, first, seeds, ops) in [
            ("tenant-storm", 0x5701, 7, 0),
            ("tier-chaos", 0x7C_0000, 4, 4000),
        ] {
            let p = profile(name);
            let mut totals = vec![0u64; p.counters.len()];
            for seed in first..first + seeds {
                let (a, b) = (p.run(seed, ops), p.run(seed, ops));
                assert!(a.failure.is_none(), "{name} {seed:#x}: {:?}", a.failure);
                assert!(a.accesses > 0, "{name} {seed:#x} did nothing");
                assert_eq!(a.summary, b.summary, "{name} {seed:#x} nondeterministic");
                for (t, n) in totals.iter_mut().zip(&a.counts) {
                    *t += n;
                }
            }
            let idle = p.idle(&totals);
            assert!(idle.is_empty(), "{name}: no {idle:?} across {seeds} seeds");
        }
    }

    #[test]
    fn policy_profiles_replay_pinned_digests() {
        // `harness fuzz --tenant-storm --replay SEED` and `harness fuzz
        // --tier-chaos --replay SEED --ops 2000` print these digests.
        for (name, seed, digest) in [
            ("tenant-storm", 0x7E4A_0000, 0xd7e0_53bd_be1a_0ffeu64),
            ("tenant-storm", 0x7E4A_0002, 0x54cb_c4aa_dba1_9774),
            ("tier-chaos", 0x7C40_0000, 0x7a07_d342_3587_b144),
            ("tier-chaos", 0x7C40_0003, 0x2355_6a86_0152_198e),
        ] {
            let out = profile(name).run(seed, 2000);
            assert!(out.failure.is_none(), "{name} {seed:#x}: {:?}", out.failure);
            assert!(
                out.summary.contains(&format!("digest {digest:016x}")),
                "{name} {seed:#x}: {}",
                out.summary
            );
        }
    }

    #[test]
    fn injected_corruption_is_caught_and_shrunk_small() {
        let shrunk = self_test(0, 300).unwrap_or_else(|e| panic!("{e}"));
        assert!(shrunk
            .failure
            .violations
            .iter()
            .any(|v| v.invariant == "pfn_exclusive" || v.invariant == "reverse_map"));
        // The minimal schedule must still be replayable as printed.
        assert!(run_case(&shrunk.config, &shrunk.ops).is_err());
    }
}
