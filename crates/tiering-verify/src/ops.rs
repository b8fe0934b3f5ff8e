//! Seeded substrate op schedules: generation, execution, and replay.
//!
//! A fuzz case is a [`CaseConfig`] (system shape) plus a `Vec<FuzzOp>`
//! derived from one 64-bit seed via [`sim_clock::DetRng`]: a [`Shape`]
//! derives the case and a weighted [`Mix`] the schedule, with the values
//! each fuzz profile uses in [`crate::profile`]. Execution rebuilds
//! the system from scratch each run, so any op prefix is exactly replayable:
//! print the seed and the (possibly shrunk) op list and the failure
//! reproduces anywhere.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sim_clock::{DetRng, Nanos};
use tiered_mem::{
    DegradeWindow, FaultPlan, LruKind, MigrateMode, MigrationSpec, PageSize, ProcessId,
    SystemConfig, TierId, TieredSystem, Vpn, HUGE_2M_PAGES,
};

use crate::oracle::{InvariantOracle, Violation};

/// One substrate-level operation in a fuzz schedule.
///
/// Every variant carries pre-resolved, in-range arguments (the generator
/// clamps to the case's process/page counts), so removing ops from a
/// schedule — as the shrinker does — never invalidates the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// A memory access; demand-maps on first touch, may take a hint fault.
    Access {
        /// Target process index.
        pid: u16,
        /// Target base page.
        vpn: u32,
        /// Store (true) or load (false).
        write: bool,
    },
    /// Direct (instantaneous) migration of the mapping unit containing
    /// `vpn` — the pre-engine compat path.
    Migrate {
        /// Target process index.
        pid: u16,
        /// Any base page of the unit to move.
        vpn: u32,
        /// Destination tier index (in range for the case's chain).
        to: u8,
    },
    /// Open a two-phase migration transaction for the unit containing
    /// `vpn`; it stays in flight until an [`FuzzOp::Advance`] retires it or
    /// a racing write/split/swap aborts it.
    BeginMigrate {
        /// Target process index.
        pid: u16,
        /// Any base page of the unit to move.
        vpn: u32,
        /// Destination tier index (in range for the case's chain).
        to: u8,
    },
    /// Promotion with inactive-victim reclaim (Chrono's promotion path).
    PromoteReclaim {
        /// Target process index.
        pid: u16,
        /// Any base page of the unit to promote.
        vpn: u32,
    },
    /// Swap the mapping unit out to the swap device.
    SwapOut {
        /// Target process index.
        pid: u16,
        /// Any base page of the unit to reclaim.
        vpn: u32,
    },
    /// Pop a reclaim victim; the page stays resident but leaves its list
    /// (legal — a policy may pop and then decide not to act).
    PopVictim {
        /// Tier index to pop from.
        tier: u8,
    },
    /// Age the given tier's active list with a small budget.
    AgeActive {
        /// Tier index whose active list is aged.
        tier: u8,
        /// Scan budget in pages.
        budget: u8,
    },
    /// Rotate a resident page onto the given LRU list of its tier.
    LruMove {
        /// Target process index.
        pid: u16,
        /// Page whose PTE page is rotated.
        vpn: u32,
        /// Destination list.
        active: bool,
    },
    /// Split the huge block containing `vpn` (no-op on base spaces).
    Split {
        /// Target process index.
        pid: u16,
        /// Any base page of the block to split.
        vpn: u32,
    },
    /// Retune the `pro` watermark as if the rate limit changed.
    RetunePro {
        /// Promotion rate limit in MiB/s.
        rate_mib_per_sec: u16,
    },
    /// Advance the global clock.
    Advance {
        /// Step in microseconds.
        micros: u32,
    },
    /// Inject an uncorrectable error into the frame currently mapped by the
    /// unit containing `vpn` (no-op when the page is not resident).
    PoisonFrame {
        /// Target process index.
        pid: u16,
        /// Page whose backing frame goes bad.
        vpn: u32,
    },
    /// Hotplug-shrink the fast tier (short pools leave shrink debt).
    ShrinkFast {
        /// Frames to take out of service.
        frames: u8,
    },
    /// Hotplug-grow the fast tier (cancels debt, then restores offlined
    /// frames; a grow with nothing offlined is a no-op).
    GrowFast {
        /// Frames to bring back online.
        frames: u8,
    },
    /// Open a channel-degradation window starting now.
    Degrade {
        /// Tier index whose copy channel degrades.
        tier: u8,
        /// Window length in microseconds.
        micros: u16,
        /// Copy-cost multiplier (clamped to `>= 1` by the substrate).
        cost_x: u8,
    },
    /// Test-only corruption: alias `dst`'s PTE onto `src`'s frame without
    /// telling the frame table. Never generated by [`Mix::generate`]; the
    /// self-test injects it to prove the oracle catches real accounting bugs
    /// and the shrinker isolates them.
    CorruptPfn {
        /// Target process index.
        pid: u16,
        /// Resident page whose frame is stolen.
        src: u32,
        /// Resident page whose PTE is overwritten.
        dst: u32,
    },
}

/// Shape of one fuzz case's system, derived deterministically from a seed.
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Fast-tier frames.
    pub fast_frames: u32,
    /// Middle-tier frames: `Some` makes the case a three-tier chain
    /// (DRAM+CXL+PMem); `None` keeps the classic two-tier shape, so every
    /// pre-existing profile replays identically.
    pub mid_frames: Option<u32>,
    /// Slow-tier frames.
    pub slow_frames: u32,
    /// One entry per process: (base pages, mapping granularity).
    pub procs: Vec<(u32, PageSize)>,
    /// Migration-engine admission bounds for this case.
    pub migration: MigrationSpec,
    /// Optional fault plan (the fault-storm profile sets one; the clean and
    /// stress profiles leave it `None` so their digests stay fault-free).
    pub fault_plan: Option<FaultPlan>,
}

impl CaseConfig {
    /// Managed tiers in this case's chain.
    pub fn num_tiers(&self) -> usize {
        2 + usize::from(self.mid_frames.is_some())
    }

    /// Builds the system this case runs against.
    pub fn build(&self) -> TieredSystem {
        let mut cfg = match self.mid_frames {
            Some(mid) => SystemConfig::three_tier(self.fast_frames, mid, self.slow_frames),
            None => SystemConfig::dram_pmem(self.fast_frames, self.slow_frames),
        };
        cfg.migration = self.migration.clone();
        cfg.fault_plan = self.fault_plan.clone();
        let mut sys = TieredSystem::new(cfg);
        for &(pages, size) in &self.procs {
            sys.add_process(pages, size);
        }
        sys
    }

    pub(crate) fn total_pages(&self, pid: u16) -> u32 {
        let (pages, size) = self.procs[pid as usize];
        match size {
            PageSize::Base => pages,
            PageSize::Huge2M => pages.div_ceil(HUGE_2M_PAGES) * HUGE_2M_PAGES,
        }
    }
}

/// The case line a failure report prints: the tier sizes (the middle tier
/// only on a three-tier chain), the processes, and the fault plan when the
/// case carries one.
impl std::fmt::Display for CaseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fast {}", self.fast_frames)?;
        if let Some(mid) = self.mid_frames {
            write!(f, " mid {mid}")?;
        }
        write!(f, " slow {} procs {:?}", self.slow_frames, self.procs)?;
        if let Some(plan) = &self.fault_plan {
            write!(f, " fault plan {plan:?}")?;
        }
        Ok(())
    }
}

/// How a profile derives a [`CaseConfig`] from a seed: mostly small
/// base-page systems with tight tiers and several processes. The page
/// budget stays well under the frame total, so demand paging can never
/// legitimately run out of memory and any OOM panic is a real bug.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Xored into the seed before the first draw.
    pub salt: u64,
    /// Chance of a one-process 2 MiB case, drawn first (`None`: no draw).
    pub huge: Option<f64>,
    /// Fast-tier frames are `32 << below(fast_shifts)`.
    pub fast_shifts: u64,
    /// Middle-tier frames per fast frame (`None`: two tiers); slow is 8×.
    pub mid_x: Option<u32>,
    /// Processes are `1 + below(max_procs)`.
    pub max_procs: u64,
    /// Total pages as a fraction `(num, den)` of total frames.
    pub budget: (u32, u32),
    /// In-flight migration slots are `1 + below(max_slots)`.
    pub max_slots: u64,
    /// The migration backlog cap is `1 + below(max_backlog_us)` µs.
    pub max_backlog_us: u64,
    /// Attach [`FaultPlan::storm`] of the seed.
    pub storm: bool,
}

impl Shape {
    /// Derives the case for `seed`.
    pub fn derive(&self, seed: u64) -> CaseConfig {
        let mut rng = DetRng::seed(seed ^ self.salt);
        if self.huge.is_some_and(|p| rng.chance(p)) {
            // Huge-page case: one process, 2 MiB granularity. The slow tier
            // alone can hold every block so a 512-frame unit always fits.
            // A single in-flight slot keeps reservations to one block, so
            // the free pool stays >= 2 blocks and demand paging always finds
            // a tier with a whole block free (pigeonhole over two tiers).
            let pages = (1 + rng.below(3) as u32) * HUGE_2M_PAGES;
            return CaseConfig {
                fast_frames: HUGE_2M_PAGES * 2,
                mid_frames: None,
                slow_frames: pages + HUGE_2M_PAGES,
                procs: vec![(pages, PageSize::Huge2M)],
                migration: MigrationSpec {
                    inflight_slots: 1,
                    backlog_cap: Nanos::from_millis(10),
                },
                fault_plan: None,
            };
        }
        let fast_frames = 32 << rng.below(self.fast_shifts);
        let mid_frames = self.mid_x.map(|x| fast_frames * x);
        let slow_frames = fast_frames * 8;
        let nprocs = 1 + rng.below(self.max_procs) as usize;
        let (num, den) = self.budget;
        let budget = (fast_frames + mid_frames.unwrap_or(0) + slow_frames) * num / den;
        let per = (budget / nprocs as u32).max(8);
        let procs = (0..nprocs)
            .map(|_| (per / 2 + rng.below(per as u64 / 2) as u32, PageSize::Base))
            .collect();
        // Small slot counts exercise Backpressure; reservations stay within
        // the slack the page budget leaves free.
        let migration = MigrationSpec {
            inflight_slots: 1 + rng.below(self.max_slots) as usize,
            backlog_cap: Nanos::from_micros(1 + rng.below(self.max_backlog_us)),
        };
        CaseConfig {
            fast_frames,
            mid_frames,
            slow_frames,
            procs,
            migration,
            fault_plan: self.storm.then(|| FaultPlan::storm(seed)),
        }
    }
}

/// How an op draws its destination or target tier.
#[derive(Debug, Clone, Copy)]
pub enum TierDraw {
    /// Tier 0, without a draw.
    Fast,
    /// Tier 0 with the given probability, else tier 1.
    Coin(f64),
    /// Uniform over the case's chain.
    Any,
}

impl TierDraw {
    fn draw(self, rng: &mut DetRng, tiers: u64) -> u8 {
        match self {
            TierDraw::Fast => 0,
            TierDraw::Coin(p) => u8::from(!rng.chance(p)),
            TierDraw::Any => rng.below(tiers) as u8,
        }
    }
}

/// One arm of an op mix: the op it emits and how that op's arguments are
/// drawn. Ops that take a page use the pid and vpn every roll draws first.
#[derive(Debug, Clone, Copy)]
pub enum Arm {
    /// [`FuzzOp::Access`], a store with the given probability.
    Access(f64),
    /// [`FuzzOp::Migrate`] to a drawn tier.
    Migrate(TierDraw),
    /// [`FuzzOp::BeginMigrate`] to a drawn tier.
    BeginMigrate(TierDraw),
    /// [`FuzzOp::PromoteReclaim`].
    PromoteReclaim,
    /// [`FuzzOp::SwapOut`].
    SwapOut,
    /// [`FuzzOp::PopVictim`] from a drawn tier.
    PopVictim(TierDraw),
    /// [`FuzzOp::AgeActive`] on a drawn tier, budget `1..=16`.
    AgeActive(TierDraw),
    /// [`FuzzOp::LruMove`] onto a coin-flipped list.
    LruMove,
    /// [`FuzzOp::Split`].
    Split,
    /// [`FuzzOp::RetunePro`] to a rate below 512 MiB/s.
    RetunePro,
    /// [`FuzzOp::Advance`] by up to the given number of µs.
    Advance(u64),
    /// [`FuzzOp::PoisonFrame`].
    PoisonFrame,
    /// [`FuzzOp::ShrinkFast`] by `1..=4` frames while the schedule's
    /// cumulative shrink stays within a quarter of the fast tier, so
    /// capacity churn cannot starve the page budget; [`FuzzOp::GrowFast`]
    /// by the same count past that.
    ShrinkOrGrow,
    /// [`FuzzOp::GrowFast`] by `1..=4` frames.
    GrowFast,
    /// [`FuzzOp::Degrade`] of a drawn tier for `1..=2000` µs at 2–7× cost.
    Degrade(TierDraw),
}

/// A weighted op mix: each op draws a pid, a vpn and a roll in `0..100`,
/// and the roll picks the arm that draws the op's arguments.
/// [`FuzzOp::CorruptPfn`] is never generated — corruption enters only via
/// the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Xored into the seed before the first draw.
    pub salt: u64,
    /// `(last roll, arm)` in roll order: a roll picks the first arm whose
    /// last roll is at least the roll. The final entry ends at 99.
    pub arms: &'static [(u64, Arm)],
}

impl Mix {
    /// Generates `count` in-range ops for `cfg` from a seed.
    pub fn generate(&self, cfg: &CaseConfig, seed: u64, count: usize) -> Vec<FuzzOp> {
        let mut rng = DetRng::seed(seed ^ self.salt);
        let tiers = cfg.num_tiers() as u64;
        let nprocs = cfg.procs.len() as u64;
        let shrink_cap = cfg.fast_frames / 4;
        let mut shrunk = 0u32;
        let mut op = || {
            let pid = rng.below(nprocs) as u16;
            let vpn = rng.below(cfg.total_pages(pid) as u64) as u32;
            let roll = rng.below(100);
            let &(_, arm) = self
                .arms
                .iter()
                .find(|&&(last, _)| roll <= last)
                .expect("a mix's arms cover every roll");
            match arm {
                Arm::Access(write) => FuzzOp::Access {
                    pid,
                    vpn,
                    write: rng.chance(write),
                },
                Arm::Migrate(t) => FuzzOp::Migrate {
                    pid,
                    vpn,
                    to: t.draw(&mut rng, tiers),
                },
                Arm::BeginMigrate(t) => FuzzOp::BeginMigrate {
                    pid,
                    vpn,
                    to: t.draw(&mut rng, tiers),
                },
                Arm::PromoteReclaim => FuzzOp::PromoteReclaim { pid, vpn },
                Arm::SwapOut => FuzzOp::SwapOut { pid, vpn },
                Arm::PopVictim(t) => FuzzOp::PopVictim {
                    tier: t.draw(&mut rng, tiers),
                },
                Arm::AgeActive(t) => FuzzOp::AgeActive {
                    tier: t.draw(&mut rng, tiers),
                    budget: 1 + rng.below(16) as u8,
                },
                Arm::LruMove => FuzzOp::LruMove {
                    pid,
                    vpn,
                    active: rng.chance(0.5),
                },
                Arm::Split => FuzzOp::Split { pid, vpn },
                Arm::RetunePro => FuzzOp::RetunePro {
                    rate_mib_per_sec: rng.below(512) as u16,
                },
                Arm::Advance(longest) => FuzzOp::Advance {
                    micros: 1 + rng.below(longest) as u32,
                },
                Arm::PoisonFrame => FuzzOp::PoisonFrame { pid, vpn },
                Arm::ShrinkOrGrow => {
                    let frames = 1 + rng.below(4) as u8;
                    if shrunk + frames as u32 <= shrink_cap {
                        shrunk += frames as u32;
                        FuzzOp::ShrinkFast { frames }
                    } else {
                        FuzzOp::GrowFast { frames }
                    }
                }
                Arm::GrowFast => FuzzOp::GrowFast {
                    frames: 1 + rng.below(4) as u8,
                },
                Arm::Degrade(t) => FuzzOp::Degrade {
                    tier: t.draw(&mut rng, tiers),
                    micros: 1 + rng.below(2000) as u16,
                    cost_x: 2 + rng.below(6) as u8,
                },
            }
        };
        (0..count).map(|_| op()).collect()
    }
}

/// Applies one op to the system. Mechanism-level `Err` returns (not present,
/// same tier, no space) are expected outcomes, not failures.
pub fn apply_op(sys: &mut TieredSystem, op: FuzzOp) {
    match op {
        FuzzOp::Access { pid, vpn, write } => {
            sys.access(ProcessId(pid), Vpn(vpn), write);
        }
        FuzzOp::Migrate { pid, vpn, to } => {
            let _ = sys.migrate(ProcessId(pid), Vpn(vpn), TierId(to), MigrateMode::Async);
        }
        FuzzOp::BeginMigrate { pid, vpn, to } => {
            let _ = sys.begin_migrate(ProcessId(pid), Vpn(vpn), TierId(to), MigrateMode::Async);
        }
        FuzzOp::PromoteReclaim { pid, vpn } => {
            let (pid, vpn) = (ProcessId(pid), Vpn(vpn));
            let _ = sys.promote_with_reclaim_to(pid, vpn, TierId::FAST, MigrateMode::Async);
        }
        FuzzOp::SwapOut { pid, vpn } => {
            let _ = sys.swap_out(ProcessId(pid), Vpn(vpn));
        }
        FuzzOp::PopVictim { tier } => {
            let _ = sys.pop_inactive_victim(TierId(tier));
        }
        FuzzOp::AgeActive { tier, budget } => {
            sys.age_active_list(TierId(tier), budget as u32);
        }
        FuzzOp::LruMove { pid, vpn, active } => {
            let pid = ProcessId(pid);
            let head = sys.process(pid).space.pte_page(Vpn(vpn));
            if sys.process(pid).space.entry(head).present() {
                let kind = if active {
                    LruKind::Active
                } else {
                    LruKind::Inactive
                };
                sys.lru_remove(pid, head);
                sys.lru_insert(pid, head, kind);
            }
        }
        FuzzOp::Split { pid, vpn } => {
            let pid = ProcessId(pid);
            let head = Vpn(vpn).huge_head();
            if sys.process(pid).space.is_huge_mapped(head) {
                // Goes through the system so an in-flight migration of the
                // block aborts before the PTE granularity changes.
                sys.split_block(pid, head);
            }
        }
        FuzzOp::RetunePro { rate_mib_per_sec } => {
            let total = sys.total_frames(TierId::FAST);
            sys.watermarks.retune_pro(
                total,
                Nanos::from_millis(100),
                rate_mib_per_sec as u64 * 1024 * 1024,
            );
        }
        FuzzOp::Advance { micros } => {
            sys.clock.advance(Nanos(micros as u64 * 1000));
            // The driver pumps completions at every clock advance; the fuzz
            // schedule mirrors it so in-flight transactions actually retire.
            sys.complete_due_migrations();
        }
        FuzzOp::PoisonFrame { pid, vpn } => {
            let pid = ProcessId(pid);
            let head = sys.process(pid).space.pte_page(Vpn(vpn));
            let e = sys.process(pid).space.entry(head);
            if e.present() {
                let (pfn, tier) = (e.pfn, e.tier());
                sys.poison_frame(tier, pfn);
            }
        }
        FuzzOp::ShrinkFast { frames } => {
            sys.shrink_tier(TierId::FAST, frames as u32);
        }
        FuzzOp::GrowFast { frames } => {
            sys.grow_tier(TierId::FAST, frames as u32);
        }
        FuzzOp::Degrade {
            tier,
            micros,
            cost_x,
        } => {
            let now = sys.clock.now();
            sys.degrade_channel(DegradeWindow {
                tier: TierId(tier),
                from: now,
                until: now + Nanos::from_micros(u64::from(micros)),
                cost_multiplier: cost_x as f64,
            });
        }
        FuzzOp::CorruptPfn { pid, src, dst } => {
            let pid = ProcessId(pid);
            let space = &sys.process(pid).space;
            let (s, d) = (space.entry(Vpn(src)), space.entry(Vpn(dst)));
            if src != dst && !s.pfn.is_none() && !d.pfn.is_none() {
                let (stolen, tier) = (s.pfn, s.tier());
                let e = sys.process_mut(pid).space.entry_mut(Vpn(dst));
                e.pfn = stolen;
                e.flags.set_tier(tier);
            }
        }
    }
}

/// How a schedule run failed.
#[derive(Debug, Clone)]
pub struct OpsFailure {
    /// Index of the op after which the failure surfaced.
    pub op_index: usize,
    /// The op itself.
    pub op: FuzzOp,
    /// Oracle violations (empty when the run panicked instead).
    pub violations: Vec<Violation>,
    /// Panic payload, when the substrate itself panicked.
    pub panic: Option<String>,
}

impl std::fmt::Display for OpsFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "after op {} ({:?}): ", self.op_index, self.op)?;
        if let Some(p) = &self.panic {
            write!(f, "panic: {p}")?;
        }
        for v in &self.violations {
            write!(f, "\n    {v}")?;
        }
        Ok(())
    }
}

/// Runs a schedule against a fresh system built from `cfg`, checking every
/// invariant after every op. Substrate panics (e.g. a frame-table double
/// free) are caught and reported as failures too, so the shrinker can
/// minimize panicking schedules. Returns the first failure, or the final
/// system when every op passed.
pub fn run_case(cfg: &CaseConfig, ops: &[FuzzOp]) -> Result<TieredSystem, OpsFailure> {
    // The closure owns everything it touches, so unwinding cannot leave
    // observable broken state (the system is dropped either way).
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut sys = cfg.build();
        let mut oracle = InvariantOracle::new();
        for (i, &op) in ops.iter().enumerate() {
            apply_op(&mut sys, op);
            let violations = oracle.check(&sys);
            if !violations.is_empty() {
                return Err(OpsFailure {
                    op_index: i,
                    op,
                    violations,
                    panic: None,
                });
            }
        }
        Ok(sys)
    }));
    match caught {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(OpsFailure {
                op_index: ops.len(),
                op: *ops.last().expect("empty schedule cannot panic"),
                violations: Vec::new(),
                panic: Some(msg),
            })
        }
    }
}

/// A fuzz failure shrunk to a minimal reproducing schedule.
#[derive(Debug, Clone)]
pub struct ShrunkFailure {
    /// Seed the case and schedule were derived from.
    pub seed: u64,
    /// Length of the original failing schedule.
    pub original_len: usize,
    /// The minimal schedule that still fails.
    pub ops: Vec<FuzzOp>,
    /// The failure the minimal schedule produces.
    pub failure: OpsFailure,
    /// The case shape (needed to replay).
    pub config: CaseConfig,
}

impl std::fmt::Display for ShrunkFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seed {:#018x}: failure shrunk {} -> {} ops",
            self.seed,
            self.original_len,
            self.ops.len()
        )?;
        writeln!(f, "  config: {}", self.config)?;
        writeln!(f, "  {}", self.failure)?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  [{i:4}] {op:?}")?;
        }
        Ok(())
    }
}

/// Runs and (on failure) shrinks an explicit schedule. Used by the profile
/// runner and by the self-test, which appends an injected corruption op.
pub fn fuzz_ops(seed: u64, cfg: &CaseConfig, ops: Vec<FuzzOp>) -> Option<ShrunkFailure> {
    if run_case(cfg, &ops).is_ok() {
        return None;
    }
    let original_len = ops.len();
    let minimal = crate::shrink::shrink_ops(&ops, |candidate| run_case(cfg, candidate).is_err());
    let failure = run_case(cfg, &minimal)
        .err()
        .expect("shrinker must preserve failure");
    Some(ShrunkFailure {
        seed,
        original_len,
        ops: minimal,
        failure,
        config: cfg.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_line_names_the_middle_tier_and_fault_plan() {
        let mut cfg = crate::profile::CLEAN.schedule(0, 0).unwrap().0;
        assert!(!cfg.to_string().contains("mid") && !cfg.to_string().contains("fault"));
        cfg.mid_frames = Some(96);
        cfg.fault_plan = Some(FaultPlan::storm(7));
        let line = cfg.to_string();
        assert!(line.contains(" mid 96 slow "), "{line}");
        assert!(line.contains("fault plan FaultPlan { seed: 7"), "{line}");
    }
}
