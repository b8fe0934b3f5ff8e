//! The policy registry: the one place a named policy becomes a configured
//! object. Harness figures, `harness run` fleets, fuzz cases, goldens and
//! the benchmark all build through [`PolicyKind`], at a [`Scale`] that
//! carries the time constants every configuration derives from and the
//! [`Topology`] the chain is built on.
//!
//! A kind has two printed names (DESIGN.md §5.3): [`PolicyKind::name`] is
//! the figure legend and [`PolicyKind::id`] the golden-table and
//! `harness run --policy` spelling. Chrono is built as a standalone
//! [`ChronoPolicy`] on two tiers and as a [`CascadeChrono`] on longer
//! chains; the two agree on healthy chains, but only the cascade reacts to
//! tier outages.

use chrono_core::{CascadeChrono, ChronoConfig, ChronoPolicy, TuningMode};
use sim_clock::Nanos;
use tiered_mem::{FaultPlan, MigrationSpec, PageSize, SystemConfig, TierId};
use tiering_policies::{
    autotiering::AutoTieringConfig, linux_nb::LinuxNbConfig, multiclock::MultiClockConfig,
    tpp::TppConfig, AutoTiering, FlexMem, FlexMemConfig, LinuxNumaBalancing, Memtis, MemtisConfig,
    MultiClock, NullPolicy, Telescope, TelescopeConfig, TieringPolicy, Tpp,
};

/// Simulation time scale shared by all experiments.
///
/// The paper's wall-clock parameters (60 s scan period, 1500 s runs) are
/// compressed so a figure regenerates in seconds-to-minutes of host time
/// while preserving the ratios that drive behaviour: accesses per page per
/// scan period, scan periods per run, and promotion-rate fractions of the
/// fast tier (DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Ticking-scan / NUMA-scan full-pass period.
    pub scan_period: Nanos,
    /// Pages per scan chunk.
    pub scan_step: u32,
    /// Simulated run length.
    pub run_for: Nanos,
    /// Mean accesses per PEBS sample for Memtis (models the hardware cap
    /// relative to the compressed access rate).
    pub memtis_sample_period: u64,
    /// Migration-engine admission bounds override (the CLI
    /// `--inflight-slots` / `--migration-backlog-cap` knobs); `None` keeps
    /// the library defaults.
    pub migration: Option<MigrationSpec>,
    /// Fault-plan selection (the CLI `--fault-plan` knob); `None` runs
    /// fault-free. Materialized per run because the canonical plan schedules
    /// its capacity shrink relative to the run length.
    pub fault: Option<FaultPlanKind>,
    /// Seed for the fault plan's private RNG (the CLI `--fault-seed` knob).
    pub fault_seed: u64,
    /// Tier-chain shape (the CLI `--topology` knob). The default,
    /// [`Topology::DramPmem`], reproduces every pre-existing run bit for bit.
    pub topology: Topology,
}

/// The named tier-chain shapes the CLI can run experiments on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The paper's testbed: DRAM on top, Optane PMem below (25 % fast).
    DramPmem,
    /// DRAM over CXL memory — same shape, cheaper, symmetric bottom tier.
    DramCxl,
    /// Hot/warm/cold chain: DRAM, CXL, PMem (1/8 : 1/4 : 5/8 of the total).
    ThreeTier,
}

impl Topology {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Topology> {
        match name {
            "dram-pmem" => Some(Topology::DramPmem),
            "dram-cxl" => Some(Topology::DramCxl),
            "three-tier" => Some(Topology::ThreeTier),
            _ => None,
        }
    }

    /// Stable display name (the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Topology::DramPmem => "dram-pmem",
            Topology::DramCxl => "dram-cxl",
            Topology::ThreeTier => "three-tier",
        }
    }

    /// Managed tiers in this shape's chain.
    pub fn num_tiers(&self) -> usize {
        match self {
            Topology::DramPmem | Topology::DramCxl => 2,
            Topology::ThreeTier => 3,
        }
    }

    /// Builds the system configuration over `total_frames` of capacity. The
    /// two-tier shapes keep the paper's 25 % fast share; the three-tier
    /// chain splits 1/8 DRAM : 1/4 CXL : 5/8 PMem.
    pub fn system_config(&self, total_frames: u32) -> SystemConfig {
        match self {
            Topology::DramPmem => SystemConfig::quarter_fast(total_frames),
            Topology::DramCxl => {
                let fast = total_frames / 4;
                SystemConfig::dram_cxl(fast, total_frames - fast)
            }
            Topology::ThreeTier => {
                let fast = total_frames / 8;
                let mid = total_frames / 4;
                SystemConfig::three_tier(fast, mid, total_frames - fast - mid)
            }
        }
    }

    /// Builds the system configuration over an exact per-tier frame split —
    /// the form a tenant's slice of a [`tiered_mem::PartitionPlan`] comes
    /// in. Unlike [`Self::system_config`] no share heuristic is applied; the
    /// partition already decided the split.
    pub fn partition_config(&self, part: &tiered_mem::FramePartition) -> SystemConfig {
        match self {
            Topology::DramPmem => {
                SystemConfig::dram_pmem(part.frames(TierId(0)), part.frames(TierId(1)))
            }
            Topology::DramCxl => {
                SystemConfig::dram_cxl(part.frames(TierId(0)), part.frames(TierId(1)))
            }
            Topology::ThreeTier => SystemConfig::three_tier(
                part.frames(TierId(0)),
                part.frames(TierId(1)),
                part.frames(TierId(2)),
            ),
        }
    }
}

/// The named fault plans the CLI can attach to every experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanKind {
    /// The acceptance-bar chaos plan: 1 % transient copy failure, 0.01 %
    /// poison, one 25 % fast-tier shrink at the middle of the run.
    Canonical,
    /// High-rate storm (fuzz-grade probabilities, no capacity events).
    Storm,
    /// Plan attached but inert: no probabilistic faults, no events. Useful
    /// to confirm the fault plumbing itself does not perturb digests.
    Inert,
    /// The three-tier failure arc: mid-run degrade, offline (live
    /// evacuation + splice), and rejoin of the CXL mid tier, plus the
    /// canonical probabilistic faults. Requires `--topology three-tier`.
    Canonical3,
    /// High-rate storm plus rapid offline/online flapping across the
    /// lower tiers of a three-tier chain. Requires `--topology three-tier`.
    Storm3,
}

impl FaultPlanKind {
    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<FaultPlanKind> {
        match name {
            "canonical" => Some(FaultPlanKind::Canonical),
            "storm" => Some(FaultPlanKind::Storm),
            "inert" => Some(FaultPlanKind::Inert),
            "canonical3" => Some(FaultPlanKind::Canonical3),
            "storm3" => Some(FaultPlanKind::Storm3),
            _ => None,
        }
    }

    /// Stable display name (the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlanKind::Canonical => "canonical",
            FaultPlanKind::Storm => "storm",
            FaultPlanKind::Inert => "inert",
            FaultPlanKind::Canonical3 => "canonical3",
            FaultPlanKind::Storm3 => "storm3",
        }
    }

    /// Materializes the plan for a run of length `run_for`.
    pub fn materialize(&self, seed: u64, run_for: Nanos) -> FaultPlan {
        match self {
            FaultPlanKind::Canonical => FaultPlan::canonical(seed, run_for),
            FaultPlanKind::Storm => FaultPlan::storm(seed),
            FaultPlanKind::Inert => FaultPlan::inert(seed),
            FaultPlanKind::Canonical3 => FaultPlan::canonical3(seed, run_for),
            FaultPlanKind::Storm3 => FaultPlan::storm3(seed, run_for),
        }
    }

    /// Checks the plan against a chain of `num_tiers` managed tiers: every
    /// tier event must name a tier the topology actually has (and never
    /// the top tier). `Err` carries the offending event's description.
    pub fn validate_for_topology(&self, num_tiers: usize) -> Result<(), String> {
        // The events are deterministic in the plan kind alone, so a probe
        // materialization with fixed seed/length sees every scheduled tier.
        self.materialize(0, Nanos::from_millis(1000))
            .validate_for(num_tiers)
    }
}

impl Scale {
    /// The default compressed scale: 100 ms scan periods, 1.5 s runs
    /// (15 scan periods, matching the paper's 1500 s / 60 s ≈ 25 in order of
    /// magnitude).
    pub fn default_scale() -> Scale {
        Scale {
            scan_period: Nanos::from_millis(100),
            scan_step: 1024,
            run_for: Nanos::from_millis(1500),
            memtis_sample_period: 8192,
            migration: None,
            fault: None,
            fault_seed: 0xFA17,
            topology: Topology::DramPmem,
        }
    }

    /// The fuzz scale of every policy case, golden and `harness run` fleet:
    /// 5 ms scan periods over 512-page steps, and a PEBS period of 512 so
    /// the sampled policies see a few samples per page within a short run.
    /// Cases pick their own run length.
    pub fn fuzz_scale() -> Scale {
        Scale {
            scan_period: Nanos::from_millis(5),
            scan_step: 512,
            memtis_sample_period: 512,
            ..Scale::default_scale()
        }
    }

    /// Multiplies the run length (the CLI `--scale` knob).
    pub fn with_run_multiplier(mut self, k: u64) -> Scale {
        self.run_for = self.run_for * k;
        self
    }
}

/// The rate limit, in bytes/second, of the Chrono variants that take an
/// expert-provided one. The paper configures Chrono-manual with the
/// per-minute averages of the adaptive tuning results (~120 MB/s stable).
const EXPERT_RATE_LIMIT: u64 = 120 * 1024 * 1024;

/// The named policies: the paper's evaluation, the two Table 1 policies
/// the figures do not plot, and the Chrono variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-touch placement, no migration (control).
    Static,
    /// Linux NUMA balancing in tiering mode.
    LinuxNb,
    /// Auto-Tiering (OPM-BD).
    AutoTiering,
    /// Multi-Clock.
    MultiClock,
    /// TPP.
    Tpp,
    /// Memtis (PEBS + histogram), on huge pages ([`PolicyKind::page_size`]).
    Memtis,
    /// FlexMem (PEBS + timeliness hint faults).
    FlexMem,
    /// Telescope (tree-structured region profiling).
    Telescope,
    /// Chrono, full configuration (2-round filtering + DCSC).
    Chrono,
    /// Chrono ablations (Fig 13).
    ChronoBasic,
    /// Two-round filtering, semi-auto tuning.
    ChronoTwice,
    /// Three-round filtering, semi-auto tuning.
    ChronoThrice,
    /// Semi-auto tuning with an expert-provided rate limit (Fig 13
    /// "Chrono-manual").
    ChronoManual,
    /// Fully manual tuning: the threshold stays at its initial value and
    /// the rate limit at the expert one.
    ChronoFixed,
}

impl PolicyKind {
    /// The six policies of the main evaluation figures.
    pub const MAIN: [PolicyKind; 6] = [
        PolicyKind::LinuxNb,
        PolicyKind::AutoTiering,
        PolicyKind::MultiClock,
        PolicyKind::Tpp,
        PolicyKind::Memtis,
        PolicyKind::Chrono,
    ];

    /// The Fig 13 design-choice variants.
    pub const ABLATION: [PolicyKind; 6] = [
        PolicyKind::LinuxNb,
        PolicyKind::ChronoBasic,
        PolicyKind::ChronoTwice,
        PolicyKind::ChronoThrice,
        PolicyKind::Chrono,
        PolicyKind::ChronoManual,
    ];

    /// Every policy the fuzz layer, the goldens and `harness run` exercise,
    /// in the stable order the golden tables rely on.
    pub const FUZZED: [PolicyKind; 10] = [
        PolicyKind::LinuxNb,
        PolicyKind::AutoTiering,
        PolicyKind::MultiClock,
        PolicyKind::Tpp,
        PolicyKind::Memtis,
        PolicyKind::FlexMem,
        PolicyKind::Telescope,
        PolicyKind::Chrono,
        PolicyKind::ChronoTwice,
        PolicyKind::ChronoFixed,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Static => "Static",
            PolicyKind::LinuxNb => "Linux-NB",
            PolicyKind::AutoTiering => "AutoTiering",
            PolicyKind::MultiClock => "MultiClock",
            PolicyKind::Tpp => "TPP",
            PolicyKind::Memtis => "Memtis",
            PolicyKind::FlexMem => "FlexMem",
            PolicyKind::Telescope => "Telescope",
            PolicyKind::Chrono => "Chrono",
            PolicyKind::ChronoBasic => "Chrono-basic",
            PolicyKind::ChronoTwice => "Chrono-twice",
            PolicyKind::ChronoThrice => "Chrono-thrice",
            PolicyKind::ChronoManual => "Chrono-manual",
            PolicyKind::ChronoFixed => "Chrono-fixed",
        }
    }

    /// Stable lower-case identifier: the golden-table row label and the
    /// `harness run --policy` spelling. It names the tuning mode, so the
    /// legend's "Chrono-manual" (semi-auto) is `chrono-expert-rate` while
    /// `chrono-manual` is the fully manual [`PolicyKind::ChronoFixed`].
    pub fn id(&self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::LinuxNb => "linux-nb",
            PolicyKind::AutoTiering => "autotiering",
            PolicyKind::MultiClock => "multiclock",
            PolicyKind::Tpp => "tpp",
            PolicyKind::Memtis => "memtis",
            PolicyKind::FlexMem => "flexmem",
            PolicyKind::Telescope => "telescope",
            PolicyKind::Chrono => "chrono-dcsc",
            PolicyKind::ChronoBasic => "chrono-basic",
            PolicyKind::ChronoTwice => "chrono-semiauto",
            PolicyKind::ChronoThrice => "chrono-thrice",
            PolicyKind::ChronoManual => "chrono-expert-rate",
            PolicyKind::ChronoFixed => "chrono-manual",
        }
    }

    /// The page size the figures run this policy at: Memtis runs huge pages,
    /// its recommended setting; every other policy runs base pages.
    pub fn page_size(&self) -> PageSize {
        if *self == PolicyKind::Memtis {
            PageSize::Huge2M
        } else {
            PageSize::Base
        }
    }

    /// Whether this policy embeds Chrono's promotion queue (and therefore
    /// must satisfy queue-flow conservation).
    pub fn is_chrono(&self) -> bool {
        matches!(
            self,
            PolicyKind::Chrono
                | PolicyKind::ChronoBasic
                | PolicyKind::ChronoTwice
                | PolicyKind::ChronoThrice
                | PolicyKind::ChronoManual
                | PolicyKind::ChronoFixed
        )
    }

    /// Builds the policy at the given scale and topology as a trait object.
    pub fn build(&self, scale: &Scale) -> Box<dyn TieringPolicy> {
        self.instantiate(scale).into_dyn()
    }

    /// Builds the policy at the given scale and topology, with Chrono held
    /// concretely. On a chain longer than two tiers the Chrono variants
    /// come back as a [`CascadeChrono`] (one pair per edge) and TPP /
    /// Multi-Clock as their hop-wise N-tier generalizations; the remaining
    /// baselines have no chain-aware variant and run their classic two-tier
    /// logic against the top edge.
    pub fn instantiate(&self, scale: &Scale) -> PolicyInstance {
        let sp = scale.scan_period;
        let step = scale.scan_step;
        let tiers = scale.topology.num_tiers();
        // Chrono variants: a standalone pair on two tiers (the bit-pinned
        // classic shape), a cascade on longer chains.
        let chrono = |cfg: ChronoConfig| {
            if tiers == 2 {
                PolicyInstance::Pair(Box::new(ChronoPolicy::new(cfg)))
            } else {
                PolicyInstance::Cascade(CascadeChrono::new(cfg, tiers))
            }
        };
        let other = |p: Box<dyn TieringPolicy>| PolicyInstance::Other(p);
        match self {
            PolicyKind::Static => other(Box::new(NullPolicy)),
            PolicyKind::LinuxNb => other(Box::new(LinuxNumaBalancing::new(LinuxNbConfig {
                scan_period: sp,
                scan_step_pages: step,
                promote_tier_frac_per_period: 0.23,
            }))),
            PolicyKind::AutoTiering => other(Box::new(AutoTiering::new(AutoTieringConfig {
                scan_period: sp,
                scan_step_pages: step,
                hot_lap_bits: 2,
                demote_interval: sp / 4,
            }))),
            PolicyKind::MultiClock => other(Box::new(MultiClock::for_tiers(
                MultiClockConfig {
                    sweep_period: sp,
                    sweep_step_pages: step,
                    levels: 4,
                    promote_level: 3,
                    demote_interval: sp / 4,
                },
                tiers,
            ))),
            PolicyKind::Tpp => other(Box::new(Tpp::for_tiers(
                TppConfig {
                    scan_period: sp,
                    scan_step_pages: step,
                    demote_interval: sp / 4,
                },
                tiers,
            ))),
            PolicyKind::Memtis => other(Box::new(Memtis::new(MemtisConfig {
                sample_period: scale.memtis_sample_period,
                migrate_interval: sp / 10,
                cooling_interval: sp * 4,
                adjust_interval: sp / 2,
                fast_fill_ratio: 0.95,
                split_enabled: true,
                seed: 0x4D454D,
            }))),
            // The fuzz-scale settings; `ext-baselines` runs its own.
            PolicyKind::FlexMem => other(Box::new(FlexMem::new(FlexMemConfig {
                sample_period: 509,
                scan_period: sp,
                scan_step_pages: step,
                migrate_interval: sp / 10,
                cooling_interval: sp * 4,
                hot_counter: 4,
                demote_interval: sp / 4,
                seed: 0xF1E4,
            }))),
            PolicyKind::Telescope => other(Box::new(Telescope::new(TelescopeConfig {
                window: sp / 8,
                frontier_budget: 512,
                hot_windows: 2,
                demote_interval: sp / 2,
            }))),
            PolicyKind::Chrono => chrono(self.chrono_config(scale)),
            PolicyKind::ChronoBasic => chrono(self.chrono_config(scale).variant_basic()),
            PolicyKind::ChronoTwice => chrono(self.chrono_config(scale).variant_twice()),
            PolicyKind::ChronoThrice => chrono(self.chrono_config(scale).variant_thrice()),
            PolicyKind::ChronoManual => {
                chrono(self.chrono_config(scale).variant_manual(EXPERT_RATE_LIMIT))
            }
            PolicyKind::ChronoFixed => {
                let base = self.chrono_config(scale);
                chrono(ChronoConfig {
                    tuning: TuningMode::Manual {
                        cit_threshold: base.initial_cit_threshold,
                        rate_limit: EXPERT_RATE_LIMIT,
                    },
                    ..base
                })
            }
        }
    }

    /// The scaled Chrono configuration used by all Chrono variants.
    pub fn chrono_config(&self, scale: &Scale) -> ChronoConfig {
        ChronoConfig {
            // Denser probing than the paper's 0.003 % because the scaled
            // systems have ~10^4–10^5 pages rather than 6×10^7; the probe
            // *count per DCSC round* (a few thousand on the testbed) is the
            // quantity preserved.
            p_victim: 0.002,
            ..ChronoConfig::scaled(scale.scan_period, scale.scan_step)
        }
    }
}

/// A built policy: Chrono held concretely, so a caller can read its pairs'
/// queue and retry flows after the run; everything else behind the trait
/// object.
pub enum PolicyInstance {
    /// A Chrono variant on a two-tier chain: one standalone pair.
    Pair(Box<ChronoPolicy>),
    /// A Chrono variant on a longer chain: one pair per edge.
    Cascade(CascadeChrono),
    /// Any other policy.
    Other(Box<dyn TieringPolicy>),
}

impl PolicyInstance {
    /// The policy as the driver takes it.
    pub fn as_dyn(&mut self) -> &mut dyn TieringPolicy {
        match self {
            PolicyInstance::Pair(p) => &mut **p,
            PolicyInstance::Cascade(c) => c,
            PolicyInstance::Other(b) => &mut **b,
        }
    }

    /// The policy as a tenant shard holds it.
    pub fn into_dyn(self) -> Box<dyn TieringPolicy> {
        match self {
            PolicyInstance::Pair(p) => p,
            PolicyInstance::Cascade(c) => Box::new(c),
            PolicyInstance::Other(b) => b,
        }
    }

    /// The Chrono pairs, top edge first; empty for any other policy.
    pub fn chrono_pairs(&self) -> &[ChronoPolicy] {
        match self {
            PolicyInstance::Pair(p) => std::slice::from_ref(&**p),
            PolicyInstance::Cascade(c) => c.pairs(),
            PolicyInstance::Other(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_variants_build() {
        let scale = Scale {
            run_for: Nanos::from_millis(20),
            ..Scale::default_scale()
        };
        for kind in PolicyKind::ABLATION {
            let p = kind.build(&scale);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn chrono_is_a_pair_on_two_tiers_and_a_cascade_on_three() {
        for kind in PolicyKind::FUZZED {
            for (topology, pairs) in [(Topology::DramPmem, 1), (Topology::ThreeTier, 2)] {
                let scale = Scale {
                    topology,
                    ..Scale::fuzz_scale()
                };
                let built = kind.instantiate(&scale);
                let want = if kind.is_chrono() { pairs } else { 0 };
                assert_eq!(built.chrono_pairs().len(), want, "{kind:?} on {topology:?}");
            }
        }
    }

    #[test]
    fn topology_parses_and_shapes_systems() {
        assert_eq!(Topology::parse("dram-pmem"), Some(Topology::DramPmem));
        assert_eq!(Topology::parse("dram-cxl"), Some(Topology::DramCxl));
        assert_eq!(Topology::parse("three-tier"), Some(Topology::ThreeTier));
        assert_eq!(Topology::parse("four-tier"), None);
        let cfg = Topology::ThreeTier.system_config(4096);
        assert_eq!(cfg.num_tiers(), 3);
        assert_eq!(cfg.total_frames(), 4096);
        // The default shape is bit-for-bit the classic quarter split.
        let a = Topology::DramPmem.system_config(2048);
        assert_eq!(a.fast().frames, 512);
        assert_eq!(a.slow().frames, 1536);
    }

    #[test]
    fn scale_multiplier_extends_runs() {
        let s = Scale::default_scale().with_run_multiplier(3);
        assert_eq!(s.run_for, Nanos::from_millis(4500));
    }

    #[test]
    fn fault_plan_kinds_parse_and_materialize() {
        assert_eq!(
            FaultPlanKind::parse("canonical"),
            Some(FaultPlanKind::Canonical)
        );
        assert_eq!(FaultPlanKind::parse("storm"), Some(FaultPlanKind::Storm));
        assert_eq!(FaultPlanKind::parse("inert"), Some(FaultPlanKind::Inert));
        assert_eq!(FaultPlanKind::parse("chaos"), None);
        let p = FaultPlanKind::Canonical.materialize(9, Nanos::from_millis(100));
        assert_eq!(p.capacity_events.len(), 1);
        assert_eq!(p.capacity_events[0].at, Nanos::from_millis(50));
        assert!(
            FaultPlanKind::Inert
                .materialize(9, Nanos::ZERO)
                .copy_transient
                == 0.0
        );
    }
}
