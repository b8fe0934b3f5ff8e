//! A pmbench-style paging microbenchmark.
//!
//! Models the workload of Sections 2.4 and 5.1: each process owns a private
//! working set and issues single-page accesses drawn from a configurable
//! pattern, with a read/write ratio and an optional per-access `delay` (the
//! Fig 9 knob: process *i* stalls `i` units of 50 cycles before each access,
//! grading the processes' access frequencies).

use sim_clock::{DetRng, Nanos};
use tiered_mem::Vpn;

use crate::pattern::{AccessPattern, GaussianPattern, UniformPattern};
use crate::{AccessReq, Workload};

/// Nanoseconds per pmbench delay unit: 50 cycles at the paper's 2.6 GHz.
pub const DELAY_UNIT: Nanos = Nanos(19);

/// Configuration of one pmbench process.
#[derive(Debug, Clone)]
pub struct PmbenchConfig {
    /// Working-set size in base pages.
    pub pages: u32,
    /// Read fraction (e.g. 0.95 for the paper's 95:5 ratio).
    pub read_ratio: f64,
    /// Delay units (50-cycle stalls) added before every access.
    pub delay_units: u32,
    /// Access pattern selection.
    pub pattern: PmbenchPattern,
    /// RNG seed for this process.
    pub seed: u64,
    /// Total accesses to issue after the sequential init pass; `u64::MAX`
    /// for "until the driver stops us".
    pub total_accesses: u64,
}

/// The pmbench access patterns used in the paper.
#[derive(Debug, Clone)]
pub enum PmbenchPattern {
    /// `normal_ih` with a stride (Section 5.1 uses stride 2).
    Gaussian {
        /// Stride applied to the Gaussian slot index.
        stride: u32,
        /// σ as a fraction of the logical index range.
        sigma_frac: f64,
    },
    /// Uniformly random (the Fig 9 multi-tenant workload).
    Uniform,
}

impl PmbenchConfig {
    /// The Section 5.1 skewed/sparse configuration over `pages` pages.
    pub fn paper_skewed(pages: u32, read_ratio: f64, seed: u64) -> PmbenchConfig {
        PmbenchConfig {
            pages,
            read_ratio,
            delay_units: 0,
            pattern: PmbenchPattern::Gaussian {
                stride: 2,
                sigma_frac: 0.125,
            },
            seed,
            total_accesses: u64::MAX,
        }
    }

    /// The Fig 9 configuration: uniform pattern, graded delay.
    pub fn fig9_tenant(pages: u32, delay_units: u32, seed: u64) -> PmbenchConfig {
        PmbenchConfig {
            pages,
            read_ratio: 0.7,
            delay_units,
            pattern: PmbenchPattern::Uniform,
            seed,
            total_accesses: u64::MAX,
        }
    }
}

enum Pattern {
    Gaussian(GaussianPattern),
    Uniform(UniformPattern),
}

/// A running pmbench process. It first touches its whole working set
/// sequentially — pmbench's setup behaviour, and the paper's method for
/// equalizing the initial page distribution — then issues the pattern's
/// accesses.
pub struct PmbenchWorkload {
    cfg: PmbenchConfig,
    pattern: Pattern,
    rng: DetRng,
    issued: u64,
    init_cursor: u32,
}

impl PmbenchWorkload {
    /// Instantiates the benchmark from its configuration.
    pub fn new(cfg: PmbenchConfig) -> PmbenchWorkload {
        let pattern = match cfg.pattern {
            PmbenchPattern::Gaussian { stride, sigma_frac } => {
                Pattern::Gaussian(GaussianPattern::new(cfg.pages, stride, sigma_frac))
            }
            PmbenchPattern::Uniform => Pattern::Uniform(UniformPattern::new(cfg.pages)),
        };
        let rng = DetRng::seed(cfg.seed);
        PmbenchWorkload {
            cfg,
            pattern,
            rng,
            issued: 0,
            init_cursor: 0,
        }
    }

    /// Ground-truth hot-region test for the F1 experiment: whether `vpn` is
    /// in the centre `frac` of the space (only meaningful for the Gaussian
    /// pattern).
    pub fn in_hot_center(&self, vpn: tiered_mem::Vpn, frac: f64) -> bool {
        match &self.pattern {
            Pattern::Gaussian(g) => g.in_hot_center(vpn, frac),
            Pattern::Uniform(_) => false,
        }
    }
}

impl Workload for PmbenchWorkload {
    fn next_access(&mut self) -> Option<AccessReq> {
        if self.init_cursor < self.cfg.pages {
            let vpn = Vpn(self.init_cursor);
            self.init_cursor += 1;
            return Some(AccessReq {
                vpn,
                write: true,
                think: Nanos::ZERO,
            });
        }
        if self.issued >= self.cfg.total_accesses {
            return None;
        }
        self.issued += 1;
        let vpn = match &mut self.pattern {
            Pattern::Gaussian(g) => g.sample(&mut self.rng),
            Pattern::Uniform(u) => u.sample(&mut self.rng),
        };
        let write = !self.rng.chance(self.cfg.read_ratio);
        Some(AccessReq {
            vpn,
            write,
            think: DELAY_UNIT.scale(self.cfg.delay_units as u64),
        })
    }

    fn address_space_pages(&self) -> u32 {
        self.cfg.pages
    }

    fn label(&self) -> String {
        format!(
            "pmbench(pages={},r={:.0}%,delay={})",
            self.cfg.pages,
            self.cfg.read_ratio * 100.0,
            self.cfg.delay_units
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Consumes the sequential-init accesses of a workload.
    fn drain_init(w: &mut PmbenchWorkload, pages: u32) {
        for i in 0..pages {
            let r = w.next_access().unwrap();
            assert_eq!(r.vpn, Vpn(i), "init must be sequential");
            assert!(r.write, "init accesses are writes");
        }
    }

    #[test]
    fn read_write_ratio_is_respected() {
        let mut w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(1000, 0.95, 42));
        drain_init(&mut w, 1000);
        let n = 20_000;
        let writes = (0..n).filter(|_| w.next_access().unwrap().write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "write fraction was {}", frac);
    }

    #[test]
    fn delay_translates_to_think_time() {
        let mut w = PmbenchWorkload::new(PmbenchConfig::fig9_tenant(100, 10, 1));
        drain_init(&mut w, 100);
        let req = w.next_access().unwrap();
        assert_eq!(req.think, Nanos(190));
    }

    #[test]
    fn zero_delay_means_no_think() {
        let mut w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(100, 0.5, 1));
        drain_init(&mut w, 100);
        assert_eq!(w.next_access().unwrap().think, Nanos::ZERO);
    }

    #[test]
    fn finite_workload_terminates_after_init_plus_ops() {
        let mut cfg = PmbenchConfig::paper_skewed(100, 0.5, 1);
        cfg.total_accesses = 5;
        let mut w = PmbenchWorkload::new(cfg);
        let mut count = 0;
        while w.next_access().is_some() {
            count += 1;
        }
        assert_eq!(count, 100 + 5);
    }

    #[test]
    fn same_seed_reproduces_stream() {
        let mk = || PmbenchWorkload::new(PmbenchConfig::paper_skewed(512, 0.7, 99));
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn skewed_pattern_reports_hot_center() {
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(1000, 0.95, 7));
        assert!(w.in_hot_center(tiered_mem::Vpn(500), 0.25));
        assert!(!w.in_hot_center(tiered_mem::Vpn(10), 0.25));
    }
}
