//! Phase-shifting workloads: the hot region moves mid-run.
//!
//! The paper's central flexibility claim is that Chrono "adapts to changing
//! workload patterns" via run-time statistics; a phased workload is the
//! directed test for it — a policy with stale placement must detect the new
//! hot set and re-converge.

use sim_clock::{DetRng, Nanos};
use tiered_mem::Vpn;

use crate::{AccessReq, Workload};

/// A workload whose Gaussian hot centre jumps every `phase_accesses`.
#[derive(Debug)]
pub struct PhasedWorkload {
    pages: u32,
    sigma_frac: f64,
    read_ratio: f64,
    phase_accesses: u64,
    /// Hot-centre positions (fractions of the space) cycled per phase.
    centers: Vec<f64>,
    issued: u64,
    rng: DetRng,
    total_accesses: u64,
}

impl PhasedWorkload {
    /// A workload over `pages` pages whose hot centre cycles through
    /// `centers` every `phase_accesses` accesses.
    pub fn new(
        pages: u32,
        centers: Vec<f64>,
        phase_accesses: u64,
        read_ratio: f64,
        seed: u64,
    ) -> PhasedWorkload {
        assert!(!centers.is_empty(), "need at least one phase centre");
        assert!(centers.iter().all(|c| (0.0..=1.0).contains(c)));
        PhasedWorkload {
            pages,
            sigma_frac: 0.08,
            read_ratio,
            phase_accesses: phase_accesses.max(1),
            centers,
            issued: 0,
            rng: DetRng::seed(seed),
            total_accesses: u64::MAX,
        }
    }

    /// Bounds the total accesses (after which the workload finishes).
    pub fn with_total_accesses(mut self, total: u64) -> PhasedWorkload {
        self.total_accesses = total;
        self
    }

    /// The phase index active at a given access count.
    pub fn phase_at(&self, issued: u64) -> usize {
        ((issued / self.phase_accesses) as usize) % self.centers.len()
    }

    /// Current phase index.
    pub fn current_phase(&self) -> usize {
        self.phase_at(self.issued)
    }

    /// Whether `vpn` lies within ±1σ of the hot centre of `phase`.
    pub fn in_phase_hot_region(&self, phase: usize, vpn: Vpn) -> bool {
        let center = self.centers[phase % self.centers.len()] * self.pages as f64;
        let sigma = self.sigma_frac * self.pages as f64;
        (vpn.0 as f64 - center).abs() <= sigma
    }
}

impl Workload for PhasedWorkload {
    fn next_access(&mut self) -> Option<AccessReq> {
        if self.issued >= self.total_accesses {
            return None;
        }
        let phase = self.current_phase();
        self.issued += 1;
        let center = self.centers[phase] * self.pages as f64;
        let sigma = self.sigma_frac * self.pages as f64;
        let vpn = Vpn(self.rng.normal_index(center, sigma, self.pages));
        let write = !self.rng.chance(self.read_ratio);
        Some(AccessReq {
            vpn,
            write,
            think: Nanos::ZERO,
        })
    }

    fn address_space_pages(&self) -> u32 {
        self.pages
    }

    fn label(&self) -> String {
        format!("phased(pages={},phases={})", self.pages, self.centers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cycle_on_schedule() {
        let w = PhasedWorkload::new(1000, vec![0.2, 0.8], 100, 0.7, 1);
        assert_eq!(w.phase_at(0), 0);
        assert_eq!(w.phase_at(99), 0);
        assert_eq!(w.phase_at(100), 1);
        assert_eq!(w.phase_at(200), 0);
    }

    #[test]
    fn accesses_follow_the_active_center() {
        let mut w = PhasedWorkload::new(10_000, vec![0.2, 0.8], 5_000, 0.7, 2);
        let mut phase0_hits = 0;
        for _ in 0..5_000 {
            let r = w.next_access().unwrap();
            phase0_hits += w.in_phase_hot_region(0, r.vpn) as u32;
        }
        let mut phase1_hits = 0;
        for _ in 0..5_000 {
            let r = w.next_access().unwrap();
            phase1_hits += w.in_phase_hot_region(1, r.vpn) as u32;
        }
        // ±1σ of a Gaussian is ~68 % of mass.
        assert!(phase0_hits > 3_000, "phase-0 hits {}", phase0_hits);
        assert!(phase1_hits > 3_000, "phase-1 hits {}", phase1_hits);
    }

    #[test]
    fn hot_regions_are_disjoint_when_centers_are_far() {
        let w = PhasedWorkload::new(10_000, vec![0.2, 0.8], 100, 0.7, 3);
        // No page is hot in both phases when centres are 0.6 apart and σ=0.08.
        for vpn in (0..10_000).step_by(17) {
            assert!(
                !(w.in_phase_hot_region(0, Vpn(vpn)) && w.in_phase_hot_region(1, Vpn(vpn))),
                "page {} hot in both phases",
                vpn
            );
        }
    }

    #[test]
    fn bounded_workload_finishes() {
        let mut w = PhasedWorkload::new(100, vec![0.5], 10, 0.7, 4).with_total_accesses(25);
        let mut n = 0;
        while w.next_access().is_some() {
            n += 1;
        }
        assert_eq!(n, 25);
    }

    #[test]
    fn stream_is_pinned_for_the_churn_shape() {
        // First 16 requests of the churn workload (65 536 pages, centres
        // 0.15/0.65/0.35/0.85, seed 4242), recorded before the draws moved
        // to `DetRng::normal_index`, as page and write flag.
        const VPNS: [u32; 16] = [
            14331, 18914, 9752, 17196, 12373, 7769, 9508, 4854, 12978, 15020, 16052, 6855, 2175,
            12307, 7950, 5626,
        ];
        const WRITES: [bool; 16] = [
            true, false, false, true, false, true, false, true, true, false, false, false, false,
            false, false, true,
        ];
        let mut w = PhasedWorkload::new(65_536, vec![0.15, 0.65, 0.35, 0.85], 250_000, 0.5, 4242);
        for (i, want) in VPNS.into_iter().zip(WRITES).enumerate() {
            let r = w.next_access().unwrap();
            assert_eq!((r.vpn.0, r.write), want, "request {i}");
        }
    }
}
