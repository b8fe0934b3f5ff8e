//! Memtis (Lee et al., SOSP '23).
//!
//! PEBS-driven tiering with a global histogram: sampled accesses increment a
//! per-unit counter (a *unit* is a 2 MiB huge block in Memtis's recommended
//! configuration, or a base page when forced); units are binned by
//! log2(counter) into a histogram; the hot threshold is chosen so the hot
//! set just fits the fast tier; counters cool (halve) periodically. The
//! paper's Fig 2b observation emerges directly: with the hardware-capped
//! sampling rate spread over ~512× more base pages, counters concentrate in
//! the lowest bins and classification turns unstable, while huge units get
//! healthy counters but suffer hotness fragmentation (half-empty hot
//! blocks) under strided workloads.

use sim_clock::Nanos;
use tiered_mem::{AccessResult, PageFlags, ProcessId, TierId, TieredSystem, Vpn, HUGE_2M_PAGES};

use crate::pebs::PebsSampler;
use crate::policy::{age_tier, decode_token, encode_token, promote_deferred, TieringPolicy};

const EV_MIGRATE: u16 = 1;
const EV_COOL: u16 = 2;
const EV_ADJUST: u16 = 3;

/// Number of log2 histogram bins.
pub const BINS: usize = 16;

/// Memtis configuration.
#[derive(Debug, Clone)]
pub struct MemtisConfig {
    /// Mean accesses per PEBS sample (hardware rate cap model).
    pub sample_period: u64,
    /// Promotion-queue drain interval.
    pub migrate_interval: Nanos,
    /// Counter cooling (halving) interval.
    pub cooling_interval: Nanos,
    /// Hot-threshold recomputation interval.
    pub adjust_interval: Nanos,
    /// Fraction of fast-tier frames the hot set may occupy.
    pub fast_fill_ratio: f64,
    /// Enable hot huge-page splitting (Memtis's bloat mitigation).
    pub split_enabled: bool,
    /// RNG seed for the sampler.
    pub seed: u64,
}

impl Default for MemtisConfig {
    fn default() -> Self {
        MemtisConfig {
            sample_period: 997,
            migrate_interval: Nanos::from_millis(100),
            cooling_interval: Nanos::from_secs(2),
            adjust_interval: Nanos::from_millis(500),
            fast_fill_ratio: 0.95,
            split_enabled: true,
            seed: 0x4D454D54,
        }
    }
}

/// The Memtis baseline policy.
pub struct Memtis {
    cfg: MemtisConfig,
    sampler: PebsSampler,
    /// Pages (not units) per log2-counter bin, the Fig 2b distribution.
    hist_pages: [u64; BINS],
    /// Current hot threshold (minimum counter value deemed hot).
    hot_threshold: u32,
    /// Promotion queue of (pid, unit head) marked with `CANDIDATE`.
    promote_queue: Vec<(ProcessId, Vpn)>,
    splits: u64,
}

fn bin_of(counter: u32) -> usize {
    if counter == 0 {
        0
    } else {
        ((32 - counter.leading_zeros()) as usize).min(BINS - 1)
    }
}

impl Memtis {
    /// Creates the policy.
    pub fn new(cfg: MemtisConfig) -> Memtis {
        let sampler = PebsSampler::new(cfg.sample_period, cfg.seed);
        Memtis {
            cfg,
            sampler,
            hist_pages: [0; BINS],
            hot_threshold: 8,
            promote_queue: Vec::new(),
            splits: 0,
        }
    }

    /// The page-weighted histogram over log2-counter bins (Fig 2b data):
    /// `hist[0]` holds never-sampled pages, `hist[b]` pages whose unit
    /// counter is in `[2^(b-1), 2^b)`.
    pub fn bin_distribution(&self) -> [u64; BINS] {
        self.hist_pages
    }

    /// The current hot threshold.
    pub fn hot_threshold(&self) -> u32 {
        self.hot_threshold
    }

    /// Huge-block splits performed.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    fn unit_pages(sys: &TieredSystem, pid: ProcessId, unit: Vpn) -> u64 {
        if sys.process(pid).space.is_huge_mapped(unit) {
            HUGE_2M_PAGES as u64
        } else {
            1
        }
    }

    /// Recomputes the hot threshold so the hot set ≤ fill ratio × fast tier.
    fn adjust_threshold(&mut self, sys: &TieredSystem) {
        let budget = (sys.total_frames(TierId::FAST) as f64 * self.cfg.fast_fill_ratio) as u64;
        let mut acc = 0u64;
        let mut cut_bin = 1usize; // default: everything sampled is hot
        for b in (1..BINS).rev() {
            if acc + self.hist_pages[b] > budget {
                cut_bin = b + 1;
                break;
            }
            acc += self.hist_pages[b];
        }
        self.hot_threshold = if cut_bin >= BINS {
            u32::MAX // nothing fits: only the very hottest, effectively none
        } else if cut_bin <= 1 {
            1
        } else {
            1 << (cut_bin - 1)
        };
    }

    /// Cooling sweep: halve every unit counter and rebuild the histogram.
    fn cool(&mut self, sys: &mut TieredSystem) {
        let mut hist = [0u64; BINS];
        let mut visited = 0u64;
        for pid in sys.pids().collect::<Vec<_>>() {
            let pages = sys.process(pid).space.pages();
            sys.process_mut(pid)
                .space
                .walk_range(Vpn(0), pages, |_vpn, e| {
                    visited += 1;
                    e.policy_extra >>= 1;
                    // Weight by the unit's size: intact huge heads stand for
                    // 512 base pages; split-block and base entries for one.
                    let unit_pages = if e.flags.has(PageFlags::HUGE_HEAD) {
                        HUGE_2M_PAGES as u64
                    } else {
                        1
                    };
                    hist[bin_of(e.policy_extra)] += unit_pages;
                });
        }
        self.hist_pages = hist;
        // Kernel cost of sweeping every mapped unit.
        sys.stats.kernel_time += Nanos(40).scale(visited.max(1));
    }

    /// Splits hot, fragmented fast-tier huge blocks (bounded per event).
    fn maybe_split(&mut self, sys: &mut TieredSystem) {
        if !self.cfg.split_enabled {
            return;
        }
        // Memtis splits conservatively: only under fast-tier pressure.
        if sys.free_frames(TierId::FAST) >= sys.watermarks.high {
            return;
        }
        let mut budget = 4;
        for pid in sys.pids().collect::<Vec<_>>() {
            if budget == 0 {
                break;
            }
            if !sys.process(pid).space.is_huge() {
                continue;
            }
            let pages = sys.process(pid).space.pages();
            let mut to_split: Vec<Vpn> = Vec::new();
            sys.process_mut(pid)
                .space
                .walk_range(Vpn(0), pages, |vpn, e| {
                    if e.flags.has(PageFlags::HUGE_HEAD)
                        && e.tier() == TierId::FAST
                        && e.policy_extra >= 2
                        && to_split.len() < budget
                    {
                        to_split.push(vpn);
                    }
                });
            for head in to_split {
                sys.split_block(pid, head);
                self.splits += 1;
                budget -= 1;
                sys.stats.kernel_time += Nanos(20_000); // split is expensive
            }
        }
    }
}

impl TieringPolicy for Memtis {
    fn name(&self) -> &'static str {
        "Memtis"
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        // Everything starts in bin 0.
        let mut pages = 0u64;
        for pid in sys.pids().collect::<Vec<_>>() {
            pages += sys.process(pid).space.pages() as u64;
        }
        self.hist_pages = [0; BINS];
        self.hist_pages[0] = pages;
        sys.schedule_in(self.cfg.migrate_interval, encode_token(EV_MIGRATE, 0, 0));
        sys.schedule_in(self.cfg.cooling_interval, encode_token(EV_COOL, 0, 0));
        sys.schedule_in(self.cfg.adjust_interval, encode_token(EV_ADJUST, 0, 0));
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        let (kind, _, _) = decode_token(token);
        match kind {
            EV_MIGRATE => {
                promote_deferred(sys, &mut self.promote_queue);
                sys.schedule_in(self.cfg.migrate_interval, encode_token(EV_MIGRATE, 0, 0));
            }
            EV_COOL => {
                self.cool(sys);
                sys.schedule_in(self.cfg.cooling_interval, encode_token(EV_COOL, 0, 0));
            }
            EV_ADJUST => {
                // Age the fast-tier LRU so reclaim during promotions has
                // meaningful inactive candidates (kswapd-equivalent).
                age_tier(
                    sys,
                    TierId::FAST,
                    self.cfg.adjust_interval,
                    self.cfg.cooling_interval,
                );
                self.adjust_threshold(sys);
                self.maybe_split(sys);
                sys.trace_period(Default::default());
                sys.schedule_in(self.cfg.adjust_interval, encode_token(EV_ADJUST, 0, 0));
            }
            _ => unreachable!("unknown Memtis event {}", kind),
        }
    }

    fn on_hint_fault(
        &mut self,
        _sys: &mut TieredSystem,
        _pid: ProcessId,
        _vpn: Vpn,
        _write: bool,
        _res: &AccessResult,
    ) {
        // Memtis relies on PEBS, not hint faults.
    }

    fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, _write: bool) {
        if !self.sampler.observe() {
            return;
        }
        let unit = sys.process(pid).space.pte_page(vpn);
        let unit_pages = Self::unit_pages(sys, pid, unit);
        let threshold = self.hot_threshold;
        let e = sys.process_mut(pid).space.entry_mut(unit);
        let old_bin = bin_of(e.policy_extra);
        e.policy_extra = e.policy_extra.saturating_add(1);
        let new_bin = bin_of(e.policy_extra);
        if new_bin != old_bin {
            self.hist_pages[old_bin] = self.hist_pages[old_bin].saturating_sub(unit_pages);
            self.hist_pages[new_bin] += unit_pages;
        }
        let hot = e.policy_extra >= threshold;
        if hot && e.tier() == TierId::SLOW && !e.flags.has(PageFlags::CANDIDATE) {
            e.flags.set(PageFlags::CANDIDATE);
            self.promote_queue.push((pid, unit));
        }
        // Per-sample kernel handling cost (PEBS buffer drain, ~100 ns).
        sys.stats.kernel_time += Nanos(100);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, SimulationDriver};
    use tiered_mem::{PageSize, SystemConfig};
    use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

    fn fast_cfg(seed: u64) -> MemtisConfig {
        MemtisConfig {
            sample_period: 37, // dense sampling so short tests converge
            migrate_interval: Nanos::from_millis(5),
            cooling_interval: Nanos::from_millis(200),
            adjust_interval: Nanos::from_millis(20),
            fast_fill_ratio: 0.95,
            split_enabled: true,
            seed,
        }
    }

    fn run_memtis(page_size: PageSize, run_ms: u64) -> (TieredSystem, Memtis) {
        let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 8192));
        let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(8192, 0.7, 1));
        sys.add_process(w.address_space_pages(), page_size);
        let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
        let mut policy = Memtis::new(fast_cfg(1));
        SimulationDriver::new(DriverConfig {
            run_for: Nanos::from_millis(run_ms),
            ..Default::default()
        })
        .run(&mut sys, &mut wls, &mut policy);
        (sys, policy)
    }

    #[test]
    fn bin_of_is_log2() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(2), 2);
        assert_eq!(bin_of(3), 2);
        assert_eq!(bin_of(8), 4);
        assert_eq!(bin_of(u32::MAX), BINS - 1);
    }

    #[test]
    fn sampling_fills_histogram() {
        let (_sys, policy) = run_memtis(PageSize::Base, 100);
        let dist = policy.bin_distribution();
        let sampled: u64 = dist[1..].iter().sum();
        assert!(sampled > 0, "no pages ever sampled");
    }

    #[test]
    fn promotes_sampled_hot_pages() {
        let (sys, _policy) = run_memtis(PageSize::Base, 300);
        assert!(sys.stats.promoted_pages > 0);
        // No hint faults: Memtis doesn't poison PTEs.
        assert_eq!(sys.stats.hint_faults, 0);
    }

    #[test]
    fn huge_units_reach_higher_bins_than_base() {
        // The Fig 2b effect: same sampling budget, 512× fewer units.
        let weight_high = |dist: &[u64; BINS]| -> f64 {
            let sampled: u64 = dist[1..].iter().sum();
            if sampled == 0 {
                return 0.0;
            }
            let high: u64 = dist[4..].iter().sum(); // counter ≥ 8
            high as f64 / sampled as f64
        };
        let (_s1, base) = run_memtis(PageSize::Base, 150);
        let (_s2, huge) = run_memtis(PageSize::Huge2M, 150);
        assert!(
            weight_high(&huge.bin_distribution()) > weight_high(&base.bin_distribution()),
            "huge {:?} vs base {:?}",
            huge.bin_distribution(),
            base.bin_distribution()
        );
    }

    #[test]
    fn cooling_halves_counters() {
        let mut sys = TieredSystem::new(SystemConfig::quarter_fast(1024));
        let pid = sys.add_process(16, PageSize::Base);
        sys.access(pid, Vpn(0), false);
        sys.process_mut(pid).space.entry_mut(Vpn(0)).policy_extra = 9;
        let mut m = Memtis::new(fast_cfg(2));
        m.cool(&mut sys);
        assert_eq!(sys.process(pid).space.entry(Vpn(0)).policy_extra, 4);
        // Histogram rebuilt: one page in bin_of(4)=3.
        assert_eq!(m.bin_distribution()[3], 1);
    }

    #[test]
    fn threshold_shrinks_hot_set_to_fast_tier() {
        let mut m = Memtis::new(fast_cfg(3));
        let sys = TieredSystem::new(SystemConfig::dram_pmem(100, 1000));
        // 500 pages with counter in bin 5 (16..31), far exceeding 95 frames.
        m.hist_pages = [0; BINS];
        m.hist_pages[5] = 500;
        m.hist_pages[6] = 50;
        m.adjust_threshold(&sys);
        // Bin 6 fits (50 ≤ 95); bin 5 would overflow → threshold = 2^5 = 32.
        assert_eq!(m.hot_threshold(), 32);
    }

    #[test]
    fn threshold_defaults_low_when_everything_fits() {
        let mut m = Memtis::new(fast_cfg(4));
        let sys = TieredSystem::new(SystemConfig::dram_pmem(10_000, 1000));
        m.hist_pages = [0; BINS];
        m.hist_pages[2] = 100;
        m.adjust_threshold(&sys);
        assert_eq!(m.hot_threshold(), 1);
    }
}
