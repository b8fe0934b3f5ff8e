//! Reusable page-address distributions.

use sim_clock::DetRng;
use tiered_mem::Vpn;

/// A distribution over page addresses within a working set.
pub trait AccessPattern {
    /// Samples the next page to touch.
    fn sample(&mut self, rng: &mut DetRng) -> Vpn;

    /// Number of base pages the pattern can address.
    fn pages(&self) -> u32;
}

/// Uniformly random pages — pmbench's `uniform` pattern; the Fig 9 workload
/// uses this with per-process delay so that *frequency*, not locality,
/// differentiates the processes.
#[derive(Debug, Clone)]
pub struct UniformPattern {
    pages: u32,
}

impl UniformPattern {
    /// Uniform pattern over `pages` pages.
    pub fn new(pages: u32) -> UniformPattern {
        assert!(pages > 0);
        UniformPattern { pages }
    }
}

impl AccessPattern for UniformPattern {
    fn sample(&mut self, rng: &mut DetRng) -> Vpn {
        Vpn(rng.below(self.pages as u64) as u32)
    }

    fn pages(&self) -> u32 {
        self.pages
    }
}

/// pmbench's `normal_ih` pattern: Gaussian over the address space, centred at
/// the middle, optionally strided.
///
/// With `stride = 2` consecutive logical offsets map to every other page, so
/// a 2 MiB huge page in the hot region has only half its 4 KiB sub-pages
/// touched — the *hotness fragmentation* behind Memtis's recall loss in
/// Fig 2a and its base-page struggles in Fig 6.
#[derive(Debug, Clone)]
pub struct GaussianPattern {
    pages: u32,
    stride: u32,
    /// Number of logical (strided) slots.
    slots: u32,
    /// Centre and standard deviation of the slot draw, in slots.
    center: f64,
    sigma: f64,
}

impl GaussianPattern {
    /// Gaussian over `pages` pages with the given stride; `sigma_frac` is the
    /// standard deviation as a fraction of the logical index range (the paper
    /// workload's "hot region defined by the normal distribution" is the
    /// centre 25 % of the space, ≈ ±1σ with the default 0.125).
    pub fn new(pages: u32, stride: u32, sigma_frac: f64) -> GaussianPattern {
        assert!(pages > 0 && stride > 0);
        assert!(stride <= pages, "stride must not exceed the page count");
        assert!(sigma_frac > 0.0);
        let slots = pages / stride;
        GaussianPattern {
            pages,
            stride,
            slots,
            center: slots as f64 / 2.0,
            sigma: slots as f64 * sigma_frac,
        }
    }

    /// The paper's Section 5.1 configuration: stride 2, σ = 12.5 %.
    pub fn paper_default(pages: u32) -> GaussianPattern {
        GaussianPattern::new(pages, 2, 0.125)
    }

    /// Whether `vpn` lies in the centre `frac` of the address range — the
    /// ground-truth hot region used by the F1-score experiment (Fig 2a).
    pub fn in_hot_center(&self, vpn: Vpn, frac: f64) -> bool {
        let lo = (self.pages as f64 * (0.5 - frac / 2.0)) as u32;
        let hi = (self.pages as f64 * (0.5 + frac / 2.0)) as u32;
        (lo..hi).contains(&vpn.0)
    }
}

impl AccessPattern for GaussianPattern {
    fn sample(&mut self, rng: &mut DetRng) -> Vpn {
        // Tails are resampled rather than clamped, so the edges don't
        // accumulate spurious hot spikes.
        Vpn(rng.normal_index(self.center, self.sigma, self.slots) * self.stride)
    }

    fn pages(&self) -> u32 {
        self.pages
    }
}

/// A two-level hot/cold set: a fraction of pages receives a fraction of
/// accesses (e.g. 10 % of pages get 90 % of accesses). Useful for targeted
/// tests of promotion correctness with a known ground truth.
#[derive(Debug, Clone)]
pub struct HotsetPattern {
    pages: u32,
    hot_pages: u32,
    hot_prob: f64,
}

impl HotsetPattern {
    /// `hot_frac` of the pages receive `hot_prob` of the accesses; the hot
    /// set occupies the *front* of the address space.
    pub fn new(pages: u32, hot_frac: f64, hot_prob: f64) -> HotsetPattern {
        assert!((0.0..=1.0).contains(&hot_frac));
        assert!((0.0..=1.0).contains(&hot_prob));
        HotsetPattern {
            pages,
            hot_pages: ((pages as f64 * hot_frac) as u32).max(1),
            hot_prob,
        }
    }

    /// Whether a page belongs to the hot set.
    pub fn is_hot(&self, vpn: Vpn) -> bool {
        vpn.0 < self.hot_pages
    }

    /// Size of the hot set in pages.
    pub fn hot_pages(&self) -> u32 {
        self.hot_pages
    }
}

impl AccessPattern for HotsetPattern {
    fn sample(&mut self, rng: &mut DetRng) -> Vpn {
        if rng.chance(self.hot_prob) {
            Vpn(rng.below(self.hot_pages as u64) as u32)
        } else {
            let cold = self.pages - self.hot_pages;
            if cold == 0 {
                Vpn(rng.below(self.pages as u64) as u32)
            } else {
                Vpn(self.hot_pages + rng.below(cold as u64) as u32)
            }
        }
    }

    fn pages(&self) -> u32 {
        self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut p = UniformPattern::new(100);
        let mut rng = DetRng::seed(1);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            seen[p.sample(&mut rng).0 as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 95);
    }

    #[test]
    fn gaussian_concentrates_in_center() {
        let p = GaussianPattern::paper_default(1000);
        let mut rng = DetRng::seed(2);
        let n = 20_000;
        let center_hits = (0..n)
            .filter(|_| p.in_hot_center(p.clone().sample(&mut rng), 0.25))
            .count();
        // ±1σ of a Gaussian holds ≈68 % of the mass.
        let frac = center_hits as f64 / n as f64;
        assert!(frac > 0.6 && frac < 0.76, "center fraction was {}", frac);
    }

    #[test]
    fn gaussian_stride_leaves_odd_pages_cold() {
        let mut p = GaussianPattern::new(1000, 2, 0.125);
        let mut rng = DetRng::seed(3);
        for _ in 0..5_000 {
            let v = p.sample(&mut rng);
            assert_eq!(v.0 % 2, 0, "stride-2 pattern touched an odd page");
        }
    }

    #[test]
    fn gaussian_samples_in_bounds() {
        let mut p = GaussianPattern::new(64, 2, 0.5); // fat tails force resampling
        let mut rng = DetRng::seed(4);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng).0 < 64);
        }
    }

    #[test]
    fn hot_center_boundaries() {
        let p = GaussianPattern::paper_default(1000);
        assert!(p.in_hot_center(Vpn(500), 0.25));
        assert!(p.in_hot_center(Vpn(380), 0.25));
        assert!(!p.in_hot_center(Vpn(370), 0.25));
        assert!(!p.in_hot_center(Vpn(630), 0.25));
    }

    #[test]
    fn hotset_ratio_holds() {
        let mut p = HotsetPattern::new(1000, 0.1, 0.9);
        let mut rng = DetRng::seed(6);
        let n = 50_000;
        let hot = (0..n)
            .filter(|_| p.clone().is_hot(p.sample(&mut rng)))
            .count();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction was {}", frac);
    }

    #[test]
    fn hotset_all_hot_degenerate() {
        let mut p = HotsetPattern::new(10, 1.0, 0.5);
        let mut rng = DetRng::seed(7);
        for _ in 0..100 {
            assert!(p.sample(&mut rng).0 < 10);
        }
    }
}
