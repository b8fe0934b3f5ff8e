//! Chrono's configurable parameters (the paper's Table 2).

use sim_clock::Nanos;

/// How the CIT threshold and promotion rate limit are managed (Section 3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum TuningMode {
    /// Fixed threshold and rate limit (no adaptation; ablation baseline).
    Manual {
        /// Fixed CIT threshold.
        cit_threshold: Nanos,
        /// Fixed promotion rate limit in bytes/second.
        rate_limit: u64,
    },
    /// Semi-automatic: the user fixes the rate limit, Chrono adapts the CIT
    /// threshold with the δ-step update (Section 3.2.1).
    SemiAuto {
        /// User-provided promotion rate limit in bytes/second.
        rate_limit: u64,
    },
    /// Fully automatic DCSC statistics-based tuning (Section 3.2.2) —
    /// Chrono's default: both threshold and rate limit are derived from the
    /// per-tier CIT heat maps.
    Dcsc,
}

/// Chrono configuration. Defaults reproduce Table 2, with time values
/// interpreted in simulated time (experiments scale them together with the
/// simulated run lengths; see DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct ChronoConfig {
    /// Ticking-scan period: one full pass over each address space
    /// (Table 2: 60 s).
    pub scan_period: Nanos,
    /// Pages marked per Ticking-scan event (Table 2: 256 MB = 65536 pages).
    pub scan_step_pages: u32,
    /// Fraction of pages probed per DCSC round (Table 2: 0.003 %).
    pub p_victim: f64,
    /// Number of CIT heat-map buckets (Table 2: 28).
    pub buckets: usize,
    /// Finest CIT bucket granularity (Section 4: 1 ms; bucket `i` covers
    /// `[2^(i−1), 2^i)` of this unit).
    pub finest_cit: Nanos,
    /// Adaptation step δ for the semi-auto threshold update (Table 2: 0.5).
    pub delta_step: f64,
    /// Initial CIT threshold (Table 2: 1000 ms, auto-tuned thereafter).
    pub initial_cit_threshold: Nanos,
    /// Initial promotion rate limit (Table 2: 100 MB/s, auto-tuned).
    pub initial_rate_limit: u64,
    /// Candidate-filtering rounds (Section 3.1.2: 2; ablations use 1 and 3).
    pub filter_rounds: u32,
    /// Tuning mode (default: DCSC).
    pub tuning: TuningMode,
    /// DCSC statistical-scan interval (Section 3.2.2: per-second probing).
    pub dcsc_interval: Nanos,
    /// Promotion-queue drain interval.
    pub migrate_interval: Nanos,
    /// Proactive-demotion check interval.
    pub demote_interval: Nanos,
    /// Thrashing ratio above which the rate limit is halved (Section 3.3.2).
    pub thrash_threshold: f64,
    /// Exponential decay applied to heat maps per DCSC aggregation.
    pub heatmap_decay: f64,
    /// RNG seed (victim selection).
    pub seed: u64,
    /// Retries allowed per transiently failed promotion before giving up.
    pub retry_max_attempts: u32,
    /// First-retry backoff; doubles per attempt (bounded exponential).
    pub retry_backoff_base: Nanos,
    /// Pending-retry pool bound; overflow is abandoned, not queued.
    pub retry_pool_cap: usize,
    /// Migration-failure ratio above which the promotion circuit breaker
    /// opens for a period.
    pub breaker_threshold: f64,
    /// Minimum attempts in a period before the breaker may trip (small
    /// samples produce meaningless ratios).
    pub breaker_min_attempts: u64,
    /// Consecutive starved DCSC rounds (after the first successful tune,
    /// with fault damage present) before degrading to semi-auto tuning.
    pub dcsc_starved_rounds: u32,
}

impl Default for ChronoConfig {
    fn default() -> ChronoConfig {
        ChronoConfig {
            scan_period: Nanos::from_secs(60),
            scan_step_pages: 65_536,
            p_victim: 0.003 / 100.0,
            buckets: 28,
            finest_cit: Nanos::from_millis(1),
            delta_step: 0.5,
            initial_cit_threshold: Nanos::from_millis(1000),
            initial_rate_limit: 100 * 1024 * 1024,
            filter_rounds: 2,
            tuning: TuningMode::Dcsc,
            dcsc_interval: Nanos::from_secs(1),
            migrate_interval: Nanos::from_millis(100),
            demote_interval: Nanos::from_millis(500),
            thrash_threshold: 0.2,
            heatmap_decay: 0.98,
            seed: 0xC1207,
            retry_max_attempts: 3,
            retry_backoff_base: Nanos::from_millis(100),
            retry_pool_cap: 1 << 12,
            breaker_threshold: 0.5,
            breaker_min_attempts: 16,
            dcsc_starved_rounds: 8,
        }
    }
}

impl ChronoConfig {
    /// A configuration scaled for simulations that compress the paper's
    /// minutes-long runs into `scan_period`-sized epochs: every time-based
    /// parameter keeps its ratio to the scan period.
    pub fn scaled(scan_period: Nanos, scan_step_pages: u32) -> ChronoConfig {
        let ms = scan_period.as_nanos() / 1_000_000;
        ChronoConfig {
            scan_period,
            scan_step_pages,
            // DCSC probes ~60× per scan period (1 s vs 60 s in the paper).
            dcsc_interval: Nanos(scan_period.as_nanos() / 60).max(Nanos(1)),
            migrate_interval: Nanos(scan_period.as_nanos() / 600).max(Nanos(1)),
            demote_interval: Nanos(scan_period.as_nanos() / 120).max(Nanos(1)),
            // Threshold starts at one scan period (paper: 1000 ms ≈ 1/60 of
            // the 60 s period; we start high and let tuning pull it down).
            initial_cit_threshold: Nanos::from_millis(ms / 60).max(Nanos::from_millis(1)),
            // Finest bucket keeps the 1 ms : 60 s ratio to the scan period.
            finest_cit: Nanos(scan_period.as_nanos() / 60_000).max(Nanos(1_000)),
            // Retry at drain-interval granularity so backoff steps line up
            // with migrate events.
            retry_backoff_base: Nanos(scan_period.as_nanos() / 600).max(Nanos(1)),
            ..ChronoConfig::default()
        }
    }

    /// The Fig 13 ablation variants.
    pub fn variant_basic(mut self) -> ChronoConfig {
        self.filter_rounds = 1;
        self.tuning = TuningMode::SemiAuto {
            rate_limit: 120 * 1024 * 1024,
        };
        self
    }

    /// Two-round filtering with semi-auto tuning (Fig 13 "Chrono-twice").
    pub fn variant_twice(mut self) -> ChronoConfig {
        self.filter_rounds = 2;
        self.tuning = TuningMode::SemiAuto {
            rate_limit: 120 * 1024 * 1024,
        };
        self
    }

    /// Three-round filtering (Fig 13 "Chrono-thrice").
    pub fn variant_thrice(mut self) -> ChronoConfig {
        self.filter_rounds = 3;
        self.tuning = TuningMode::SemiAuto {
            rate_limit: 120 * 1024 * 1024,
        };
        self
    }

    /// Full Chrono: two rounds + DCSC (Fig 13 "Chrono-full", the default).
    pub fn variant_full(mut self) -> ChronoConfig {
        self.filter_rounds = 2;
        self.tuning = TuningMode::Dcsc;
        self
    }

    /// Semi-auto with an expert-chosen rate limit (Fig 13 "Chrono-manual").
    pub fn variant_manual(mut self, rate_limit: u64) -> ChronoConfig {
        self.filter_rounds = 2;
        self.tuning = TuningMode::SemiAuto { rate_limit };
        self
    }

    /// The CIT bucket index for a CIT value: bucket `i` covers
    /// `[2^(i−1), 2^i)` finest-granularity units, with bucket 0 for values
    /// below one unit (Section 4).
    pub fn bucket_of(&self, cit: Nanos) -> usize {
        let units = cit.as_nanos() / self.finest_cit.as_nanos().max(1);
        if units == 0 {
            return 0;
        }
        let b = 64 - units.leading_zeros() as usize; // floor(log2)+1
                                                     // `buckets - 1` underflows on a zero-bucket config; treat it as a
                                                     // single-bucket map (validate() clamps real configurations).
        b.min(self.buckets.saturating_sub(1))
    }

    /// Clamps degenerate parameters to usable values: a CIT histogram needs
    /// at least one bucket (`bucket_of`/`HeatMap::add` otherwise have no
    /// index to clamp to). Called by `ChronoPolicy::new`, so a zero-bucket
    /// configuration rounds up instead of underflowing deep in the policy.
    pub fn validate(mut self) -> ChronoConfig {
        self.buckets = self.buckets.max(1);
        self
    }

    /// The lower-bound CIT of a bucket (inverse of [`ChronoConfig::bucket_of`]).
    pub fn bucket_floor(&self, bucket: usize) -> Nanos {
        if bucket == 0 {
            return Nanos::ZERO;
        }
        Nanos(self.finest_cit.as_nanos() << (bucket - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = ChronoConfig::default();
        assert_eq!(c.scan_period, Nanos::from_secs(60));
        assert_eq!(c.scan_step_pages, 65_536); // 256 MB of base pages
        assert!((c.p_victim - 3e-5).abs() < 1e-12);
        assert_eq!(c.buckets, 28);
        assert!((c.delta_step - 0.5).abs() < 1e-12);
        assert_eq!(c.initial_cit_threshold, Nanos::from_millis(1000));
        assert_eq!(c.initial_rate_limit, 100 * 1024 * 1024);
        assert_eq!(c.filter_rounds, 2);
        assert_eq!(c.tuning, TuningMode::Dcsc);
    }

    #[test]
    fn bucket_mapping_is_log2_of_ms() {
        let c = ChronoConfig::default();
        assert_eq!(c.bucket_of(Nanos::ZERO), 0);
        assert_eq!(c.bucket_of(Nanos::from_micros(500)), 0);
        assert_eq!(c.bucket_of(Nanos::from_millis(1)), 1);
        assert_eq!(c.bucket_of(Nanos::from_millis(2)), 2);
        assert_eq!(c.bucket_of(Nanos::from_millis(3)), 2);
        assert_eq!(c.bucket_of(Nanos::from_millis(4)), 3);
        // 2^27 ms (the paper's 37.3 h example) saturates at the last bucket.
        assert_eq!(c.bucket_of(Nanos::from_millis(1 << 27)), 27);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        let c = ChronoConfig::default();
        for b in 1..c.buckets - 1 {
            let floor = c.bucket_floor(b);
            assert_eq!(c.bucket_of(floor), b, "bucket {}", b);
            // Just below the floor belongs to the previous bucket.
            assert_eq!(c.bucket_of(Nanos(floor.as_nanos() - 1)), b - 1);
        }
    }

    #[test]
    fn zero_bucket_config_does_not_underflow() {
        // Regression: `bucket_of` computed `buckets - 1` unconditionally, so
        // any nonzero CIT under a zero-bucket config wrapped/panicked.
        let c = ChronoConfig {
            buckets: 0,
            ..ChronoConfig::default()
        };
        assert_eq!(c.bucket_of(Nanos::ZERO), 0);
        assert_eq!(c.bucket_of(Nanos::from_millis(1)), 0);
        assert_eq!(c.bucket_of(Nanos::from_secs(3600)), 0);
        // validate() rounds the config up to a single usable bucket.
        assert_eq!(c.validate().buckets, 1);
    }

    #[test]
    fn single_bucket_config_maps_everything_to_zero() {
        let c = ChronoConfig {
            buckets: 1,
            ..ChronoConfig::default()
        };
        assert_eq!(c.bucket_of(Nanos::ZERO), 0);
        assert_eq!(c.bucket_of(Nanos::from_millis(17)), 0);
        assert_eq!(c.bucket_floor(0), Nanos::ZERO);
    }

    #[test]
    fn validate_keeps_sane_configs_unchanged() {
        let c = ChronoConfig::default().validate();
        assert_eq!(c.buckets, 28);
    }

    #[test]
    fn scaled_config_keeps_ratios() {
        let c = ChronoConfig::scaled(Nanos::from_millis(600), 512);
        assert_eq!(c.scan_period, Nanos::from_millis(600));
        assert_eq!(c.dcsc_interval, Nanos::from_millis(10));
        assert!(c.finest_cit >= Nanos(1_000));
    }

    #[test]
    fn variants_set_rounds_and_tuning() {
        let base = ChronoConfig::default();
        assert_eq!(base.clone().variant_basic().filter_rounds, 1);
        assert_eq!(base.clone().variant_twice().filter_rounds, 2);
        assert_eq!(base.clone().variant_thrice().filter_rounds, 3);
        assert_eq!(base.clone().variant_full().tuning, TuningMode::Dcsc);
        match base.variant_manual(7).tuning {
            TuningMode::SemiAuto { rate_limit } => assert_eq!(rate_limit, 7),
            other => panic!("unexpected {:?}", other),
        }
    }
}
