//! Log-bucketed latency histograms.
//!
//! Latencies span ~15 ns (cache-warm fast-tier loads) to tens of
//! microseconds (hint faults with synchronous migration), so the histogram
//! uses logarithmic buckets: 64 per power of two, giving ≈1.1 % relative
//! resolution — more than enough to reproduce the paper's average/median/P99
//! comparisons while staying O(1) per sample. The bucket layout is fixed,
//! but storage only reaches the highest bucket recorded: sub-microsecond
//! access latencies need a few KiB, not the full range's 20 KiB, which
//! matters where many histograms live at once (three per fleet tenant, one
//! per kept run result).

use sim_clock::Nanos;

/// Sub-buckets per power of two, as a shift.
const SUBBUCKET_BITS: u32 = 6;
/// Sub-buckets per power of two.
const SUBBUCKETS: usize = 1 << SUBBUCKET_BITS;
/// Number of powers of two covered (2^0 .. 2^40 ns ≈ 18 minutes).
const POWERS: usize = 40;

/// A log-scale histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHistogram {
    /// Counts of buckets `0..buckets.len()`; every higher bucket is empty.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        let ns = ns.max(1);
        let pow = 63 - ns.leading_zeros() as usize; // floor(log2)
        if pow >= POWERS {
            // Everything from 2^POWERS ns up shares the last bucket.
            return SUBBUCKETS * POWERS - 1;
        }
        // Position within [2^pow, 2^(pow+1)), scaled to SUBBUCKETS. The
        // offset is below 2^39, so the shifted value fits u64 exactly.
        let frac = (((ns - (1u64 << pow)) << SUBBUCKET_BITS) >> pow) as usize;
        pow * SUBBUCKETS + frac
    }

    fn bucket_lower_bound(idx: usize) -> u64 {
        let pow = idx / SUBBUCKETS;
        let frac = idx % SUBBUCKETS;
        let base = 1u64 << pow;
        base + (base as u128 * frac as u128 / SUBBUCKETS as u128) as u64
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Nanos) {
        let ns = latency.as_nanos();
        let bucket = Self::bucket_of(ns);
        match self.buckets.get_mut(bucket) {
            Some(c) => *c += 1,
            None => self.grow_and_count(bucket),
        }
        self.count += 1;
        self.sum += ns as u128;
        if ns > self.max {
            self.max = ns;
        }
        if ns < self.min {
            self.min = ns;
        }
    }

    /// The bucket a latency lands in, for callers that interpolate within
    /// a bucket from its bounds.
    #[inline]
    pub fn bucket_index(latency: Nanos) -> usize {
        Self::bucket_of(latency.as_nanos())
    }

    /// Extends storage through `bucket`'s power of two and counts one
    /// sample there. Whole powers keep regrowth to a handful of steps.
    #[cold]
    #[inline(never)]
    fn grow_and_count(&mut self, bucket: usize) {
        assert!(bucket < SUBBUCKETS * POWERS, "bucket {bucket} out of range");
        let len = (bucket / SUBBUCKETS + 1) * SUBBUCKETS;
        self.buckets.reserve_exact(len - self.buckets.len());
        self.buckets.resize(len, 0);
        self.buckets[bucket] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos((self.sum / self.count as u128) as u64)
    }

    /// The `q`-quantile (0.0–1.0) as the lower bound of the containing
    /// bucket; `quantile(0.5)` is the median, `quantile(0.99)` the P99.
    pub fn quantile(&self, q: f64) -> Nanos {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Nanos(Self::bucket_lower_bound(i).min(self.max).max(self.min));
            }
        }
        Nanos(self.max)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Nanos {
        Nanos(if self.count == 0 { 0 } else { self.max })
    }

    /// Cumulative distribution evaluated at a set of latency points — the
    /// Fig 7a "accumulated percentage" curve.
    pub fn cdf_at(&self, points: &[Nanos]) -> Vec<f64> {
        points
            .iter()
            .map(|p| {
                if self.count == 0 {
                    return 0.0;
                }
                let limit = Self::bucket_of(p.as_nanos());
                let below: u64 = self.buckets.iter().take(limit + 1).sum();
                below as f64 / self.count as f64
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            // Exact, so storage ends where recording both streams would.
            self.buckets
                .reserve_exact(other.buckets.len() - self.buckets.len());
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.quantile(0.5), Nanos::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300] {
            h.record(Nanos(ns));
        }
        assert_eq!(h.mean(), Nanos(200));
    }

    #[test]
    fn quantiles_are_order_of_magnitude_right() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Nanos(i));
        }
        let p50 = h.quantile(0.5).as_nanos();
        let p99 = h.quantile(0.99).as_nanos();
        assert!((490..=515).contains(&p50), "p50 {}", p50);
        assert!((960..=1000).contains(&p99), "p99 {}", p99);
    }

    #[test]
    fn quantile_respects_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Nanos(1_000_000));
        }
        let p99 = h.quantile(0.99).as_nanos();
        // Within one sub-bucket (≈1.6 %) of the true value.
        assert!((985_000..=1_000_000).contains(&p99), "p99 {}", p99);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in [50u64, 100, 500, 2000, 2000, 8000] {
            h.record(Nanos(i));
        }
        let pts: Vec<Nanos> = [64u64, 256, 1024, 4096, 16384].map(Nanos).to_vec();
        let cdf = h.cdf_at(&pts);
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(cdf[0] > 0.0);
        assert!((cdf[4] - 1.0).abs() < 1e-12);
    }

    /// Asserts two histograms read the same through every accessor, and
    /// hold the same storage.
    fn assert_same(a: &LatencyHistogram, b: &LatencyHistogram) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.max(), b.max());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "quantile {q}");
        }
        let pts: Vec<Nanos> = [1u64, 64, 100, 300, 1_000, 2_000, 80_000]
            .map(Nanos)
            .to_vec();
        assert_eq!(a.cdf_at(&pts), b.cdf_at(&pts));
        assert_eq!(a.buckets.len(), b.buckets.len());
        assert_eq!(a.buckets.capacity(), b.buckets.capacity());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Nanos(100));
        b.record(Nanos(300));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Nanos(200));
        assert_eq!(a.max(), Nanos(300));

        // Merging reads into writes (or back) equals one histogram fed both
        // streams, whichever side is longer, and when one side is empty.
        let reads: &[u64] = &[95, 100, 264, 264, 1_760, 70_000];
        let writes: &[u64] = &[0, 105, 464, 1_952, 1_965];
        for (left, right) in [
            (reads, writes),
            (writes, reads),
            (reads, &[]),
            (&[], writes),
        ] {
            let mut merged = LatencyHistogram::new();
            let mut other = LatencyHistogram::new();
            let mut direct = LatencyHistogram::new();
            for &ns in left {
                merged.record(Nanos(ns));
                direct.record(Nanos(ns));
            }
            for &ns in right {
                other.record(Nanos(ns));
                direct.record(Nanos(ns));
            }
            merged.merge(&other);
            assert_same(&merged, &direct);
        }
    }

    #[test]
    fn storage_reaches_only_the_highest_recorded_bucket() {
        let mut h = LatencyHistogram::new();
        assert_eq!(
            h.buckets.capacity(),
            0,
            "an empty histogram allocates nothing"
        );
        for ns in [120u64, 450, 1_900, 300] {
            h.record(Nanos(ns));
        }
        // 1900 ns lies in 2^10..2^11: storage covers powers 0..=10 only.
        assert_eq!(h.buckets.len(), 11 * SUBBUCKETS);
        assert_eq!(h.buckets.capacity(), 11 * SUBBUCKETS);
    }

    #[test]
    fn short_and_long_storage_agree() {
        // Merging in either direction, and CDF points past the stored
        // range, read as if every bucket were materialised.
        let (mut short, mut long) = (LatencyHistogram::new(), LatencyHistogram::new());
        short.record(Nanos(90));
        long.record(Nanos(70_000));
        let mut ab = short.clone();
        ab.merge(&long);
        let mut ba = long.clone();
        ba.merge(&short);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(ab.quantile(q), ba.quantile(q));
        }
        assert_eq!(ab.quantile(0.5), Nanos(90));
        let pts = [Nanos(100), Nanos(1 << 30)];
        assert_eq!(short.cdf_at(&pts), vec![1.0, 1.0]);
        assert_eq!(ab.cdf_at(&pts), ba.cdf_at(&pts));
        assert_eq!(ab.cdf_at(&pts), vec![0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bucket_is_rejected() {
        LatencyHistogram::new().grow_and_count(SUBBUCKETS * POWERS);
    }

    /// The u128 bucket formula the u64 one replaced, kept as the reference.
    fn reference_bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let pow = (63 - ns.leading_zeros() as usize).min(POWERS - 1);
        let base = 1u64 << pow;
        let frac = ((ns - base) as u128 * SUBBUCKETS as u128 / base as u128) as usize;
        pow * SUBBUCKETS + frac.min(SUBBUCKETS - 1)
    }

    #[test]
    fn bucket_index_matches_the_reference_formula() {
        let edges = (0..64).flat_map(|k| {
            let p = 1u64 << k;
            [p - 1, p, p + 1]
        });
        for ns in (0..1u64 << 16).chain(edges).chain([u64::MAX]) {
            assert_eq!(
                LatencyHistogram::bucket_index(Nanos(ns)),
                reference_bucket(ns),
                "{ns} ns"
            );
        }
    }

    #[test]
    fn huge_latencies_saturate_gracefully() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos(u64::MAX / 2));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).as_nanos() > 0);
    }
}
