//! Deterministic randomness for simulations.
//!
//! All stochastic behaviour — workload access patterns, DCSC victim
//! selection, PEBS sampling — draws from a [`DetRng`] seeded per experiment,
//! so runs are exactly reproducible. The generator is SplitMix64-style
//! seeding of a xoshiro256++ core, implemented directly (tiny and fully
//! specified) so the streams are stable forever and the crate carries no
//! external dependencies.

use crate::normal;

/// A deterministic xoshiro256++ random number generator.
///
/// # Examples
///
/// ```
/// use sim_clock::DetRng;
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.below(1000), b.below(1000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed(seed: u64) -> DetRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        DetRng { s }
    }

    /// Derives an independent child generator; used to give each process or
    /// subsystem its own stream without correlation.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed(self.next_u64())
    }

    /// Splits a run seed into the `stream`-th of an unbounded family of
    /// independent shard streams.
    ///
    /// Unlike [`DetRng::fork`], which consumes state from a live generator
    /// (so stream `i` depends on how many forks preceded it), `split` is a
    /// pure function of `(run_seed, stream)`: the stream a shard receives
    /// does not depend on how many shards exist, so resizing a tenant fleet
    /// never reshuffles the surviving tenants' randomness. The mapping is a
    /// SplitMix64-style finalizer over `run_seed ^ stream · φ`; the xor input
    /// is distinct for every `(seed, stream)` pair (multiplication by an odd
    /// constant is a bijection on `u64`) and the finalizer is itself a
    /// bijection, so distinct streams get distinct underlying seeds.
    pub fn split(run_seed: u64, stream: u64) -> DetRng {
        let mut z = run_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::seed(z)
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)`. Uses Lemire's multiply-shift reduction;
    /// the modulo bias is negligible for simulation purposes (bound ≪ 2^64).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((self.next_raw() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// The uniform pair one Box–Muller deviate consumes: `u1` kept off zero
    /// for its logarithm, then `u2`.
    #[inline]
    pub(crate) fn uniform_pair(&mut self) -> (f64, f64) {
        let u1 = self.unit_f64().max(f64::MIN_POSITIVE);
        (u1, self.unit_f64())
    }

    /// Standard normal deviate via trig-form Box–Muller. libm's `ln` and
    /// `cos` are most of its cost; truncated draws over a slot range go
    /// through [`DetRng::normal_index`], which gives the same slots without
    /// libm on almost every draw.
    pub fn std_normal(&mut self) -> f64 {
        let (u1, u2) = self.uniform_pair();
        normal::box_muller(u1, u2)
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// A slot in `[0, bound)` drawn from `N(mean, std_dev²)`, tails
    /// resampled rather than clamped. The result and the draws consumed
    /// are exactly those of
    ///
    /// ```text
    /// loop {
    ///     let x = rng.normal(mean, std_dev);
    ///     if x >= 0.0 && x < bound as f64 { break x as u32 }
    /// }
    /// ```
    ///
    /// but table kernels replace libm on all draws except those that land
    /// within about `(|mean| + 9·std_dev)·2⁻³⁰` of a slot edge
    /// (`sim-clock/src/normal.rs` derives that slack).
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_clock::DetRng;
    /// let (mut a, mut b) = (DetRng::seed(3), DetRng::seed(3));
    /// let slot = a.normal_index(12.0, 3.0, 24);
    /// let x = loop {
    ///     let x = b.normal(12.0, 3.0);
    ///     if x >= 0.0 && x < 24.0 { break x as u32 }
    /// };
    /// assert_eq!((slot, a), (x, b));
    /// ```
    #[inline]
    pub fn normal_index(&mut self, mean: f64, std_dev: f64, bound: u32) -> u32 {
        debug_assert!(bound > 0, "normal_index over an empty range never returns");
        loop {
            let (u1, u2) = self.uniform_pair();
            if let Some(slot) = normal::truncated_step(u1, u2, mean, std_dev, bound) {
                return slot;
            }
        }
    }

    /// Exponential deviate with the given mean (inter-arrival times).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.unit_f64().max(f64::MIN_POSITIVE).ln()
    }

    /// Uniform `u64` over the full range.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fills `dest` with uniform random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 2,
            "streams should be uncorrelated, got {} collisions",
            same
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed(3);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range_and_roughly_uniform() {
        let mut rng = DetRng::seed(4);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {}", mean);
    }

    #[test]
    fn std_normal_moments() {
        let mut rng = DetRng::seed(5);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.std_normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean was {}", mean);
        assert!((var - 1.0).abs() < 0.05, "variance was {}", var);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::seed(6);
        let n = 100_000;
        let mean_target = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean was {}", mean);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = DetRng::seed(9);
        let mut child = parent.fork();
        let same = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 2);
    }

    #[test]
    fn split_streams_are_pairwise_distinct() {
        // 64-draw smoke over a 16-stream family: no two streams share a
        // prefix (and none collides with the parent `seed` stream either).
        const K: usize = 16;
        const DRAWS: usize = 64;
        let seed = 0xC4A0_0001u64;
        let mut prefixes: Vec<Vec<u64>> = (0..K as u64)
            .map(|i| {
                let mut r = DetRng::split(seed, i);
                (0..DRAWS).map(|_| r.next_u64()).collect()
            })
            .collect();
        let mut parent = DetRng::seed(seed);
        prefixes.push((0..DRAWS).map(|_| parent.next_u64()).collect());
        for a in 0..prefixes.len() {
            for b in (a + 1)..prefixes.len() {
                assert_ne!(prefixes[a], prefixes[b], "streams {a} and {b} collide");
                let same = prefixes[a]
                    .iter()
                    .zip(&prefixes[b])
                    .filter(|(x, y)| x == y)
                    .count();
                assert!(same < 2, "streams {a}/{b} correlate: {same} equal draws");
            }
        }
    }

    #[test]
    fn split_is_stable_across_family_size() {
        // Stream `i` is a pure function of `(seed, i)`: carving the same
        // seed into 4 or into 4096 streams hands shard 3 the same stream.
        for seed in [0u64, 7, 0xC4A0_0002, u64::MAX] {
            for i in [0u64, 3, 4095] {
                let mut a = DetRng::split(seed, i);
                let mut b = DetRng::split(seed, i);
                for _ in 0..64 {
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }

    #[test]
    fn split_output_is_pinned_for_canonical_seeds() {
        // The split function's output is part of the golden contract: the
        // thread-invariance goldens derive every shard's workload and fault
        // seeds through it, so changing the mixing constants would silently
        // re-bless the world. First two draws of streams 0–3, both canonical
        // seeds, recorded 2026-08.
        let pins: [(u64, u64, [u64; 2]); 8] = [
            (0xC4A0_0001, 0, [0xf955aa3fdbcf7353, 0xde4c78a7a2d8e776]),
            (0xC4A0_0001, 1, [0xd3f4673cfe574651, 0x4cbf97131fd8a167]),
            (0xC4A0_0001, 2, [0xb90f627bcc05a0ef, 0x0c8f65973e0409ac]),
            (0xC4A0_0001, 3, [0xf507384ec795df6e, 0x2b6c8df9ca210ff9]),
            (0xC4A0_0002, 0, [0x037fe1b8258337c5, 0x028cd2d4aef4a8f5]),
            (0xC4A0_0002, 1, [0x1104c87e362c74cb, 0xa8c921ebbbc1c261]),
            (0xC4A0_0002, 2, [0x16da7806aa0c231d, 0xdde802aba9635246]),
            (0xC4A0_0002, 3, [0xf94dd9acd6298150, 0x1cdafff1c67c6fe4]),
        ];
        for (seed, stream, expect) in pins {
            let mut r = DetRng::split(seed, stream);
            assert_eq!(
                [r.next_u64(), r.next_u64()],
                expect,
                "split({seed:#x}, {stream}) drifted"
            );
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = DetRng::seed(12);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
