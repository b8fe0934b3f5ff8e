//! Truncated-normal slot draws, bit-identical to the libm rejection loop.
//!
//! [`DetRng::normal_index`](crate::DetRng::normal_index) draws a slot in
//! `[0, bound)` by rejection: the slot is `x as u32` of the first
//! `x = mean + σ·z` that lands in `[0, bound)`, where `z` is the Box–Muller
//! deviate `√(−2 ln u1)·cos(2π u2)` of one uniform pair. Every workload
//! trace and golden digest is a function of those slots, so the draw must
//! equal, slot for slot and pair for pair, the reference loop over
//! [`DetRng::normal`](crate::DetRng::normal), whose `ln` and `cos` come
//! from libm.
//!
//! libm dominates that loop (glibc's `cos` alone is most of it), so each
//! pair is decided in two phases, Ziv's strategy:
//!
//! 1. Evaluate `x̃` with the branch-free table kernels [`ln_kernel`] and
//!    [`cos_2pi_kernel`].
//! 2. If `[x̃ − Δ, x̃ + Δ]` lies inside one integer cell of `[0, bound)`,
//!    that cell is the reference's slot. If it lies wholly outside
//!    `[0, bound)`, the reference rejects the pair too. Otherwise recompute
//!    `x` from the same pair with libm ([`box_muller`], the formula
//!    [`DetRng::std_normal`](crate::DetRng::std_normal) uses) and decide
//!    exactly.
//!
//! # Δ
//!
//! Let `u = 2⁻⁵³` be the unit roundoff, `L` and `C` libm's `ln u1` and
//! `cos(τ·u2)`, `L̃` and `C̃` the kernels', with `|L̃ − L| ≤ LN_ERR·|L|`
//! and `|C̃ − C| ≤ COS_ERR` (both measured by a test, see
//! [`LN_ERR`] and [`COS_ERR`]). Because `u1 ≥ f64::MIN_POSITIVE`,
//! `s = √(−2L)` is at most `S = √(2·1022·ln 2) ≈ 37.7`; every `u1 ≥ 2⁻⁵³`,
//! that is every draw but a zero `u1`, keeps it below 8.6.
//!
//! - `−2L` is exact and `√` correctly rounded: `|s̃ − s| ≤ s·(LN_ERR/2 + 2u)`.
//! - `z = s·C`, rounded on each side: `|z̃ − z| ≤ S·(LN_ERR/2 + COS_ERR + 4u)`.
//! - `x = mean + σ·z`, two roundings on each side:
//!   `|x̃ − x| ≤ σ·S·(LN_ERR/2 + COS_ERR + 8u) + 2u·|mean|`.
//! - Forming `x̃ ± Δ` rounds once more, by at most `u·(|mean| + σ·S + Δ)`.
//!
//! With `S/9 < 4.2` the sum stays below `(|mean| + 9σ)·K` for
//! `K = 4.2·(LN_ERR/2 + COS_ERR + 10u) ≈ 1.5·10⁻¹⁴`. The slack
//! `Δ = (|mean| + 9σ)·2⁻³⁰` is more than 6·10⁴ times that (10⁵ times the
//! `K` of the measured errors), so a pair the fast phase decides is decided
//! as libm would. The price is the pairs whose `x̃` falls within `Δ` of an
//! integer: about `2Δ` of all pairs, 7·10⁻⁸ for a 24-slot fleet tenant and
//! 3·10⁻³ for a 2²⁰-slot range.
//!
//! Both kernels read compile-time tables, `static`s built by `const fn`.

use std::f64::consts::{LN_2, TAU};

/// Bound on `|cos_2pi_kernel(u) − cos(τ·u)|` over `[0, 1)`, libm's `cos`
/// on libm's rounded argument as the reference. The maximum measured
/// against glibc on x86-64 is 6.7·10⁻¹⁶, most of it the reference's own
/// rounding of `τ·u`.
const COS_ERR: f64 = 2.0e-15;

/// Bound on `|ln_kernel(u) − ln u| / |ln u|` over `[f64::MIN_POSITIVE, 1)`.
/// The maximum measured against glibc on x86-64 is 3.6·10⁻¹⁶.
const LN_ERR: f64 = 1.0e-15;

/// `Δ / (|mean| + 9σ)`: the fast phase's decision slack, `2⁻³⁰`.
const SLACK: f64 = 1.0 / (1u64 << 30) as f64;

/// The derivation's `K` for kernel errors `ln_err` (relative) and
/// `cos_err` (absolute): `|x̃ − x|` plus the rounding of `x̃ ± Δ` stays
/// below `(|mean| + 9σ)·K`.
const fn err_per_span(ln_err: f64, cos_err: f64) -> f64 {
    4.2 * (ln_err / 2.0 + cos_err + 10.0 / (1u64 << 53) as f64)
}

/// `K` at the stated kernel bounds.
const ERR_PER_SPAN: f64 = err_per_span(LN_ERR, COS_ERR);

// The slack must dwarf the error it covers; a change to either bound that
// breaks the margin fails the build.
const _: () = assert!(SLACK >= 1e4 * ERR_PER_SPAN);

/// What the fast phase can tell about one uniform pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fast {
    /// The reference lands in this slot.
    Slot(u32),
    /// The reference rejects the pair.
    Reject,
    /// Too close to a cell edge to tell; libm decides.
    Unsure,
}

/// One pair of the rejection loop: the slot the reference loop takes from
/// `(u1, u2)`, or `None` where it rejects the pair and draws again.
#[inline]
pub(crate) fn truncated_step(u1: f64, u2: f64, mean: f64, sd: f64, bound: u32) -> Option<u32> {
    match fast_step(u1, u2, mean, sd, bound) {
        Fast::Slot(slot) => Some(slot),
        Fast::Reject => None,
        Fast::Unsure => exact_step(u1, u2, mean, sd, bound),
    }
}

/// The fast phase: `x̃` from the table kernels, decided only where the
/// slack interval around it cannot straddle a cell edge.
#[inline]
fn fast_step(u1: f64, u2: f64, mean: f64, sd: f64, bound: u32) -> Fast {
    let x = mean + sd * ((-2.0 * ln_kernel(u1)).sqrt() * cos_2pi_kernel(u2));
    let slack = (mean.abs() + 9.0 * sd.abs()) * SLACK;
    let (lo, hi) = (x - slack, x + slack);
    let end = bound as f64;
    if lo >= 0.0 && hi < end {
        let slot = lo as u32;
        if slot == hi as u32 {
            return Fast::Slot(slot);
        }
    } else if hi < 0.0 || lo >= end {
        return Fast::Reject;
    }
    Fast::Unsure
}

/// The reference decision: the rejection test of the libm loop, on the
/// same pair.
#[cold]
#[inline(never)]
fn exact_step(u1: f64, u2: f64, mean: f64, sd: f64, bound: u32) -> Option<u32> {
    let x = mean + sd * box_muller(u1, u2);
    (x >= 0.0 && x < bound as f64).then_some(x as u32)
}

/// The standard normal deviate of a uniform pair via libm, trig-form
/// Box–Muller. The one definition [`DetRng::std_normal`](crate::DetRng::std_normal)
/// and the exact phase share, so the two cannot drift.
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Bits of `0.75`, the bottom of the kernel's normalised range.
const THREE_QUARTERS: u64 = 0x3FE8_0000_0000_0000;

/// `ln u` for a positive normal `u`. Writing `u = 2^e·m` with
/// `m ∈ [0.75, 1.5)`, `ln u = e·ln 2 + ln c + log1p((m − c)/c)`, where `c`
/// is the centre of `m`'s table cell: 64 cells of width 2⁻⁸ below 1 and 64
/// of width 2⁻⁷ above. The two cells that touch 1 are centred on 1 itself,
/// so there `m − 1` is exact and `ln u` keeps full relative accuracy as
/// `u → 1⁻`. `m − c` is exact everywhere (Sterbenz), and
/// `|(m − c)/c| ≤ 2⁻⁷`.
#[inline]
fn ln_kernel(u: f64) -> f64 {
    let bits = u.to_bits();
    let off = bits.wrapping_sub(THREE_QUARTERS);
    let e = (off as i64) >> 52;
    let [c, inv_c, ln_c] = LN_TABLE[((off >> 45) & 127) as usize];
    let m = f64::from_bits(bits.wrapping_sub((e as u64) << 52));
    e as f64 * LN_2 + (ln_c + log1p_poly((m - c) * inv_c))
}

/// Degree-7 Taylor `log1p(r)`, in Estrin's scheme for a short dependency
/// chain; the first omitted term is below `2⁻⁵⁹·|r|` for `|r| ≤ 2⁻⁷`.
#[inline]
fn log1p_poly(r: f64) -> f64 {
    let r2 = r * r;
    let lo = -1.0 / 2.0 + r * (1.0 / 3.0);
    let mid = -1.0 / 4.0 + r * (1.0 / 5.0);
    let hi = -1.0 / 6.0 + r * (1.0 / 7.0);
    r + r2 * ((lo + r2 * mid) + (r2 * r2) * hi)
}

/// `cos(2π·u)` for `u ∈ [0, 1)`: the nearest of 256 table angles
/// `a = 2π·n/256` plus a remainder `t = 2π·(u − n/256)`, `|t| ≤ π/256`,
/// through `cos(a + t) = cos a + (cos a·(cos t − 1) − sin a·sin t)` with
/// short Taylor series in `t`. `u − n/256` is exact.
#[inline]
fn cos_2pi_kernel(u: f64) -> f64 {
    // Adding 1.5·2⁵² rounds `256·u` to the integer `n` and leaves `n` in
    // the low bits of the sum, with no float-to-int conversion.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let big = u * 256.0 + ROUND;
    let t = (u - (big - ROUND) * (1.0 / 256.0)) * TAU;
    let [cos_a, sin_a] = TRIG_TABLE[big.to_bits() as usize & 255];
    let t2 = t * t;
    let cos_m1 = t2 * (-0.5 + t2 * (1.0 / 24.0 - t2 * (1.0 / 720.0)));
    let sin_t = t + t * t2 * (-1.0 / 6.0 + t2 * (1.0 / 120.0));
    cos_a + (cos_a * cos_m1 - sin_a * sin_t)
}

/// `[c, 1/c, ln c]` per cell of [`ln_kernel`]'s normalised range.
static LN_TABLE: [[f64; 3]; 128] = ln_table();

/// `[cos a, sin a]` for `a = 2π·n/256`.
static TRIG_TABLE: [[f64; 2]; 256] = trig_table();

const fn ln_table() -> [[f64; 3]; 128] {
    let mut table = [[0.0; 3]; 128];
    let mut i = 0;
    while i < 128 {
        let c = if i == 63 || i == 64 {
            1.0
        } else if i < 64 {
            0.75 + (i as f64 + 0.5) / 256.0
        } else {
            1.0 + ((i - 64) as f64 + 0.5) / 128.0
        };
        table[i] = [c, 1.0 / c, ln_series(c)];
        i += 1;
    }
    table
}

/// `ln c = 2·atanh((c − 1)/(c + 1))` by its series; `c ∈ [0.75, 1.5)`
/// keeps the ratio within ±0.2, so 30 terms leave no truncation error.
const fn ln_series(c: f64) -> f64 {
    let t = (c - 1.0) / (c + 1.0);
    let t2 = t * t;
    let mut sum = 0.0;
    let mut k = 30;
    while k > 0 {
        k -= 1;
        sum = 1.0 / (2 * k + 1) as f64 + t2 * sum;
    }
    2.0 * t * sum
}

const fn trig_table() -> [[f64; 2]; 256] {
    let mut table = [[0.0; 2]; 256];
    let mut n = 0;
    while n < 256 {
        // a = q·π/2 + b with b in the first quadrant, folded into the
        // first octant so the series only ever sees |b| ≤ π/4.
        let m = n % 64;
        let (sin_b, cos_b) = if m <= 32 {
            sin_cos_series(m)
        } else {
            let (s, c) = sin_cos_series(64 - m);
            (c, s)
        };
        table[n] = match n / 64 {
            0 => [cos_b, sin_b],
            1 => [-sin_b, cos_b],
            2 => [-cos_b, -sin_b],
            _ => [sin_b, -cos_b],
        };
        n += 1;
    }
    table
}

/// `(sin b, cos b)` for `b = 2π·m/256 ≤ π/4` by nested Taylor series.
const fn sin_cos_series(m: usize) -> (f64, f64) {
    let b = m as f64 * (TAU / 256.0);
    let b2 = b * b;
    let (mut s, mut c) = (1.0, 1.0);
    let mut j = 12;
    while j > 0 {
        let j2 = (2 * j) as f64;
        s = 1.0 - b2 * s / (j2 * (j2 + 1.0));
        c = 1.0 - b2 * c / ((j2 - 1.0) * j2);
        j -= 1;
    }
    (b * s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    const U: f64 = 1.0 / (1u64 << 53) as f64;

    /// The rejection loop every workload ran before `normal_index`.
    fn reference(rng: &mut DetRng, mean: f64, sd: f64, bound: u32) -> u32 {
        loop {
            let x = rng.normal(mean, sd);
            if x >= 0.0 && x < bound as f64 {
                break x as u32;
            }
        }
    }

    /// The request shapes the workloads draw, `(name, centres, σ, bound)`;
    /// request `i` uses centre `i mod len`.
    fn shapes() -> [(&'static str, Vec<f64>, f64, u32); 5] {
        let churn: Vec<f64> = [0.15, 0.65, 0.35, 0.85]
            .iter()
            .map(|c| c * 65_536.0)
            .collect();
        let kv = 10_000.0;
        let wide = (1u32 << 20) as f64;
        [
            ("fleet tenant", vec![12.0], 3.0, 24),
            ("steady", vec![2048.0], 512.0, 4096),
            ("churn phases", churn, 0.08 * 65_536.0, 65_536),
            ("kvstore", vec![kv / 2.0], kv * 0.15, 10_000),
            ("2^20 slots", vec![wide / 2.0], wide * 0.125, 1 << 20),
        ]
    }

    /// Draws `requests` slots of one shape three ways from one seed:
    /// `normal_index`, the reference loop, and an instrumented replay of the
    /// two phases. Asserts equal slots and equal generator state after;
    /// returns the number of pairs the fast phase left to libm.
    fn sweep(seed: u64, centres: &[f64], sd: f64, bound: u32, requests: u64) -> u64 {
        let mut fast = DetRng::seed(seed);
        let mut slow = fast.clone();
        let mut probe = fast.clone();
        let mut fallbacks = 0;
        for i in 0..requests {
            let mean = centres[(i % centres.len() as u64) as usize];
            let got = fast.normal_index(mean, sd, bound);
            let want = reference(&mut slow, mean, sd, bound);
            let replay = loop {
                let (u1, u2) = probe.uniform_pair();
                match fast_step(u1, u2, mean, sd, bound) {
                    Fast::Slot(slot) => break slot,
                    Fast::Reject => {}
                    Fast::Unsure => {
                        fallbacks += 1;
                        if let Some(slot) = exact_step(u1, u2, mean, sd, bound) {
                            break slot;
                        }
                    }
                }
            };
            assert_eq!((got, replay), (want, want), "request {i}, mean {mean}");
        }
        assert!(fast == slow && probe == slow, "draws consumed diverged");
        fallbacks
    }

    #[test]
    fn normal_index_matches_the_reference_loop() {
        for (k, (name, centres, sd, bound)) in shapes().into_iter().enumerate() {
            let fallbacks = sweep(0x5EED_0000 + k as u64, &centres, sd, bound, 1_000_000);
            if bound == 1 << 20 {
                assert!(fallbacks > 0, "{name}: the libm phase never ran");
            }
        }
    }

    /// The contract at release speed over 10⁸ requests per shape; `ci.sh`
    /// runs it. Prints the libm fallbacks per shape.
    #[test]
    #[ignore = "release sweep: cargo test --release -p sim-clock -- --ignored"]
    fn normal_index_matches_the_reference_loop_at_scale() {
        for (k, (name, centres, sd, bound)) in shapes().into_iter().enumerate() {
            let requests = 100_000_000;
            let fallbacks = sweep(0xB16_0000 + k as u64, &centres, sd, bound, requests);
            println!(
                "{name} ({bound} slots, σ {sd}): {requests} requests, {fallbacks} libm fallbacks"
            );
        }
    }

    #[test]
    fn each_phase_branch_agrees_with_libm() {
        let (sd, bound) = (3.0, 24);
        for (u1, u2) in [
            (0.3, 0.1),
            (0.9, 0.55),
            (f64::MIN_POSITIVE, 0.0),
            (U, 1.0 - U),
        ] {
            let z = box_muller(u1, u2);
            let cases = [
                (7.0 - sd * z, Fast::Unsure),          // x̃ within Δ of a cell edge
                (-sd * z, Fast::Unsure),               // ... of 0
                (bound as f64 - sd * z, Fast::Unsure), // ... of bound
                (7.5 - sd * z, Fast::Slot(7)),         // mid-cell
                (-200.0 - sd * z, Fast::Reject),       // far below 0
                (bound as f64 + 200.0 - sd * z, Fast::Reject), // far above bound
            ];
            for (mean, phase) in cases {
                assert_eq!(
                    fast_step(u1, u2, mean, sd, bound),
                    phase,
                    "({u1}, {u2}, {mean})"
                );
                let want = exact_step(u1, u2, mean, sd, bound);
                assert_eq!(truncated_step(u1, u2, mean, sd, bound), want);
                if let Fast::Slot(slot) = phase {
                    assert_eq!(want, Some(slot));
                }
            }
        }
    }

    #[test]
    fn kernels_stay_within_their_stated_bounds() {
        let mut rng = DetRng::seed(0xC05);
        let grid = 1u32 << 20;
        let dense = (0..grid).flat_map(|k| {
            let u = k as f64 / grid as f64;
            [u, u + rng.unit_f64() / grid as f64]
        });
        let edges = [
            0.0,
            1.0 - U,
            0.75,
            0.75 - U,
            0.5,
            0.25 + U,
            U,
            f64::MIN_POSITIVE,
        ];
        let (mut cos_err, mut ln_err) = (0.0f64, 0.0f64);
        for u in dense.chain(edges) {
            cos_err = cos_err.max((cos_2pi_kernel(u) - (TAU * u).cos()).abs());
            if u > 0.0 {
                let want = u.ln();
                ln_err = ln_err.max(((ln_kernel(u) - want) / want).abs());
            }
        }
        // Every binade the uniforms reach, on a grid of its own.
        for e in 1..=60 {
            for k in 0..4096 {
                let u = (1.0 + k as f64 / 4096.0) * 0.5f64.powi(e);
                let want = u.ln();
                ln_err = ln_err.max(((ln_kernel(u) - want) / want).abs());
            }
        }
        println!("max |cos_2pi − libm| = {cos_err:e}, max relative |ln − libm| = {ln_err:e}");
        assert!(cos_err <= COS_ERR, "cos kernel error {cos_err:e}");
        assert!(ln_err <= LN_ERR, "ln kernel error {ln_err:e}");
        // The margin over the stated bounds is asserted at compile time,
        // next to `SLACK`; over the measured errors it is wider still.
        let measured = err_per_span(ln_err, cos_err);
        println!(
            "slack / K: {:.0} stated, {:.0} measured",
            SLACK / ERR_PER_SPAN,
            SLACK / measured
        );
    }
}
