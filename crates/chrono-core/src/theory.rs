//! Appendix B: the theory behind candidate filtering.
//!
//! B.1 — *Lower measurement variance*: with `n` i.i.d. CIT samples
//! `t_i ~ U[0, T0]` of a page with access period `T0`, both the mean-value
//! estimator `T1 = (2/n) Σ t_i` and the max-value estimator
//! `T2 = ((n+1)/n) max t_i` are unbiased, but
//! `D(T1) = T0²/(3n)` while `D(T2) = T0²/(n(n+2))` — the maximum (which is
//! what requiring *every* round's CIT below the threshold implements) has
//! strictly lower variance, and is in fact the MVUE by Lehmann–Scheffé.
//!
//! B.2 — *Higher selection efficiency*: with page-density model `h(x, α)`
//! over normalized access period `x = t/TH`, the expected cold-page leakage
//! after `n` rounds is `S(n) = ∫₁^∞ h(x) x⁻ⁿ dx`, the real-hot ratio
//! `R(n) = 1/(1+S(n))`, and the efficiency `E(n) = R(n)/n`. For the uniform
//! density (`α = 1`) `E(n) = (n−1)/n²`, maximized at `n = 2`; numeric
//! integration shows `n = 2` wins across the realistic `α` range — the
//! justification for two-round filtering (and Fig B1/B2).

/// Variance of the mean-value estimator: `T0²/(3n)`.
pub fn mean_estimator_variance(t0: f64, n: u32) -> f64 {
    assert!(n > 0);
    t0 * t0 / (3.0 * n as f64)
}

/// Variance of the max-value estimator: `T0²/(n(n+2))`.
pub fn max_estimator_variance(t0: f64, n: u32) -> f64 {
    assert!(n > 0);
    t0 * t0 / (n as f64 * (n as f64 + 2.0))
}

/// The unnormalized page-density kernel of Eq. 11:
/// `x^(1-1/α) · α^(αx + 1/(αx))`, defined for `x > 0`, `0 < α ≤ 1`.
fn h_kernel(x: f64, alpha: f64) -> f64 {
    debug_assert!(x > 0.0);
    x.powf(1.0 - 1.0 / alpha) * alpha.powf(alpha * x + 1.0 / (alpha * x))
}

/// The normalization constant `C_α` making `∫₀¹ h(x, α) dx = 1`.
pub fn h_normalizer(alpha: f64) -> f64 {
    integrate(|x| h_kernel(x, alpha), 1e-9, 1.0, 20_000)
}

/// The normalized page density `h(x, α)` (Fig B1).
pub fn h_density(x: f64, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "α must be in (0, 1]");
    assert!(x > 0.0, "x must be positive");
    h_kernel(x, alpha) / h_normalizer(alpha)
}

/// Cold-page leakage `S(n) = ∫₁^∞ h(x, α) x⁻ⁿ dx` for `n ≥ 2` scan rounds.
pub fn s_leakage(n: u32, alpha: f64) -> f64 {
    assert!(n >= 1);
    let c = h_normalizer(alpha);
    // The integrand decays at least as fast as x^-n (and exponentially for
    // α < 1); [1, 200] captures it to far beyond f64 display precision.
    integrate(
        |x| h_kernel(x, alpha) / c * x.powi(-(n as i32)),
        1.0,
        200.0,
        40_000,
    )
}

/// Real-hot-page ratio `R(n) = 1/(1 + S(n))`.
pub fn r_ratio(n: u32, alpha: f64) -> f64 {
    1.0 / (1.0 + s_leakage(n, alpha))
}

/// Promotion efficiency `E(n) = R(n)/n` (Fig B2).
pub fn efficiency(n: u32, alpha: f64) -> f64 {
    r_ratio(n, alpha) / n as f64
}

/// Closed-form efficiency for the uniform density (`α = 1`): `(n−1)/n²`.
pub fn efficiency_uniform_closed_form(n: u32) -> f64 {
    (n as f64 - 1.0) / (n as f64 * n as f64)
}

/// The `n` (within 2..=max_n) maximizing `E(n, α)`.
///
/// `n = 1` is excluded as the paper does in Fig B2: a single sample gives
/// the maximum-variance estimate (Appendix B.1), and for the uniform density
/// `S(1)` diverges, so one-round selection is dominated on stability grounds
/// before efficiency even enters.
pub fn best_round_count(alpha: f64, max_n: u32) -> u32 {
    (2..=max_n)
        .max_by(|a, b| {
            efficiency(*a, alpha)
                .partial_cmp(&efficiency(*b, alpha))
                .expect("efficiencies are finite")
        })
        .expect("non-empty range")
}

/// Composite Simpson integration on `[a, b]` with `steps` (even) intervals.
fn integrate<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, steps: usize) -> f64 {
    let steps = if steps.is_multiple_of(2) {
        steps
    } else {
        steps + 1
    };
    let h = (b - a) / steps as f64;
    let mut acc = f(a) + f(b);
    for i in 1..steps {
        let x = a + i as f64 * h;
        acc += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::DetRng;

    #[test]
    fn estimator_variances_match_closed_forms_by_monte_carlo() {
        let t0 = 10.0;
        let n = 3;
        let trials = 200_000;
        let mut rng = DetRng::seed(42);
        let (mut mean_sq, mut mean_sum) = (0.0, 0.0);
        let (mut max_sq, mut max_sum) = (0.0, 0.0);
        for _ in 0..trials {
            let samples: Vec<f64> = (0..n).map(|_| rng.unit_f64() * t0).collect();
            let t1 = 2.0 * samples.iter().sum::<f64>() / n as f64;
            let t2 = (n as f64 + 1.0) / n as f64 * samples.iter().cloned().fold(f64::MIN, f64::max);
            mean_sum += t1;
            mean_sq += t1 * t1;
            max_sum += t2;
            max_sq += t2 * t2;
        }
        let t = trials as f64;
        let var_mean = mean_sq / t - (mean_sum / t).powi(2);
        let var_max = max_sq / t - (max_sum / t).powi(2);
        // Both unbiased…
        assert!((mean_sum / t - t0).abs() < 0.05, "{}", mean_sum / t);
        assert!((max_sum / t - t0).abs() < 0.05, "{}", max_sum / t);
        // …and the variances match the closed forms within Monte-Carlo noise.
        assert!((var_mean - mean_estimator_variance(t0, n as u32)).abs() < 0.3);
        assert!((var_max - max_estimator_variance(t0, n as u32)).abs() < 0.3);
    }

    #[test]
    fn max_estimator_has_lower_variance_for_all_n() {
        for n in 1..20 {
            assert!(
                max_estimator_variance(1.0, n) <= mean_estimator_variance(1.0, n) + 1e-12,
                "n = {}",
                n
            );
        }
        // Strictly lower from n = 2 on.
        assert!(max_estimator_variance(1.0, 2) < mean_estimator_variance(1.0, 2));
    }

    #[test]
    fn h_density_normalizes_on_unit_interval() {
        for alpha in [0.25, 0.4, 0.6, 0.9, 1.0] {
            let c = h_normalizer(alpha);
            assert!(c > 0.0);
            // `h_density` re-integrates the normalizer on every call, so the
            // quadrature runs over `kernel / c` — bit-identical, because the
            // normalizer is deterministic — instead of over `h_density`.
            for x in [1e-3, 0.25, 0.5, 1.0, 2.5] {
                assert_eq!(
                    h_density(x, alpha),
                    h_kernel(x, alpha) / c,
                    "α = {alpha}, x = {x}"
                );
            }
            let total = integrate(|x| h_kernel(x, alpha) / c, 1e-9, 1.0, 20_000);
            assert!((total - 1.0).abs() < 1e-6, "α = {}: {}", alpha, total);
        }
    }

    #[test]
    fn alpha_one_density_is_uniform() {
        // h(x, 1) = x^0 · 1^(…) = 1 before normalization → density 1 (up to
        // the integrator's 1e-9 lower cutoff).
        for x in [0.1, 0.5, 0.9, 1.5] {
            assert!((h_density(x, 1.0) - 1.0).abs() < 1e-6, "x = {}", x);
        }
    }

    #[test]
    fn smaller_alpha_means_peakier_hot_density() {
        // The paper: "the maximum of h gets higher when α is smaller".
        let peak = |alpha: f64| -> f64 {
            (1..100)
                .map(|i| h_density(i as f64 / 100.0 * 5.0 + 1e-6, alpha))
                .fold(f64::MIN, f64::max)
        };
        assert!(peak(0.25) > peak(0.6));
        assert!(peak(0.6) > peak(1.0));
    }

    #[test]
    fn uniform_efficiency_matches_closed_form() {
        for n in 2..8 {
            let numeric = efficiency(n, 1.0);
            let closed = efficiency_uniform_closed_form(n);
            assert!(
                (numeric - closed).abs() < 1e-3,
                "n = {}: numeric {} vs closed {}",
                n,
                numeric,
                closed
            );
        }
    }

    #[test]
    fn two_rounds_is_optimal_for_realistic_alphas() {
        for alpha in [0.3, 0.4, 0.6, 0.9, 1.0] {
            assert_eq!(best_round_count(alpha, 7), 2, "α = {}", alpha);
        }
    }

    #[test]
    fn single_round_loses_under_the_uniform_density() {
        // For α = 1, S(1) = ∫ x⁻¹ dx diverges (E(1) → 0 as the closed form
        // (n−1)/n² says); even the bounded numeric integral keeps E(1) well
        // below E(2). For peaky densities (small α) one round *can* look
        // efficient on this metric — the paper excludes n = 1 on variance
        // grounds (Appendix B.1), not efficiency.
        assert!(efficiency(2, 1.0) > efficiency(1, 1.0));
        assert_eq!(efficiency_uniform_closed_form(1), 0.0);
    }

    #[test]
    fn simpson_integrates_polynomials_exactly() {
        let val = integrate(|x| x * x, 0.0, 3.0, 100);
        assert!((val - 9.0).abs() < 1e-9);
    }
}
