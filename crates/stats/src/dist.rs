//! Probability distributions: Normal and Student-t.
//!
//! Implemented via the classic special functions — `erfc` (Abramowitz &
//! Stegun 7.1.26 is too coarse for p-values, so we use a higher-precision
//! Chebyshev fit) for the normal distribution, and the regularized
//! incomplete beta function (Lentz continued fraction, NR §6.4) for the t
//! distribution.

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Complementary error function; accurate in the far tail (needed for tiny
/// p-values like the paper's `p < 1e-4` report lines).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // Chebyshev-fitted approximation (Numerical Recipes erfcc), |err|<1.2e-7
    let z = x;
    let t = 1.0 / (1.0 + 0.5 * z);

    t * (-z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
        .exp()
}

/// Two-sided normal survival: `P(|Z| > |z|)`.
pub fn normal_two_sided(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2)
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Both branches are computed directly (no mutual recursion): at the
/// branch boundary, floating-point rounding of `1 − x` can otherwise
/// bounce `beta_inc(a, b, x) → beta_inc(b, a, 1−x) → beta_inc(a, b, x)`
/// forever.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x.is_nan() || a.is_nan() || b.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        // Symmetry I_x(a,b) = 1 − I_{1−x}(b,a), with the continued
        // fraction evaluated directly for the flipped arguments.
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Lentz continued fraction for the incomplete beta.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-sided Student-t survival function: `P(|T_df| > |t|)` — the p-value
/// of a regression coefficient's t-statistic.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    beta_inc(0.5 * df, 0.5, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!(approx(ln_gamma(5.0).exp(), 24.0, 1e-8));
        assert!(approx(ln_gamma(1.0), 0.0, 1e-12));
        assert!(approx(
            ln_gamma(0.5).exp(),
            std::f64::consts::PI.sqrt(),
            1e-9
        ));
    }

    /// The normal CDF's reference points, read as two-sided tails:
    /// `P(|Z| > |z|) = 2·Φ(−|z|)`.
    #[test]
    fn normal_cdf_reference_values() {
        assert!(approx(normal_two_sided(0.0), 1.0, 4e-7));
        assert!(approx(normal_two_sided(1.959_963_985), 0.05, 2e-6));
        assert!(approx(normal_two_sided(-1.0), 0.317_310_5, 2e-6));
    }

    #[test]
    fn erfc_tail_is_small_but_positive() {
        let v = erfc(5.0);
        assert!(v > 0.0 && v < 1e-10);
    }

    #[test]
    fn t_sf_matches_known_quantiles() {
        // For df=10, t=2.228 is the 97.5% quantile → two-sided p ≈ 0.05.
        assert!(approx(student_t_sf(2.228, 10.0), 0.05, 2e-3));
        // Large df behaves like a normal.
        assert!(approx(
            student_t_sf(1.96, 100_000.0),
            normal_two_sided(1.96),
            1e-4
        ));
        // Symmetric in t.
        assert!(approx(
            student_t_sf(-2.5, 7.0),
            student_t_sf(2.5, 7.0),
            1e-12
        ));
    }

    #[test]
    fn beta_inc_edges_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        let x = 0.37;
        assert!(approx(
            beta_inc(2.5, 1.5, x),
            1.0 - beta_inc(1.5, 2.5, 1.0 - x),
            1e-10
        ));
        // Uniform case: I_x(1,1) = x
        assert!(approx(beta_inc(1.0, 1.0, 0.42), 0.42, 1e-10));
    }
}
