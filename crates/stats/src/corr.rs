//! Correlation and conditional-independence tests.
//!
//! The PC and FCI discovery algorithms (§6.6 of the paper) decide edges via
//! conditional independence tests. We provide the standard Gaussian
//! machinery — partial correlation computed from the precision matrix, and
//! Fisher's z transform for the test — plus plain Pearson correlation used
//! by the attribute-pruning optimization of §5.2 (a).

use crate::dist::normal_two_sided;
use crate::matrix::Matrix;

/// Pearson correlation of two equal-length samples. Returns 0 for
/// degenerate (constant) inputs.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Partial correlation `ρ(x, y | z…)` computed by regressing both variables
/// on the conditioning set and correlating residuals (numerically robust
/// for small conditioning sets, which is what PC uses).
pub fn partial_correlation(x: &[f64], y: &[f64], zs: &[&[f64]]) -> f64 {
    if zs.is_empty() {
        return pearson(x, y);
    }
    let rx = residualize(x, zs);
    let ry = residualize(y, zs);
    pearson(&rx, &ry)
}

/// Residuals of `v` after OLS on `zs` (with intercept).
fn residualize(v: &[f64], zs: &[&[f64]]) -> Vec<f64> {
    let n = v.len();
    let p = zs.len() + 1;
    let mut x = Matrix::zeros(n, p);
    for r in 0..n {
        x[(r, 0)] = 1.0;
        for (c, z) in zs.iter().enumerate() {
            x[(r, c + 1)] = z[r];
        }
    }
    let gram = x.gram();
    let xty = x.tr_mul_vec(v);
    let Some(beta) = gram.solve_spd(&xty) else {
        return v.to_vec();
    };
    (0..n)
        .map(|r| {
            let yhat: f64 = x.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum();
            v[r] - yhat
        })
        .collect()
}

/// Fisher-z conditional independence test. Returns the p-value for the null
/// `x ⟂ y | zs`; small p ⇒ dependent. `n` is the sample size.
pub fn fisher_z_test(x: &[f64], y: &[f64], zs: &[&[f64]]) -> f64 {
    let n = x.len() as f64;
    let k = zs.len() as f64;
    let df = n - k - 3.0;
    if df <= 0.0 {
        return 1.0; // Not enough data to reject independence.
    }
    let r = partial_correlation(x, y, zs).clamp(-0.999_999, 0.999_999);
    let z = 0.5 * ((1.0 + r) / (1.0 - r)).ln();
    let stat = df.sqrt() * z.abs();
    normal_two_sided(stat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn partial_correlation_removes_confounder() {
        // x and y both driven by z; conditioning on z should kill the
        // correlation.
        let n = 400;
        let z: Vec<f64> = (0..n).map(|i| (i % 23) as f64).collect();
        let e1: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64 - 6.0) * 0.3).collect();
        let e2: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64 - 8.0) * 0.3).collect();
        let x: Vec<f64> = z.iter().zip(&e1).map(|(&a, &b)| a + b).collect();
        let y: Vec<f64> = z.iter().zip(&e2).map(|(&a, &b)| 2.0 * a + b).collect();
        let marginal = pearson(&x, &y).abs();
        let partial = partial_correlation(&x, &y, &[&z]).abs();
        assert!(marginal > 0.9);
        assert!(partial < 0.2);
    }

    #[test]
    fn fisher_z_detects_dependence_and_independence() {
        let n = 300;
        let x: Vec<f64> = (0..n).map(|i| (i % 29) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * 1.5 + 2.0).collect();
        assert!(fisher_z_test(&x, &y, &[]) < 1e-6);
        // Independent-ish sequences generated from co-prime cycles.
        let a: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64).collect();
        assert!(fisher_z_test(&a, &b, &[]) > 0.01);
    }

    #[test]
    fn fisher_z_small_sample_returns_one() {
        assert_eq!(fisher_z_test(&[1.0, 2.0], &[2.0, 1.0], &[]), 1.0);
    }
}
