//! Inverse-propensity-weighting (IPW) and nearest-neighbour matching CATE
//! estimators — the alternatives §7 points at for richer treatment
//! handling ("there are standard approaches in causal inference to address
//! them, such as propensity weighting").
//!
//! Both estimate the same quantity as [`crate::estimate::estimate_cate`]
//! (regression adjustment), which is the engine's only estimator. They are
//! independent reference estimators: the test suite cross-validates the
//! regression estimates against them.

use stats::dist::normal_two_sided;
use stats::matrix::Matrix;
use table::{Column, Table};

use crate::estimate::{append_confounder, CateOptions, CateResult};
use crate::logistic::logistic;

/// Estimate the CATE by stabilized (Hájek) inverse propensity weighting:
/// fit `e(z) = P(T = 1 | Z)` by logistic regression, then contrast the
/// weighted outcome means of the two arms. Propensities are clipped to
/// `[0.01, 0.99]` (standard practice). The p-value is a normal
/// approximation from the influence-function variance.
pub fn estimate_cate_ipw(
    table: &Table,
    subpop: Option<&[bool]>,
    treated: &[bool],
    outcome: usize,
    confounders: &[usize],
    opts: &CateOptions,
) -> Option<CateResult> {
    let nrows = table.nrows();
    let rows: Vec<usize> = match subpop {
        Some(mask) => (0..nrows).filter(|&r| mask[r]).collect(),
        None => (0..nrows).collect(),
    };
    let n = rows.len();
    let n_treated = rows.iter().filter(|&&r| treated[r]).count();
    let n_control = n - n_treated;
    if n_treated < opts.min_arm || n_control < opts.min_arm {
        return None;
    }

    let ycol = table.column(outcome);
    if matches!(ycol, Column::Cat { .. }) {
        return None;
    }
    let y: Vec<f64> = rows.iter().map(|&r| ycol.get_f64(r)).collect();
    let t: Vec<bool> = rows.iter().map(|&r| treated[r]).collect();

    // Propensity model design: intercept + confounders (one-hot cats).
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for &z in confounders {
        append_confounder(table, z, &rows, opts.max_onehot_levels, &mut cols);
    }
    let p = cols.len() + 1;
    let mut x = Matrix::zeros(n, p);
    for r in 0..n {
        x[(r, 0)] = 1.0;
        for (c, col) in cols.iter().enumerate() {
            x[(r, c + 1)] = col[r];
        }
    }
    let fit = logistic(&x, &t, 40)?;

    // Hájek estimator.
    let (mut sw1, mut swy1, mut sw0, mut swy0) = (0.0, 0.0, 0.0, 0.0);
    let mut e_hat = vec![0.0; n];
    for r in 0..n {
        let e = fit.predict(x.row(r)).clamp(0.01, 0.99);
        e_hat[r] = e;
        if t[r] {
            let w = 1.0 / e;
            sw1 += w;
            swy1 += w * y[r];
        } else {
            let w = 1.0 / (1.0 - e);
            sw0 += w;
            swy0 += w * y[r];
        }
    }
    if sw1 <= 0.0 || sw0 <= 0.0 {
        return None;
    }
    let mu1 = swy1 / sw1;
    let mu0 = swy0 / sw0;
    let cate = mu1 - mu0;

    // Influence-function variance of the Hájek contrast.
    let mut var = 0.0;
    for r in 0..n {
        let inf = if t[r] {
            (y[r] - mu1) / e_hat[r]
        } else {
            -(y[r] - mu0) / (1.0 - e_hat[r])
        };
        var += inf * inf;
    }
    var /= (n * n) as f64;
    let se = var.sqrt();
    let p_value = if se > 0.0 {
        normal_two_sided(cate / se)
    } else {
        f64::NAN
    };

    Some(CateResult {
        cate,
        p_value,
        n,
        n_treated,
        n_control,
    })
}

/// Estimate the average treatment effect on the treated (ATT) by 1-NN
/// covariate matching: each treated unit is matched to its nearest control
/// in standardized confounder space; the ATT is the mean treated−matched
/// outcome difference. Quadratic in arm sizes, so the subpopulation is
/// capped at `opts.sample_cap` (deterministic prefix when unset is fine —
/// callers sample upstream).
pub fn estimate_att_matching(
    table: &Table,
    subpop: Option<&[bool]>,
    treated: &[bool],
    outcome: usize,
    confounders: &[usize],
    opts: &CateOptions,
) -> Option<CateResult> {
    let nrows = table.nrows();
    let mut rows: Vec<usize> = match subpop {
        Some(mask) => (0..nrows).filter(|&r| mask[r]).collect(),
        None => (0..nrows).collect(),
    };
    if let Some(cap) = opts.sample_cap {
        rows.truncate(cap);
    }
    let n = rows.len();
    let n_treated = rows.iter().filter(|&&r| treated[r]).count();
    let n_control = n - n_treated;
    if n_treated < opts.min_arm || n_control < opts.min_arm {
        return None;
    }
    let ycol = table.column(outcome);
    if matches!(ycol, Column::Cat { .. }) {
        return None;
    }

    // Standardized confounder vectors.
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for &z in confounders {
        append_confounder(table, z, &rows, opts.max_onehot_levels, &mut cols);
    }
    for col in cols.iter_mut() {
        let m = col.iter().sum::<f64>() / n as f64;
        let sd = (col.iter().map(|v| (v - m).powi(2)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-9);
        for v in col.iter_mut() {
            *v = (*v - m) / sd;
        }
    }

    let feature = |i: usize| -> Vec<f64> { cols.iter().map(|c| c[i]).collect() };
    let controls: Vec<usize> = (0..n).filter(|&i| !treated[rows[i]]).collect();

    let mut diff_sum = 0.0;
    let mut diffs: Vec<f64> = Vec::new();
    for i in 0..n {
        if !treated[rows[i]] {
            continue;
        }
        let fi = feature(i);
        let mut best = (f64::INFINITY, controls[0]);
        for &j in &controls {
            let fj = feature(j);
            let d: f64 = fi.iter().zip(&fj).map(|(a, b)| (a - b).powi(2)).sum();
            if d < best.0 {
                best = (d, j);
            }
        }
        let d = ycol.get_f64(rows[i]) - ycol.get_f64(rows[best.1]);
        diff_sum += d;
        diffs.push(d);
    }
    let att = diff_sum / n_treated as f64;
    // Paired-difference normal approximation.
    let var =
        diffs.iter().map(|d| (d - att).powi(2)).sum::<f64>() / (diffs.len().max(2) - 1) as f64;
    let se = (var / diffs.len() as f64).sqrt();
    let p_value = if se > 0.0 {
        normal_two_sided(att / se)
    } else {
        f64::NAN
    };

    Some(CateResult {
        cate: att,
        p_value,
        n,
        n_treated,
        n_control,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_cate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use table::TableBuilder;

    /// Confounded data with true effect 10 (same design as estimate.rs).
    fn confounded(n: usize, seed: u64) -> (Table, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let zi: i64 = rng.gen_range(0..5);
            let ti = rng.gen_bool(0.1 + 0.18 * zi as f64);
            let noise: f64 = rng.gen_range(-1.0..1.0);
            z.push(zi);
            t.push(ti);
            y.push(10.0 * ti as i64 as f64 + 5.0 * zi as f64 + noise);
        }
        let table = TableBuilder::new()
            .int("z", z)
            .unwrap()
            .float("y", y)
            .unwrap()
            .build()
            .unwrap();
        (table, t)
    }

    #[test]
    fn ipw_removes_confounding() {
        let (table, treated) = confounded(6_000, 3);
        let opts = CateOptions::default();
        let r = estimate_cate_ipw(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert!((r.cate - 10.0).abs() < 0.5, "ipw cate = {}", r.cate);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn ipw_agrees_with_regression_backend() {
        let (table, treated) = confounded(6_000, 9);
        let opts = CateOptions::default();
        let ipw = estimate_cate_ipw(&table, None, &treated, 1, &[0], &opts).unwrap();
        let reg = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert!(
            (ipw.cate - reg.cate).abs() < 0.5,
            "ipw {} vs regression {}",
            ipw.cate,
            reg.cate
        );
    }

    #[test]
    fn matching_recovers_att() {
        let (table, treated) = confounded(1_500, 5);
        let opts = CateOptions {
            sample_cap: Some(1_500),
            ..CateOptions::default()
        };
        let r = estimate_att_matching(&table, None, &treated, 1, &[0], &opts).unwrap();
        // Exact matches exist on the discrete confounder ⇒ tight recovery.
        assert!((r.cate - 10.0).abs() < 0.5, "matching att = {}", r.cate);
    }

    #[test]
    fn overlap_violations_return_none() {
        let (table, _) = confounded(100, 1);
        let all = vec![true; 100];
        let opts = CateOptions::default();
        assert!(estimate_cate_ipw(&table, None, &all, 1, &[], &opts).is_none());
        assert!(estimate_att_matching(&table, None, &all, 1, &[], &opts).is_none());
    }

    #[test]
    fn subpop_restriction_respected() {
        let (table, treated) = confounded(4_000, 11);
        let subpop: Vec<bool> = (0..4_000).map(|i| i % 2 == 0).collect();
        let opts = CateOptions::default();
        let r = estimate_cate_ipw(&table, Some(&subpop), &treated, 1, &[0], &opts).unwrap();
        assert_eq!(r.n, 2_000);
        assert!((r.cate - 10.0).abs() < 0.8);
    }
}
