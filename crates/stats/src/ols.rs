//! Ordinary least squares with inference.
//!
//! This is the CATE estimation backend: the paper computes CATE values with
//! DoWhy's linear-regression estimator, i.e. it regresses the outcome on
//! `[1, T, Z…]` and reads the causal effect off the coefficient of the
//! binary treatment indicator `T`, with the usual t-test p-value. We
//! reproduce exactly that: `β = (XᵀX)⁻¹ Xᵀy` via Cholesky (with a ridge
//! fallback for collinear one-hot designs), `se(β_j) = √(s² [(XᵀX)⁻¹]_jj)`,
//! and a two-sided Student-t p-value with `n − p` degrees of freedom.
//!
//! A single-coefficient fit from the cached blocks of the normal
//! equations ([`BorderedBlocks`]) comes in two halves. The **fit**
//! ([`BorderedBlocks::fit_at`]) factors the Gram, solves for `β` and reads
//! the target's `[(XᵀX)⁻¹]_jj`; it costs `O(p³)` and decides the
//! coefficient. The **inference** ([`GramFit::p_value`]) turns the
//! residual sum of squares into `s²`, the standard error and the
//! Student-t tail. Only the inference needs the data again (the `O(n·p)`
//! residual pass), so a caller that ranks many fits by their coefficient
//! can hold the [`GramFit`] and pay for the residual pass only when it
//! reads the p-value. Both halves run the operations of [`ols`] on the
//! same design, so the target's `β` and p-value have its bits.

use crate::dist::student_t_sf;
use crate::matrix::{cholesky_solve_in_place, spd_factor_into, Matrix};

/// Result of an OLS fit.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Fitted coefficients, one per design column.
    pub beta: Vec<f64>,
    /// Standard error per coefficient (NaN when df ≤ 0).
    pub se: Vec<f64>,
    /// Two-sided t-test p-value per coefficient (NaN when df ≤ 0).
    pub p_value: Vec<f64>,
    /// Residual degrees of freedom `n − p`.
    pub df: f64,
    /// Residual variance `s² = RSS / df`.
    pub s2: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Fit `y ≈ X β` by least squares. `x` is the full design matrix including
/// any intercept column the caller wants. Returns `None` if the normal
/// equations cannot be solved even with the ridge fallback, or if shapes
/// are inconsistent / empty.
pub fn ols(x: &Matrix, y: &[f64]) -> Option<OlsFit> {
    let n = x.nrows();
    let p = x.ncols();
    if n == 0 || p == 0 || y.len() != n {
        return None;
    }
    let l = x.gram().spd_factor()?;
    let beta = l.cholesky_solve(&x.tr_mul_vec(y));

    // RSS and TSS from the data, not from the algebraic shortcut
    // `yᵀy − 2βᵀXᵀy + βᵀGβ`, which cancels catastrophically on near-exact
    // fits.
    let mut rss = 0.0;
    let mut tss = 0.0;
    let ybar = y.iter().sum::<f64>() / n as f64;
    for r in 0..n {
        let yhat: f64 = x.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum();
        let e = y[r] - yhat;
        rss += e * e;
        let d = y[r] - ybar;
        tss += d * d;
    }

    let df = n as f64 - p as f64;
    let (s2, se, p_value) = if df > 0.0 {
        let s2 = rss / df;
        let mut se = Vec::with_capacity(p);
        for j in 0..p {
            se.push((s2 * inv_diag(&l, p, j)).max(0.0).sqrt());
        }
        let p_value: Vec<f64> = beta
            .iter()
            .zip(&se)
            .map(|(&b, &s)| {
                if s > 0.0 {
                    student_t_sf(b / s, df)
                } else {
                    // Zero variance ⇒ exact fit of this column; the
                    // coefficient is not testable.
                    f64::NAN
                }
            })
            .collect();
        (s2, se, p_value)
    } else {
        (f64::NAN, vec![f64::NAN; p], vec![f64::NAN; p])
    };

    let r2 = if tss > 0.0 { 1.0 - rss / tss } else { 0.0 };
    Some(OlsFit {
        beta,
        se,
        p_value,
        df,
        s2,
        r2,
    })
}

/// The fit half of a single-coefficient OLS fit (see the [module
/// docs](self)): `β` and the target coefficient's `[(XᵀX)⁻¹]_jj`, both read
/// off one Cholesky factor. Produced by [`BorderedBlocks::fit_at`]; the
/// inference half ([`GramFit::p_value`]) needs only the residual sum of
/// squares on top.
#[derive(Debug, Clone)]
pub struct GramFit {
    /// Fitted coefficients, one per design column.
    pub beta: Vec<f64>,
    /// The coefficient inference is computed for.
    target: usize,
    /// `[(XᵀX)⁻¹]_tt` for `t = target`.
    inv_diag: f64,
    /// Rows of the design.
    n: usize,
}

impl GramFit {
    /// Two-sided t-test p-value of the target coefficient given the
    /// residual sum of squares; NaN when `df ≤ 0` or the standard error is
    /// zero (an exact fit of the column leaves the coefficient
    /// untestable). The same bits as `p_value[target]` of [`ols`] on the
    /// same design and RSS.
    pub fn p_value(&self, rss: f64) -> f64 {
        let df = self.n as f64 - self.beta.len() as f64;
        if df <= 0.0 {
            return f64::NAN;
        }
        let s2 = rss / df;
        let se = (s2 * self.inv_diag).max(0.0).sqrt();
        if se > 0.0 {
            student_t_sf(self.beta[self.target] / se, df)
        } else {
            f64::NAN
        }
    }
}

/// The blocks of the normal equations `(XᵀX, Xᵀy)` of the bordered design
/// `X = [1, T, Z]`, as a caller that caches the `Z`-blocks across many fits
/// holds them (CATE estimation: the `Z`-blocks are treatment-independent
/// and the `t`-blocks are gathered per candidate). In the block layout of
/// the `(q + 2) × (q + 2)` Gram:
///
/// ```text
///       ⎡  n      Σt     1ᵀZ  ⎤            ⎡ Σy  ⎤
/// XᵀX = ⎢  Σt     Σt     tᵀZ  ⎥ ,    Xᵀy = ⎢ tᵀy ⎥
///       ⎣ Zᵀ1    Zᵀt    ZᵀZ   ⎦            ⎣ Zᵀy ⎦
/// ```
///
/// `Σt = tᵀt = 1ᵀt` for a binary `t`.
#[derive(Debug, Clone, Copy)]
pub struct BorderedBlocks<'a> {
    /// Rows of the design (the `1ᵀ1` corner).
    pub n: usize,
    /// `Σt`.
    pub n_treated: usize,
    /// `1ᵀy`.
    pub sum_y: f64,
    /// `tᵀy`.
    pub ty: f64,
    /// `1ᵀZ` (length `q`).
    pub sum_z: &'a [f64],
    /// `tᵀZ` (length `q`).
    pub tz: &'a [f64],
    /// The fixed `q × q` block `ZᵀZ`.
    pub zz: &'a Matrix,
    /// `Zᵀy` (length `q`).
    pub zy: &'a [f64],
}

/// Scratch `f64`s a fit of `p ≤ 8` columns runs in, on the stack: the
/// Gram, its factor and one solve vector.
const SMALL_FIT: usize = 2 * 8 * 8 + 8;
/// The same for `p ≤ 16`; a wider fit takes its scratch from the heap.
const MEDIUM_FIT: usize = 2 * 16 * 16 + 16;

impl BorderedBlocks<'_> {
    /// The fit half at coefficient `target` (see the [module docs](self)),
    /// without materializing a [`Matrix`]: the Gram is placed into scratch
    /// (on the stack up to 16 columns), factored by
    /// [`crate::matrix::spd_factor_into`] and solved in place, so the only
    /// allocation is `β`. Assembly is pure placement — every entry is one
    /// of the input floats — and the factor, the solve and the
    /// `[(XᵀX)⁻¹]_tt` solve run the operations of [`ols`]'s `Matrix` path
    /// in its order, so `β` has its bits. `None` when shapes are
    /// inconsistent or empty, `target ≥ p`, or the equations cannot be
    /// solved even with the ridge fallback.
    pub fn fit_at(&self, target: usize) -> Option<GramFit> {
        let q = self.sum_z.len();
        if self.tz.len() != q || self.zy.len() != q || self.zz.nrows() != q || self.zz.ncols() != q
        {
            return None;
        }
        let p = q + 2;
        if self.n == 0 || target >= p {
            return None;
        }
        let need = 2 * p * p + p;
        if need <= SMALL_FIT {
            self.fit_in(&mut [0.0; SMALL_FIT][..need], target)
        } else if need <= MEDIUM_FIT {
            self.fit_in(&mut [0.0; MEDIUM_FIT][..need], target)
        } else {
            self.fit_in(&mut vec![0.0; need], target)
        }
    }

    fn fit_in(&self, scratch: &mut [f64], target: usize) -> Option<GramFit> {
        let q = self.sum_z.len();
        let p = q + 2;
        let (gram, rest) = scratch.split_at_mut(p * p);
        let (l, e) = rest.split_at_mut(p * p);
        let nt = self.n_treated as f64;
        gram[0] = self.n as f64;
        gram[1] = nt;
        gram[p] = nt;
        gram[p + 1] = nt;
        for j in 0..q {
            gram[2 + j] = self.sum_z[j];
            gram[(2 + j) * p] = self.sum_z[j];
            gram[p + 2 + j] = self.tz[j];
            gram[(2 + j) * p + 1] = self.tz[j];
            for i in 0..q {
                gram[(2 + i) * p + 2 + j] = self.zz[(i, j)];
            }
        }
        if !spd_factor_into(gram, p, l, &mut Vec::new()) {
            return None;
        }
        let mut beta = Vec::with_capacity(p);
        beta.push(self.sum_y);
        beta.push(self.ty);
        beta.extend_from_slice(self.zy);
        cholesky_solve_in_place(l, p, &mut beta);
        e.fill(0.0);
        e[target] = 1.0;
        cholesky_solve_in_place(l, p, e);
        Some(GramFit {
            beta,
            target,
            inv_diag: e[target],
            n: self.n,
        })
    }
}

/// `[(XᵀX)⁻¹]_{jj}` from the Cholesky factor `l`: solve for the `j`-th
/// inverse column and read its diagonal entry — the exact operations the
/// full inverse performs for that column.
fn inv_diag(l: &Matrix, p: usize, j: usize) -> f64 {
    let mut e = vec![0.0; p];
    e[j] = 1.0;
    l.cholesky_solve(&e)[j]
}

/// Build a design matrix from column vectors, prepending an intercept.
pub fn design_with_intercept(cols: &[Vec<f64>], n: usize) -> Matrix {
    let p = cols.len() + 1;
    let mut x = Matrix::zeros(n, p);
    for r in 0..n {
        x[(r, 0)] = 1.0;
        for (c, col) in cols.iter().enumerate() {
            x[(r, c + 1)] = col[r];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn exact_line_recovered() {
        // y = 2 + 3x, no noise.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 2.0 + 3.0 * x).collect();
        let design = design_with_intercept(&[xs], 10);
        let fit = ols(&design, &y).unwrap();
        assert!(approx(fit.beta[0], 2.0, 1e-9));
        assert!(approx(fit.beta[1], 3.0, 1e-9));
        assert!(fit.r2 > 0.999_999);
    }

    #[test]
    fn noisy_fit_significant_slope() {
        // Deterministic "noise" from a fixed pattern keeps the test stable.
        let n = 200;
        let xs: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.1).collect();
        let y: Vec<f64> = xs
            .iter()
            .zip(&noise)
            .map(|(&x, &e)| 1.0 + 0.5 * x + e)
            .collect();
        let design = design_with_intercept(&[xs], n);
        let fit = ols(&design, &y).unwrap();
        assert!(approx(fit.beta[1], 0.5, 0.02));
        assert!(fit.p_value[1] < 1e-10);
    }

    #[test]
    fn two_regressors() {
        let n = 50;
        let x1: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i / 7) % 5) as f64).collect();
        let y: Vec<f64> = x1
            .iter()
            .zip(&x2)
            .map(|(&a, &b)| 4.0 - 1.5 * a + 2.0 * b)
            .collect();
        let design = design_with_intercept(&[x1, x2], n);
        let fit = ols(&design, &y).unwrap();
        assert!(approx(fit.beta[0], 4.0, 1e-8));
        assert!(approx(fit.beta[1], -1.5, 1e-8));
        assert!(approx(fit.beta[2], 2.0, 1e-8));
    }

    #[test]
    fn collinear_design_still_solves() {
        // x2 = 2*x1 exactly: gram is singular, ridge path must kick in.
        let n = 30;
        let x1: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x2: Vec<f64> = x1.iter().map(|&v| 2.0 * v).collect();
        let y: Vec<f64> = x1.iter().map(|&v| 3.0 * v).collect();
        let design = design_with_intercept(&[x1, x2], n);
        let fit = ols(&design, &y).unwrap();
        // Prediction must still be right even though the split between the
        // two collinear coefficients is arbitrary.
        let pred0 = fit.beta[0] + fit.beta[1] * 5.0 + fit.beta[2] * 10.0;
        assert!(approx(pred0, 15.0, 1e-3));
    }

    #[test]
    fn underdetermined_yields_nan_inference() {
        let design = design_with_intercept(&[vec![1.0, 2.0]], 2);
        let fit = ols(&design, &[1.0, 2.0]).unwrap();
        assert!(fit.df <= 0.0);
        assert!(fit.p_value[0].is_nan());
    }

    #[test]
    fn binary_treatment_coefficient_is_mean_difference() {
        // With a single binary regressor, β_T = mean(treated) − mean(control).
        let t = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let y = vec![1.0, 2.0, 3.0, 7.0, 8.0, 9.0];
        let design = design_with_intercept(&[t], 6);
        let fit = ols(&design, &y).unwrap();
        assert!(approx(fit.beta[1], 6.0, 1e-9));
    }

    /// X = [1, t, z] with binary t: the bordered fit from independently
    /// accumulated blocks has the `β` bits of [`ols`] on the materialized
    /// design, and its p-value at every target has the bits of `ols`'s for
    /// the same RSS; with `df ≤ 0` it is NaN, and inconsistent shapes give
    /// `None`.
    #[test]
    fn bordered_fit_matches_materialized_design() {
        let n = 24;
        let t: Vec<f64> = (0..n).map(|i| ((i % 3) == 0) as i64 as f64).collect();
        let z: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 1.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        let design = design_with_intercept(&[t.clone(), z.clone()], n);
        let full = ols(&design, &y).unwrap();
        // `ols`'s own residual pass, so the RSS is the one it tested.
        let rss: f64 = (0..n)
            .map(|r| {
                let yhat: f64 = design
                    .row(r)
                    .iter()
                    .zip(&full.beta)
                    .map(|(a, b)| a * b)
                    .sum();
                (y[r] - yhat) * (y[r] - yhat)
            })
            .sum();
        assert_eq!(rss / full.df, full.s2);

        let n_treated = t.iter().filter(|&&v| v == 1.0).count();
        let ty: f64 = t.iter().zip(&y).map(|(a, b)| a * b).sum();
        let sum_y: f64 = y.iter().sum();
        let sum_z = [z.iter().sum::<f64>()];
        let tz = [t.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>()];
        let mut zz = Matrix::zeros(1, 1);
        zz[(0, 0)] = z.iter().map(|v| v * v).sum();
        let zy = [z.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>()];
        let blocks = BorderedBlocks {
            n,
            n_treated,
            sum_y,
            ty,
            sum_z: &sum_z,
            tz: &tz,
            zz: &zz,
            zy: &zy,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for target in 0..3 {
            let fit = blocks.fit_at(target).unwrap();
            assert_eq!(bits(&fit.beta), bits(&full.beta), "target {target}");
            let p = fit.p_value(rss);
            assert_eq!(
                p.to_bits(),
                full.p_value[target].to_bits(),
                "target {target}"
            );
        }
        assert!(blocks.fit_at(3).is_none());
        assert!(BorderedBlocks { tz: &[], ..blocks }.fit_at(1).is_none());
        assert!(BorderedBlocks { n: 0, ..blocks }.fit_at(1).is_none());
        let tiny = BorderedBlocks { n: 3, ..blocks }.fit_at(1).unwrap();
        assert!(tiny.p_value(1.0).is_nan(), "df ≤ 0");
    }

    #[test]
    fn shape_mismatch_returns_none() {
        let design = design_with_intercept(&[vec![1.0, 2.0, 3.0]], 3);
        assert!(ols(&design, &[1.0, 2.0]).is_none());
    }
}
