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
//! A single-coefficient fit from the normal equations comes in two halves.
//! The **fit** ([`fit_from_gram_at`]) factors the Gram, solves for `β` and
//! reads the target's `[(XᵀX)⁻¹]_jj`; it costs `O(p³)` and decides the
//! coefficient. The **inference** ([`GramFit::p_value`]) turns the
//! residual sum of squares into `s²`, the standard error and the
//! Student-t tail. Only the inference needs the
//! data again (the `O(n·p)` residual pass), so a caller that ranks many
//! fits by their coefficient can hold the [`GramFit`] and pay for the
//! residual pass only when it reads the p-value. [`ols_from_gram_at`] is
//! the composition of the two halves, so an eager fit and a deferred one
//! produce the same bits.

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
    let gram = x.gram();
    let xty = x.tr_mul_vec(y);
    ols_from_gram(&gram, &xty, n, |beta| {
        let mut rss = 0.0;
        let mut tss = 0.0;
        let ybar = y.iter().sum::<f64>() / n as f64;
        for r in 0..n {
            let row = x.row(r);
            let yhat: f64 = row.iter().zip(beta).map(|(a, b)| a * b).sum();
            let e = y[r] - yhat;
            rss += e * e;
            let d = y[r] - ybar;
            tss += d * d;
        }
        (rss, tss)
    })
}

/// Solve-from-Gram entry point: fit OLS from precomputed normal equations
/// `G = XᵀX` and `Xᵀy`, without ever materializing `X`. Callers that cache
/// the fixed blocks of `G` across many fits (e.g. CATE estimation where
/// only the treatment column changes) assemble `G`/`Xᵀy` in `O(p²)` and
/// land here, skipping the `O(n·p²)` Gram accumulation entirely.
///
/// `residuals` receives the solved `β` and must return `(RSS, TSS)` — the
/// residual and total sums of squares. Computing them from the data keeps
/// inference free of the catastrophic cancellation that the algebraic
/// shortcut `RSS = yᵀy − 2βᵀXᵀy + βᵀGβ` suffers on near-exact fits.
pub fn ols_from_gram(
    gram: &Matrix,
    xty: &[f64],
    n: usize,
    residuals: impl FnOnce(&[f64]) -> (f64, f64),
) -> Option<OlsFit> {
    let p = gram.ncols();
    if n == 0 || p == 0 || gram.nrows() != p || xty.len() != p {
        return None;
    }
    let l = gram.spd_factor()?;
    let beta = l.cholesky_solve(xty);
    let (rss, tss) = residuals(&beta);

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
/// off one Cholesky factor. Produced by [`fit_from_gram_at`]; the
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
    /// Residual degrees of freedom `n − p`.
    fn df(&self) -> f64 {
        self.n as f64 - self.beta.len() as f64
    }

    /// `(s², se, p)` of the target coefficient for residual sum of squares
    /// `rss`; `None` when `df ≤ 0`. The p-value is NaN when the standard
    /// error is zero: an exact fit of the column leaves the coefficient
    /// untestable.
    fn target_inference(&self, rss: f64) -> Option<(f64, f64, f64)> {
        let df = self.df();
        if df <= 0.0 {
            return None;
        }
        let s2 = rss / df;
        let se = (s2 * self.inv_diag).max(0.0).sqrt();
        let p = if se > 0.0 {
            student_t_sf(self.beta[self.target] / se, df)
        } else {
            f64::NAN
        };
        Some((s2, se, p))
    }

    /// Two-sided t-test p-value of the target coefficient given the
    /// residual sum of squares; NaN when `df ≤ 0` or the standard error is
    /// zero. The same bits as `p_value[target]` of [`ols_from_gram_at`].
    pub fn p_value(&self, rss: f64) -> f64 {
        self.target_inference(rss).map_or(f64::NAN, |(_, _, p)| p)
    }

    /// Complete the fit into an [`OlsFit`] from `(RSS, TSS)`, with
    /// inference at the target only — every other entry of `se`/`p_value`
    /// is NaN.
    fn infer(self, rss: f64, tss: f64) -> OlsFit {
        let p = self.beta.len();
        let df = self.df();
        let mut se = vec![f64::NAN; p];
        let mut p_value = vec![f64::NAN; p];
        let s2 = match self.target_inference(rss) {
            Some((s2, se_t, p_t)) => {
                se[self.target] = se_t;
                p_value[self.target] = p_t;
                s2
            }
            None => f64::NAN,
        };
        let r2 = if tss > 0.0 { 1.0 - rss / tss } else { 0.0 };
        OlsFit {
            beta: self.beta,
            se,
            p_value,
            df,
            s2,
            r2,
        }
    }
}

/// The fit half of [`ols_from_gram_at`]: factor `G = XᵀX`, solve for `β`
/// and read `[(XᵀX)⁻¹]_tt` for `t = target`. Returns `None` when shapes are
/// inconsistent or empty, `target ≥ p`, or the normal equations cannot be
/// solved even with the ridge fallback.
pub fn fit_from_gram_at(gram: &Matrix, xty: &[f64], n: usize, target: usize) -> Option<GramFit> {
    let p = gram.ncols();
    if n == 0 || p == 0 || gram.nrows() != p || xty.len() != p || target >= p {
        return None;
    }
    let l = gram.spd_factor()?;
    let beta = l.cholesky_solve(xty);
    let inv_diag = inv_diag(&l, p, target);
    Some(GramFit {
        beta,
        target,
        inv_diag,
        n,
    })
}

/// Like [`ols_from_gram`], but computes inference (standard error,
/// p-value) only for coefficient `target`; every other entry of
/// `se`/`p_value` is NaN. This is the CATE hot path: estimation consumes
/// exactly `beta[1]` and `p_value[1]`, so the `p − 1` unused
/// `(XᵀX)⁻¹`-column substitutions and Student-t evaluations per fit are
/// pure waste. The target entries are bit-identical to the full fit's —
/// same Cholesky factor, same column solve, same t-test.
///
/// This is [`fit_from_gram_at`] followed by the inference half on the
/// caller's `(RSS, TSS)`, so its `p_value[target]` has the bits of
/// [`GramFit::p_value`] on the same RSS.
///
/// ```
/// use stats::ols::{design_with_intercept, ols_from_gram_at};
///
/// // y = 2 + 3x, fitted from precomputed normal equations; inference is
/// // requested for the slope (column 1) only.
/// let n = 12;
/// let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
/// let y: Vec<f64> = x.iter().map(|&v| 2.0 + 3.0 * v + (v % 2.0) * 0.1).collect();
/// let design = design_with_intercept(&[x], n);
/// let gram = design.gram();
/// let xty = design.tr_mul_vec(&y);
/// let fit = ols_from_gram_at(&gram, &xty, n, 1, |beta| {
///     // The caller supplies (RSS, TSS) from the data.
///     let ybar = y.iter().sum::<f64>() / n as f64;
///     let mut rss = 0.0;
///     let mut tss = 0.0;
///     for r in 0..n {
///         let yhat: f64 = design.row(r).iter().zip(beta).map(|(a, b)| a * b).sum();
///         rss += (y[r] - yhat).powi(2);
///         tss += (y[r] - ybar).powi(2);
///     }
///     (rss, tss)
/// }).unwrap();
/// assert!((fit.beta[1] - 3.0).abs() < 0.05);
/// assert!(fit.p_value[1] < 1e-9, "slope is significant");
/// assert!(fit.se[0].is_nan(), "inference was computed only at index 1");
/// ```
pub fn ols_from_gram_at(
    gram: &Matrix,
    xty: &[f64],
    n: usize,
    target: usize,
    residuals: impl FnOnce(&[f64]) -> (f64, f64),
) -> Option<OlsFit> {
    let fit = fit_from_gram_at(gram, xty, n, target)?;
    let (rss, tss) = residuals(&fit.beta);
    Some(fit.infer(rss, tss))
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
    /// [`fit_from_gram_at`] on the assembled normal equations, without
    /// materializing a [`Matrix`]: the Gram is placed into scratch (on the
    /// stack up to 16 columns), factored by [`crate::matrix::spd_factor_into`]
    /// and solved in place, so the only allocation is `β`. Assembly is pure
    /// placement — every entry is one of the input floats — and the
    /// factor, the solve and the `[(XᵀX)⁻¹]_tt` solve run the operations of
    /// the `Matrix` path in its order, so the [`GramFit`] has its bits.
    /// `None` when shapes are inconsistent or empty, `target ≥ p`, or the
    /// equations cannot be solved even with the ridge fallback.
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

    #[test]
    fn ols_from_gram_matches_full_fit() {
        let n = 40;
        let x1: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
        let y: Vec<f64> = x1
            .iter()
            .map(|&v| 2.0 + 0.7 * v + (v % 3.0) * 0.1)
            .collect();
        let design = design_with_intercept(&[x1], n);
        let full = ols(&design, &y).unwrap();
        let gram = design.gram();
        let xty = design.tr_mul_vec(&y);
        let from_gram = ols_from_gram(&gram, &xty, n, |beta| {
            let mut rss = 0.0;
            let mut tss = 0.0;
            let ybar = y.iter().sum::<f64>() / n as f64;
            for r in 0..n {
                let yhat: f64 = design.row(r).iter().zip(beta).map(|(a, b)| a * b).sum();
                rss += (y[r] - yhat).powi(2);
                tss += (y[r] - ybar).powi(2);
            }
            (rss, tss)
        })
        .unwrap();
        assert_eq!(full.beta, from_gram.beta);
        assert_eq!(full.p_value, from_gram.p_value);
        assert_eq!(full.s2, from_gram.s2);
    }

    /// The fit half plus a later `p_value(rss)` gives the bits of the
    /// composed `ols_from_gram_at` and of the full-inference fit, at every
    /// target; with `df ≤ 0` the p-value is NaN.
    #[test]
    fn split_fit_matches_composed_and_full_fits() {
        let n = 30;
        let x1: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.3 * x1[i] - 0.2 * x2[i] + ((i * 13) % 5) as f64 * 0.1)
            .collect();
        let design = design_with_intercept(&[x1, x2], n);
        let gram = design.gram();
        let xty = design.tr_mul_vec(&y);
        let rss_tss = |beta: &[f64]| {
            let ybar = y.iter().sum::<f64>() / n as f64;
            let (mut rss, mut tss) = (0.0, 0.0);
            for r in 0..n {
                let yhat: f64 = design.row(r).iter().zip(beta).map(|(a, b)| a * b).sum();
                rss += (y[r] - yhat).powi(2);
                tss += (y[r] - ybar).powi(2);
            }
            (rss, tss)
        };
        let full = ols_from_gram(&gram, &xty, n, rss_tss).unwrap();
        for target in 0..3 {
            let fit = fit_from_gram_at(&gram, &xty, n, target).unwrap();
            let deferred = fit.p_value(rss_tss(&fit.beta).0);
            let composed = ols_from_gram_at(&gram, &xty, n, target, rss_tss).unwrap();
            assert_eq!(deferred.to_bits(), composed.p_value[target].to_bits());
            assert_eq!(deferred.to_bits(), full.p_value[target].to_bits());
            assert_eq!(composed.se[target].to_bits(), full.se[target].to_bits());
        }
        assert!(fit_from_gram_at(&gram, &xty, n, 3).is_none());
        let tiny = fit_from_gram_at(&gram, &xty, 3, 1).unwrap();
        assert!(tiny.df() <= 0.0 && tiny.p_value(1.0).is_nan());
    }

    /// X = [1, t, z] with binary t: blocks accumulated independently fit
    /// to the bits of the fit over the materialized design's Gram, at
    /// every target; inconsistent shapes give `None`.
    #[test]
    fn bordered_fit_matches_materialized_design() {
        let n = 24;
        let t: Vec<f64> = (0..n).map(|i| ((i % 3) == 0) as i64 as f64).collect();
        let z: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 1.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        let design = design_with_intercept(&[t.clone(), z.clone()], n);
        let full_gram = design.gram();
        let full_xty = design.tr_mul_vec(&y);

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
        for target in 0..3 {
            let want = fit_from_gram_at(&full_gram, &full_xty, n, target).unwrap();
            let got = blocks.fit_at(target).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "target {target}");
        }
        assert!(blocks.fit_at(3).is_none());
        assert!(BorderedBlocks { tz: &[], ..blocks }.fit_at(1).is_none());
        assert!(BorderedBlocks { n: 0, ..blocks }.fit_at(1).is_none());
    }

    #[test]
    fn shape_mismatch_returns_none() {
        let design = design_with_intercept(&[vec![1.0, 2.0, 3.0]], 3);
        assert!(ols(&design, &[1.0, 2.0]).is_none());
    }
}
