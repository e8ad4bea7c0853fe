//! Small dense row-major matrices and SPD solves.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix from row-major data.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow a row slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `selfᵀ * self` — the Gram matrix, computed without materializing the
    /// transpose (the hot kernel of OLS).
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..p {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                let grow = g.row_mut(i);
                for j in i..p {
                    grow[j] += xi * row[j];
                }
            }
        }
        for i in 0..p {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `selfᵀ * y` for a vector `y` of length `nrows`.
    pub fn tr_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            for c in 0..self.cols {
                out[c] += row[c] * yr;
            }
        }
        out
    }

    /// Cholesky factor of `self` with the escalating-ridge fallback for
    /// numerically singular systems (see [`spd_factor_into`]). The factor
    /// is deterministic, so any number of [`Matrix::cholesky_solve`] calls
    /// against it produce exactly the bits that separate `solve_spd` calls
    /// would — factor once, solve many.
    pub fn spd_factor(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        let mut work = Vec::new();
        spd_factor_into(&self.data, n, &mut l.data, &mut work).then_some(l)
    }

    /// Solve `self * x = b` for SPD `self` via Cholesky with the
    /// [`Matrix::spd_factor`] ridge fallback.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, b.len());
        Some(self.spd_factor()?.cholesky_solve(b))
    }

    /// Forward/back substitution given `self` is the lower Cholesky factor
    /// (as returned by [`Matrix::spd_factor`]); see
    /// [`cholesky_solve_in_place`].
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        cholesky_solve_in_place(&self.data, self.rows, &mut x);
        x
    }
}

/// The one Cholesky factorization, on row-major slices: writes the lower
/// triangle of `L` with `L Lᵀ = a` into `l` (both `n × n`), row by row,
/// and returns `false` as soon as a pivot is not positive. Only the lower
/// triangle of `l` is written or read, and every entry is written before
/// it is read, so `l` needs no initialization. [`spd_factor_into`] runs
/// it first on `a` itself, then on each ridged copy.
pub fn cholesky_into(a: &[f64], n: usize, l: &mut [f64]) -> bool {
    debug_assert!(a.len() >= n * n && l.len() >= n * n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return false;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    true
}

/// [`cholesky_into`] with the escalating-ridge fallback for numerically
/// singular systems: when `a` itself does not factor, each of 12 attempts
/// factors a fresh copy of `a` (in `work`, resized to `n × n`) with `λ`
/// added to its diagonal, starting from `λ = 1e-10 · max(tr a, 1) / n` and
/// ×100 per attempt — the standard remedy for collinear one-hot designs.
/// Returns whether some attempt factored; the factor is then in `l`.
pub fn spd_factor_into(a: &[f64], n: usize, l: &mut [f64], work: &mut Vec<f64>) -> bool {
    if cholesky_into(a, n, l) {
        return true;
    }
    let trace: f64 = (0..n).map(|i| a[i * n + i]).sum::<f64>().max(1.0);
    let mut lambda = 1e-10 * trace / n as f64;
    work.resize(n * n, 0.0);
    for _ in 0..12 {
        work.copy_from_slice(&a[..n * n]);
        for i in 0..n {
            work[i * n + i] += lambda;
        }
        if cholesky_into(work, n, l) {
            return true;
        }
        lambda *= 100.0;
    }
    false
}

/// Solve `L Lᵀ x = b` in place (`v` holds `b` on entry and `x` on exit),
/// given the lower Cholesky factor `l` (row-major `n × n`, lower triangle
/// read only): forward substitution `L z = b`, then back substitution
/// `Lᵀ x = z`, each entry in the order a separate-buffer solve computes it.
pub fn cholesky_solve_in_place(l: &[f64], n: usize, v: &mut [f64]) {
    // Forward: L z = b
    for i in 0..n {
        let mut s = v[i];
        for k in 0..i {
            s -= l[i * n + k] * v[k];
        }
        v[i] = s / l[i * n + i];
    }
    // Back: Lᵀ x = z
    for i in (0..n).rev() {
        let mut s = v[i];
        for k in i + 1..n {
            s -= l[k * n + i] * v[k];
        }
        v[i] = s / l[i * n + i];
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            let row: Vec<String> = self.row(r).iter().map(|v| format!("{v:.4}")).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn gram_equals_xtx() {
        // X = [[1,2],[3,4],[5,6]]: XᵀX = [[1+9+25, 2+12+30], [·, 4+16+36]].
        let x = Matrix::from_rows(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let xtx = Matrix::from_rows(2, 2, vec![35., 44., 44., 56.]);
        assert_eq!(x.gram(), xtx);
    }

    #[test]
    fn cholesky_solve_recovers_solution() {
        // SPD matrix A = [[4,2],[2,3]], x = [1, -1], b = A x = [2, -1]
        let a = Matrix::from_rows(2, 2, vec![4., 2., 2., 3.]);
        let x = a.solve_spd(&[2.0, -1.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], -1.0, 1e-10));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut l = [0.0; 4];
        assert!(!cholesky_into(&[0., 1., 1., 0.], 2, &mut l));
    }

    #[test]
    fn ridge_fallback_handles_singular() {
        // Rank-1 matrix: plain Cholesky fails, ridge succeeds.
        let a = Matrix::from_rows(2, 2, vec![1., 1., 1., 1.]);
        let x = a.solve_spd(&[2.0, 2.0]).unwrap();
        // Ridge solution is the minimum-norm-ish solution; A x ≈ b.
        let r0 = x[0] + x[1];
        assert!(approx(r0, 2.0, 1e-3));
    }

    #[test]
    fn tr_mul_vec_matches_transpose_matmul() {
        let x = Matrix::from_rows(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let y = vec![1.0, 0.5, -1.0];
        let v = x.tr_mul_vec(&y);
        assert!(approx(v[0], 1.0 + 1.5 - 5.0, 1e-12));
        assert!(approx(v[1], 2.0 + 2.0 - 6.0, 1e-12));
    }
}
