//! Dense two-phase primal simplex.
//!
//! Solves `maximize cᵀx  s.t.  Ax {≤,=,≥} b, 0 ≤ x` (upper bounds are
//! added as explicit rows by the caller or via
//! [`LpProblem::with_upper_bound`]). Phase 1 drives artificial variables
//! out with the auxiliary objective; phase 2 optimizes the true objective.
//! Bland's anti-cycling rule keeps termination guaranteed; reduced costs
//! are recomputed per iteration, which is plenty fast for the LPs the
//! CauSumX pipeline produces (tens of variables once `cover` has merged
//! groups into signature classes).

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A sparse constraint row.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program in natural form: maximize `objective · x` subject to
/// the constraints, with all variables implicitly `≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    /// Objective coefficients (length = number of variables).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Problem with `n` variables and zero objective.
    pub fn new(n: usize) -> Self {
        LpProblem {
            objective: vec![0.0; n],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Add a constraint.
    pub fn add(&mut self, terms: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64) {
        self.constraints.push(Constraint { terms, op, rhs });
    }

    /// Convenience: add `x_j ≤ u`.
    pub fn with_upper_bound(&mut self, var: usize, upper: f64) {
        self.add(vec![(var, 1.0)], ConstraintOp::Le, upper);
    }
}

/// Termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// Iteration limit hit (should not occur with Bland's rule; kept as a
    /// defensive signal).
    IterationLimit,
}

/// Solver output.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Primal values (meaningful when `status == Optimal`).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

const EPS: f64 = 1e-9;
const MAX_ITER: usize = 50_000;

/// Solve the LP.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let n = problem.num_vars();
    let m = problem.constraints.len();

    // Normalize: rhs ≥ 0.
    let mut rows: Vec<(Vec<f64>, ConstraintOp, f64)> = Vec::with_capacity(m);
    for c in &problem.constraints {
        let mut dense = vec![0.0; n];
        for &(j, v) in &c.terms {
            dense[j] += v;
        }
        let (dense, op, rhs) = if c.rhs < 0.0 {
            let flipped = match c.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
            (dense.iter().map(|v| -v).collect(), flipped, -c.rhs)
        } else {
            (dense, c.op, c.rhs)
        };
        rows.push((dense, op, rhs));
    }

    // Column layout: [structural | slacks/surplus | artificials].
    let mut n_slack = 0;
    let mut n_artificial = 0;
    for (_, op, _) in &rows {
        match op {
            ConstraintOp::Le => n_slack += 1,
            ConstraintOp::Ge => {
                n_slack += 1;
                n_artificial += 1;
            }
            ConstraintOp::Eq => n_artificial += 1,
        }
    }
    let total = n + n_slack + n_artificial;
    let art_start = n + n_slack;

    let mut a = vec![vec![0.0; total]; m];
    let mut b = vec![0.0; m];
    let mut basis = vec![0usize; m];
    let mut si = 0;
    let mut ai = 0;
    for (i, (dense, op, rhs)) in rows.iter().enumerate() {
        a[i][..n].copy_from_slice(dense);
        b[i] = *rhs;
        match op {
            ConstraintOp::Le => {
                a[i][n + si] = 1.0;
                basis[i] = n + si;
                si += 1;
            }
            ConstraintOp::Ge => {
                a[i][n + si] = -1.0;
                si += 1;
                a[i][art_start + ai] = 1.0;
                basis[i] = art_start + ai;
                ai += 1;
            }
            ConstraintOp::Eq => {
                a[i][art_start + ai] = 1.0;
                basis[i] = art_start + ai;
                ai += 1;
            }
        }
    }

    // Phase 1: maximize −Σ artificials.
    if n_artificial > 0 {
        let mut c1 = vec![0.0; total];
        for j in art_start..total {
            c1[j] = -1.0;
        }
        match run_simplex(&mut a, &mut b, &mut basis, &c1, total) {
            SimplexOutcome::Optimal => {}
            SimplexOutcome::Unbounded => {
                // Phase-1 objective is bounded above by 0; cannot happen.
                return LpSolution {
                    status: LpStatus::Infeasible,
                    x: vec![0.0; n],
                    objective: 0.0,
                };
            }
            SimplexOutcome::IterationLimit => {
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    x: vec![0.0; n],
                    objective: 0.0,
                };
            }
        }
        let phase1_obj: f64 = basis
            .iter()
            .zip(&b)
            .filter(|(&bv, _)| bv >= art_start)
            .map(|(_, &rhs)| rhs)
            .sum();
        if phase1_obj > 1e-7 {
            return LpSolution {
                status: LpStatus::Infeasible,
                x: vec![0.0; n],
                objective: 0.0,
            };
        }
        // Pivot any remaining (zero-valued) artificial basics out.
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| a[i][j].abs() > EPS) {
                    pivot(&mut a, &mut b, &mut basis, i, j);
                }
                // If the row is all zeros over structural+slack columns it
                // is redundant; leaving the artificial basic at value 0 is
                // harmless because its column is now frozen below.
            }
        }
        // Freeze artificial columns at zero.
        for row in a.iter_mut() {
            for j in art_start..total {
                row[j] = 0.0;
            }
        }
    }

    // Phase 2.
    let mut c2 = vec![0.0; total];
    c2[..n].copy_from_slice(&problem.objective);
    let status = match run_simplex(&mut a, &mut b, &mut basis, &c2, art_start) {
        SimplexOutcome::Optimal => LpStatus::Optimal,
        SimplexOutcome::Unbounded => LpStatus::Unbounded,
        SimplexOutcome::IterationLimit => LpStatus::IterationLimit,
    };

    let mut x = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            x[bv] = b[i];
        }
    }
    let objective = x.iter().zip(&problem.objective).map(|(a, b)| a * b).sum();
    LpSolution {
        status,
        x,
        objective,
    }
}

enum SimplexOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Primal simplex iterations with Bland's rule over columns `0..ncols`.
fn run_simplex(
    a: &mut [Vec<f64>],
    b: &mut [f64],
    basis: &mut [usize],
    c: &[f64],
    ncols: usize,
) -> SimplexOutcome {
    let m = a.len();
    for _ in 0..MAX_ITER {
        // Reduced costs r_j = c_j − c_B · A_j.
        let cb: Vec<f64> = basis.iter().map(|&j| c[j]).collect();
        let mut entering = None;
        for j in 0..ncols {
            if basis.contains(&j) {
                continue;
            }
            let mut r = c[j];
            for i in 0..m {
                if cb[i] != 0.0 {
                    r -= cb[i] * a[i][j];
                }
            }
            if r > EPS {
                entering = Some(j); // Bland: first improving index.
                break;
            }
        }
        let Some(enter) = entering else {
            return SimplexOutcome::Optimal;
        };

        // Ratio test, Bland tie-break on basis index.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if a[i][enter] > EPS {
                let ratio = b[i] / a[i][enter];
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_some_and(|l| basis[i] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return SimplexOutcome::Unbounded;
        };
        pivot(a, b, basis, leave, enter);
    }
    SimplexOutcome::IterationLimit
}

fn pivot(a: &mut [Vec<f64>], b: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let m = a.len();
    let total = a[0].len();
    let p = a[row][col];
    debug_assert!(p.abs() > EPS);
    for j in 0..total {
        a[row][j] /= p;
    }
    b[row] /= p;
    for i in 0..m {
        if i == row {
            continue;
        }
        let f = a[i][col];
        if f.abs() < EPS {
            continue;
        }
        for j in 0..total {
            a[i][j] -= f * a[row][j];
        }
        b[i] -= f * b[row];
        // Clean tiny negatives from roundoff.
        if b[i] < 0.0 && b[i] > -1e-10 {
            b[i] = 0.0;
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut p = LpProblem::new(2);
        p.objective = vec![3.0, 5.0];
        p.add(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
        p.add(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
        p.add(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(approx(s.objective, 36.0, 1e-7));
        assert!(approx(s.x[0], 2.0, 1e-7));
        assert!(approx(s.x[1], 6.0, 1e-7));
    }

    #[test]
    fn ge_constraints_via_two_phase() {
        // max −x − y s.t. x + y ≥ 3, x ≤ 5, y ≤ 5 → obj −3 on the line.
        let mut p = LpProblem::new(2);
        p.objective = vec![-1.0, -1.0];
        p.add(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 3.0);
        p.with_upper_bound(0, 5.0);
        p.with_upper_bound(1, 5.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(approx(s.objective, -3.0, 1e-7));
        assert!(approx(s.x[0] + s.x[1], 3.0, 1e-7));
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 4, x − y = 0 → x=y=2, obj 6.
        let mut p = LpProblem::new(2);
        p.objective = vec![1.0, 2.0];
        p.add(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 4.0);
        p.add(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 0.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(approx(s.x[0], 2.0, 1e-7));
        assert!(approx(s.x[1], 2.0, 1e-7));
        assert!(approx(s.objective, 6.0, 1e-7));
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2.
        let mut p = LpProblem::new(1);
        p.objective = vec![1.0];
        p.add(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        p.add(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = LpProblem::new(1);
        p.objective = vec![1.0];
        p.add(vec![(0, -1.0)], ConstraintOp::Le, 5.0);
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // max x s.t. −x ≤ −2 (i.e. x ≥ 2), x ≤ 10.
        let mut p = LpProblem::new(1);
        p.objective = vec![1.0];
        p.add(vec![(0, -1.0)], ConstraintOp::Le, -2.0);
        p.with_upper_bound(0, 10.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(approx(s.x[0], 10.0, 1e-7));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degenerate LP; Bland must terminate.
        let mut p = LpProblem::new(4);
        p.objective = vec![0.75, -150.0, 0.02, -6.0];
        p.add(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(approx(s.objective, 0.05, 1e-6));
    }

    #[test]
    fn fig5_shape_lp_relaxation_fractional() {
        // Tiny Fig.-5-shaped LP: 2 patterns, 3 groups, k=1, θ=1 — the ILP
        // is infeasible but the LP relaxation has fractional solutions
        // covering all groups with g summing to 1.
        // pattern 0 covers groups {0,1}, pattern 1 covers {1,2}.
        let l = 2;
        let m = 3;
        let mut p = LpProblem::new(l + m);
        p.objective = vec![5.0, 4.0, 0.0, 0.0, 0.0];
        p.add(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1.0); // Σg ≤ k
                                                                // t_i ≤ Σ_{j covers i} g_j
        p.add(vec![(2, 1.0), (0, -1.0)], ConstraintOp::Le, 0.0);
        p.add(vec![(3, 1.0), (0, -1.0), (1, -1.0)], ConstraintOp::Le, 0.0);
        p.add(vec![(4, 1.0), (1, -1.0)], ConstraintOp::Le, 0.0);
        p.add(vec![(2, 1.0), (3, 1.0), (4, 1.0)], ConstraintOp::Ge, 3.0); // θm
        for v in 0..l + m {
            p.with_upper_bound(v, 1.0);
        }
        let s = solve(&p);
        // LP infeasible too: t_0 ≤ g_0, t_2 ≤ g_1, t_0 = t_2 = 1 needs
        // g_0 = g_1 = 1 but Σg ≤ 1.
        assert_eq!(s.status, LpStatus::Infeasible);
    }
}
