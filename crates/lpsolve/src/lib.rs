//! # lpsolve — linear programming for the summarization step
//!
//! §5.3 of the CauSumX paper models the final explanation-selection step as
//! an ILP (Fig. 5) extending max-k-cover: choose at most `k` explanation
//! patterns maximizing total explainability such that at least `θ·m` output
//! groups are covered. The paper solves the LP relaxation (they use z3) and
//! applies Raghavan–Thompson randomized rounding.
//!
//! This crate provides the full stack, dependency-free:
//!
//! * [`simplex`] — a dense two-phase primal simplex solver with Bland's
//!   rule (exact for the small LPs this pipeline produces),
//! * [`cover`] — the Fig. 5 LP/ILP: the relaxation (solved with groups of
//!   equal covering signature merged into one class variable, which
//!   leaves the optimum unchanged), randomized rounding (Appendix A), the
//!   `Greedy-Last-Step` alternative, and an exact branch-and-bound selector
//!   used by the `Brute-Force` baseline.

#![warn(missing_docs)]

pub mod cover;
pub mod simplex;

pub use cover::{
    exhaustive_best, greedy_cover, randomized_rounding, solve_lp_relaxation, CoverInstance,
    CoverSolution,
};
pub use simplex::{Constraint, ConstraintOp, LpProblem, LpSolution, LpStatus};
