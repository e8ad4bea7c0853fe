//! # stats — numerical substrate for causumx-rs
//!
//! Everything numeric that the causal-inference and discovery layers need,
//! implemented from scratch (no BLAS/LAPACK, no SciPy):
//!
//! * [`matrix::Matrix`] — small dense row-major matrices with Gram
//!   products and SPD solves (Cholesky with ridge fallback),
//! * [`fn@ols`] — ordinary least squares with coefficient standard errors and
//!   two-sided t-test p-values; this is the paper's CATE estimator
//!   (DoWhy's `backdoor.linear_regression`) re-implemented,
//! * [`dist`] — Normal and Student-t tails via `erfc` and the regularized
//!   incomplete beta function,
//! * [`corr`] — Pearson and partial correlation, and the Fisher-z
//!   conditional independence test used by the PC/FCI discovery
//!   algorithms,
//! * [`rank`] — Kendall's τ rank correlation (§6.6 sample-size experiment),
//! * [`numeric`] — versioned reduction kernels: [`NumericMode::Exact`]
//!   bit-replay vs [`NumericMode::FastV1`] 8-lane strided partial sums.

#![warn(missing_docs)]

pub mod corr;
pub mod dist;
pub mod matrix;
pub mod numeric;
pub mod ols;
pub mod rank;

pub use corr::{fisher_z_test, partial_correlation, pearson};
pub use dist::student_t_sf;
pub use matrix::Matrix;
pub use numeric::NumericMode;
pub use ols::{ols, BorderedBlocks, GramFit, OlsFit};
pub use rank::kendall_tau;
