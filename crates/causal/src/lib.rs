//! # causal — Pearl-model causal inference for causumx-rs
//!
//! Implements the §3 background machinery of the CauSumX paper:
//!
//! * [`dag::Dag`] — a causal DAG over named endogenous variables with
//!   ancestor/descendant queries, topological order, and a d-separation
//!   oracle (Bayes-ball reachability),
//! * [`backdoor`] — adjustment-set selection for (possibly compound)
//!   treatments: the parent-adjustment backdoor set
//!   `Z = ⋃ Pa(Tᵢ) \ ({T} ∪ {Y} ∪ Desc(T))`, plus a d-separation-based
//!   validity check,
//! * [`estimate`] — the ATE/CATE estimator (Eq. 1/2/5): restrict to the
//!   subpopulation `B = b` of a grouping pattern, build the binary
//!   treatment from a treatment pattern, adjust for confounders by linear
//!   regression with one-hot encodings, and read the effect plus its
//!   t-test p-value off the treatment coefficient. Supports the §5.2 (d)
//!   fixed-size-sample optimization,
//! * [`context::EstimationContext`] — the subpopulation-scoped estimation
//!   cache: row list, outcome, confounder encoding and the fixed Gram
//!   blocks are built once per (subpopulation, confounder set) and reused
//!   across every candidate treatment, with bit-identical results to the
//!   naive path. A regression estimate splits into a fit (the CATE) and
//!   an on-demand inference (the p-value, [`context::RegressionFit`]),
//! * [`context::SubpopPanel`] — the per-subpopulation confounder panel
//!   one level up: row list, outcome, `Σy`, per-attribute encodings and
//!   pairwise cross-Gram blocks shared across *all* confounder sets of a
//!   subpopulation, so each context build becomes an `O(q²)` assembly,
//! * [`context::SampleMemo`] — a session's §5.2 (d) samples, drawn once
//!   per `(seed, subpopulation size, cap)` and read by every panel of that
//!   size.

#![warn(missing_docs)]

pub mod backdoor;
pub mod context;
pub mod dag;
pub mod estimate;
pub mod ipw;
pub mod logistic;

pub use backdoor::backdoor_set;
pub use context::{
    ConfounderKey, ContextCache, EstimationContext, RegressionFit, SampleMemo, SubpopPanel,
    TreatmentMoments,
};
pub use dag::{Dag, DagError};
pub use estimate::{estimate_cate, CateOptions, CateResult};
pub use ipw::{estimate_att_matching, estimate_cate_ipw};
pub use logistic::{logistic, LogisticFit};
pub use stats::numeric::NumericMode;
