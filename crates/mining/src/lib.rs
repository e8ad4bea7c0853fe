//! # mining — grouping- and treatment-pattern mining
//!
//! The two candidate-generation stages of the CauSumX algorithm:
//!
//! * [`fn@apriori`] — the classical Apriori frequent-itemset miner over
//!   equality items `(attr = value)`, used in §5.1 because grouping-pattern
//!   coverage is monotone: every mined pattern holds in at least `τ·|D|`
//!   tuples,
//! * [`grouping`] — wraps Apriori with the FD restriction (only attributes
//!   `W` with `A_gb → W` participate) and the §5.1 post-processing that
//!   removes redundant grouping patterns (identical covered-group sets keep
//!   only the shortest pattern),
//! * [`treatment`] — Algorithm 2: greedy top-down lattice traversal that
//!   materializes a treatment pattern only when all of its parents kept a
//!   CATE of the requested sign, with the paper's optimizations
//!   (a) DAG-based attribute pruning, (b) near-zero-CATE pruning and
//!   top-50 % retention, (d) sampled CATE estimation. Optimization (c) —
//!   parallelism across grouping patterns — runs on [`sched`], the shared
//!   work-stealing scheduler over (pattern × level × candidate-chunk)
//!   tasks,
//! * [`sched`] — the work-stealing task scheduler both fan-out dimensions
//!   (across grouping patterns, within lattice levels) share, with the
//!   index-ordered merge primitive that keeps results bit-identical to
//!   the serial path at any worker count. Its [`sched::guard`] submodule
//!   holds the per-query lifeguards (cancellation, deadlines, memory
//!   budgets) and [`sched::faults`] the deterministic fault-injection
//!   layer behind the chaos suite.

#![warn(missing_docs)]

pub mod apriori;
pub mod grouping;
pub mod sched;
pub mod treatment;

pub use apriori::{apriori, FrequentPattern};
pub use grouping::{mine_grouping_patterns, GroupingPattern};
pub use sched::faults::{FaultKind, FaultPlan, FaultSite};
pub use sched::guard::{CancelHandle, QueryProgress, RunGuard};
pub use treatment::{
    BackdoorMemo, LatticeOptions, LatticeStats, MineError, MinerParts, PairedTreatments,
    TreatmentMiner, TreatmentResult,
};
