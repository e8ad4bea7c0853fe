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
//!   tasks; it is the walk's only driver, and one worker runs the same
//!   tasks inline. What depends only on the table and the DAG — the
//!   column ↔ DAG-node maps, each outcome's ancestors, the backdoor sets
//!   and the atoms — lives in one [`MinerMemo`] that a session builds
//!   once and shares with every miner,
//! * [`sched`] — the work-stealing task scheduler both fan-out dimensions
//!   (across grouping patterns, within lattice levels) share: one task
//!   loop at every worker count, with the index-ordered merge primitive
//!   that keeps results bit-identical at every worker count. Its
//!   [`sched::guard`] submodule holds [`RunGuard`], the one per-run
//!   object (cancellation, deadline, memory budget, armed fault plan,
//!   progress counters), and [`MineError`], the one type a stopped run
//!   fails with (its code and user-facing message included);
//!   [`sched::faults`] names the deterministic faults the chaos suite
//!   arms on the guard.

#![warn(missing_docs)]

pub mod apriori;
pub mod grouping;
pub mod sched;
pub mod treatment;

pub use apriori::{apriori, FrequentPattern};
pub use grouping::{mine_grouping_patterns, GroupingPattern};
pub use sched::faults::{FaultKind, FaultPlan, FaultSite};
pub use sched::guard::{CancelHandle, MineError, QueryProgress, RunGuard};
pub use treatment::{
    LatticeOptions, LatticeStats, MinerMemo, PairedTreatments, TreatmentMiner, TreatmentResult,
};
