//! # causumx — Summarized Causal Explanations for Aggregate Views
//!
//! A from-scratch Rust reproduction of **CauSumX** (Youngmann, Cafarella,
//! Gilad & Roy — SIGMOD 2024): given a single-relation database `D`, a
//! causal DAG `G`, a group-by/average SQL query `Q`, a size bound `k` and a
//! coverage threshold `θ`, produce at most `k` *explanation patterns* —
//! pairs `(P_g, P_t)` of a grouping pattern selecting output groups and a
//! treatment pattern with a high-magnitude conditional average treatment
//! effect (CATE) on the averaged attribute — that together cover at least
//! `θ·m` of the `m` output groups and maximize total explainability.
//!
//! ## Quick start
//!
//! The engine is session-oriented, matching the paper's interactive
//! prototype (§4.2): bind a dataset and DAG once, then issue many queries
//! against them. Construction precomputes per-dataset state; each
//! [`PreparedQuery`] caches its view, group bitsets and treatment-atom
//! space, so repeated `run`s and drill-downs do zero redundant work.
//!
//! ```
//! use causumx::{ConfigBuilder, Session};
//! use table::TableBuilder;
//!
//! // A toy table: country → continent is an FD; education drives salary.
//! let table = TableBuilder::new()
//!     .cat("country", &["US", "US", "US", "US", "FR", "FR", "FR", "FR",
//!                       "IN", "IN", "IN", "IN"]).unwrap()
//!     .cat("continent", &["NA", "NA", "NA", "NA", "EU", "EU", "EU", "EU",
//!                         "Asia", "Asia", "Asia", "Asia"]).unwrap()
//!     .cat("education", &["PhD", "BSc", "PhD", "BSc", "PhD", "BSc", "PhD",
//!                         "BSc", "PhD", "BSc", "PhD", "BSc"]).unwrap()
//!     .float("salary", vec![120.0, 80.0, 125.0, 82.0, 90.0, 60.0, 95.0,
//!                           61.0, 40.0, 20.0, 42.0, 21.0]).unwrap()
//!     .build().unwrap();
//! let dag = causal::Dag::new(
//!     &["country", "continent", "education", "salary"],
//!     &[("country", "salary"), ("education", "salary")],
//! ).unwrap();
//!
//! let config = ConfigBuilder::new()
//!     .k(2)
//!     .theta(1.0)
//!     .min_arm(2) // tiny toy data
//!     .build().unwrap();
//! let session = Session::new(table, dag, config);
//!
//! // Name-based query (SQL works too: session.sql("SELECT country, …")).
//! let query = session.query().group_by("country").avg("salary").prepare().unwrap();
//! let summary = query.run();
//! assert!(summary.covered > 0);
//! println!("{}", query.report(&summary).render_text());
//! ```
//!
//! ## Architecture
//!
//! The three steps of Algorithm 1 map to:
//!
//! 1. [`mining::grouping`] — Apriori over FD-closed attributes (§5.1),
//! 2. [`mining::treatment`] — per-grouping-pattern lattice search for the
//!    top positive/negative treatments (§5.2, Algorithm 2), parallelized
//!    across grouping patterns here (optimization c),
//! 3. [`lpsolve::cover`] — Fig. 5 LP relaxation + randomized rounding
//!    (§5.3), with greedy and exact alternatives for the paper's variants.
//!
//! [`Session`] orchestrates them and owns the cross-query caches (FD
//! splits, the miner memo of backdoor sets and atoms);
//! [`render::Report`] is the structured output.
//!
//! ## Lifeguards
//!
//! Every query can run under a [`RunGuard`] through
//! [`PreparedQuery::run_guarded`]: the guard is the one per-run object,
//! holding a wall-clock deadline ([`RunGuard::with_deadline`]), a
//! peak-RSS memory budget ([`RunGuard::with_memory_budget_mb`]), a cancel
//! flag other threads trip through [`CancelHandle`], and, for chaos
//! tests, an armed [`FaultPlan`] ([`RunGuard::with_faults`]). None of it
//! is configuration: a guard only stops a run, never changes its bits. A
//! tripped guard or a panicking mining task fails only that query with
//! [`Error::Run`], whose [`MineError`] carries [`QueryProgress`]; the
//! session, its caches and the worker pool stay healthy and keep serving
//! sibling queries.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod explanation;
pub mod render;
pub mod session;

pub use causal::NumericMode;
pub use config::{CausumxConfig, ConfigBuilder, SelectionMethod};
pub use error::Error;
pub use explanation::{Explanation, StepTimings, Summary};
pub use mining::{
    CancelHandle, FaultKind, FaultPlan, FaultSite, MineError, QueryProgress, RunGuard,
};
pub use render::{
    error_envelope, error_json, ErrorField, Report, ReportExplanation, ReportTreatment,
};
pub use session::{
    select_candidates, AttrSplit, CandidateSet, DiscoveryAlgo, PreparedCacheStats, PreparedQuery,
    QueryBuilder, Session, SessionCounters,
};
