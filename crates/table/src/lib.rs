//! # table — columnar single-relation engine
//!
//! The storage and query substrate of `causumx-rs`. The CauSumX paper
//! (SIGMOD 2024) operates on a *single-relation database* `D` over a schema
//! `A = (A_1 … A_s)` whose attributes are categorical or continuous, and on
//! SQL queries of the shape
//!
//! ```sql
//! SELECT A_gb, AVG(A_avg) FROM D WHERE phi GROUP BY A_gb
//! ```
//!
//! This crate provides exactly that machinery, built from scratch:
//!
//! * [`Table`] — an immutable, columnar table with interned categorical
//!   columns ([`column::Column::Cat`]) and numeric columns (`Int`/`Float`),
//! * [`pattern::Pattern`] — conjunctions of simple predicates
//!   `A op a` with `op ∈ {=, <, >, ≤, ≥}` (Definition 4.1 of the paper),
//!   evaluated vectorized into boolean selection masks,
//! * [`query::GroupByAvgQuery`] / [`query::AggView`] — evaluation of the
//!   group-by/average query class and the resulting aggregate view,
//! * [`fd`] — functional-dependency checks `A_gb → W` used to split the
//!   schema into grouping-pattern and treatment-pattern attributes (§4.1),
//! * [`bitset::BitSet`] — compact row/group sets used by the miners,
//! * [`csv`] — minimal CSV parser and serializer for examples and debugging.
//!
//! The engine deliberately has no nulls: every experiment in the paper runs
//! on fully-populated (or imputed) data, and the generators in `datagen`
//! always emit complete tuples.

#![warn(missing_docs)]

pub mod bitset;
pub mod column;
pub mod csv;
pub mod error;
pub mod fd;
pub mod pattern;
pub mod query;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use bitset::{BitSet, Projector};
pub use column::Column;
pub use error::TableError;
pub use pattern::{Op, Pattern, Pred};
pub use query::{AggView, GroupByAvgQuery};
pub use schema::{DType, Field, Schema};
pub use sql::parse_query;
pub use table::{Table, TableBuilder};
pub use value::Scalar;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
