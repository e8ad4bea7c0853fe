//! The unified error type of the engine.
//!
//! Every fallible entry point of the crate — configuration building,
//! query preparation (by name, index or SQL), and the guarded runs —
//! reports a single [`Error`]. Table-layer failures are wrapped
//! verbatim, except SQL parse failures, which are promoted to the
//! dedicated [`Error::Sql`] variant carrying the byte position of the
//! offending token (the table crate's [`TableError::Sql`] is an encoding
//! detail callers should not need to know about).

use std::fmt;

use mining::MineError;
use table::TableError;

/// Engine error: configuration, query-shape, SQL or table-layer failure,
/// or a stopped run ([`Error::Run`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Table-layer failure (unknown attribute, type mismatch, …).
    Table(TableError),
    /// SQL parse failure at byte `pos` of the source statement.
    Sql {
        /// Byte offset of the offending token within the statement.
        pos: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// A configuration value rejected by [`crate::config::ConfigBuilder`].
    Config {
        /// The offending parameter (`"k"`, `"theta"`, …).
        param: &'static str,
        /// Why the value was rejected.
        msg: String,
    },
    /// A query misses a required clause (no group-by attribute, no AVG
    /// attribute) or is otherwise malformed before reaching the table
    /// layer.
    InvalidQuery(String),
    /// The aggregate view has no groups (empty input after WHERE).
    EmptyView,
    /// A guarded run stopped: its guard tripped (cancellation, deadline,
    /// memory budget) or a mining task panicked. The session, its caches
    /// and the worker pool stay healthy either way.
    Run(MineError),
}

impl Error {
    /// Stable machine-readable code for this error variant — the value
    /// carried in the `code` field of [`crate::render::error_json`] and
    /// used by the serve layer's HTTP status mapping. Clients should
    /// branch on this, never on display strings.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Table(_) => "table",
            Error::Sql { .. } => "sql",
            Error::Config { .. } => "config",
            Error::InvalidQuery(_) => "invalid_query",
            Error::EmptyView => "empty_view",
            Error::Run(e) => e.code(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Table(e) => write!(f, "query error: {e}"),
            Error::Sql { pos, msg } => write!(f, "sql error at byte {pos}: {msg}"),
            Error::Config { param, msg } => write!(f, "invalid config `{param}`: {msg}"),
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::EmptyView => write!(f, "aggregate view is empty"),
            Error::Run(e) => e.fmt(f),
        }
    }
}

impl From<MineError> for Error {
    fn from(e: MineError) -> Self {
        Error::Run(e)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for Error {
    fn from(e: TableError) -> Self {
        match e {
            TableError::Sql { pos, msg } => Error::Sql { pos, msg },
            other => Error::Table(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_table_errors_promote_to_sql_variant() {
        let e: Error = TableError::Sql {
            pos: 7,
            msg: "unknown attribute `wages`".into(),
        }
        .into();
        assert_eq!(
            e,
            Error::Sql {
                pos: 7,
                msg: "unknown attribute `wages`".into()
            }
        );
        assert!(e.to_string().contains("byte 7"));
    }

    #[test]
    fn other_table_errors_wrap() {
        let e: Error = TableError::UnknownAttribute("x".into()).into();
        assert!(matches!(e, Error::Table(TableError::UnknownAttribute(_))));
        assert!(e.to_string().contains("unknown attribute"));
    }

    /// A run failure wraps as it is: `Error::Run` keeps the `MineError`,
    /// its code, and its message in the units limits are set in (the
    /// guard converts bytes to MiB when it trips; see
    /// `sched::guard::tests::memory_trip_rounds_observed_growth_up`).
    #[test]
    fn mine_errors_convert_with_units() {
        let progress = mining::QueryProgress {
            levels_completed: 2,
            cate_evaluations: 523,
        };
        let deadline = MineError::DeadlineExceeded {
            after_ms: 1500,
            progress,
        };
        let e: Error = deadline.clone().into();
        assert_eq!(e, Error::Run(deadline));
        assert_eq!(e.code(), "deadline_exceeded");
        assert!(e.to_string().contains("deadline of 1500 ms"), "{e}");
        assert!(e.to_string().contains("523 CATE evaluations"), "{e}");

        let m: Error = MineError::MemoryBudget {
            budget_mb: 64,
            observed_mb: 66,
            progress,
        }
        .into();
        assert_eq!(m.code(), "memory_budget");
        assert!(
            m.to_string()
                .contains("memory budget of 64 MiB exceeded (66 MiB observed)"),
            "{m}"
        );

        let w: Error = MineError::Worker {
            task: "pattern 2 level 3 chunk 1".into(),
            payload: "boom".into(),
        }
        .into();
        assert_eq!(w.code(), "worker_panic");
        assert!(w.to_string().contains("pattern 2 level 3 chunk 1"));

        let c: Error = MineError::Cancelled { progress }.into();
        assert_eq!(c.code(), "cancelled");
        assert!(c.to_string().contains("cancelled"));
    }

    #[test]
    fn display_covers_variants() {
        let c = Error::Config {
            param: "theta",
            msg: "must lie in [0, 1], got 1.5".into(),
        };
        assert!(c.to_string().contains("theta"));
        assert!(Error::EmptyView.to_string().contains("empty"));
        assert!(Error::InvalidQuery("no group-by".into())
            .to_string()
            .contains("no group-by"));
    }
}
