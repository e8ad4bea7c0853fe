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

use mining::treatment::MineError;
use mining::QueryProgress;
use table::TableError;

/// Engine error: configuration, query-shape, SQL, table-layer or
/// runtime (lifeguard) failure.
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
    /// The query was cancelled through its
    /// [`mining::CancelHandle`] (cooperative — noticed at the next
    /// chunk boundary or level merge).
    Cancelled {
        /// How far the walk got before it was stopped.
        progress: QueryProgress,
    },
    /// The query's wall-clock deadline elapsed mid-run.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        after_ms: u64,
        /// How far the walk got before it was stopped.
        progress: QueryProgress,
    },
    /// The query's peak-RSS growth exceeded its memory budget. The
    /// query aborts; the session, its caches and the worker pool stay
    /// healthy.
    MemoryBudget {
        /// Allowed growth in mebibytes.
        budget_mb: u64,
        /// Observed growth in mebibytes when the check fired.
        observed_mb: u64,
        /// How far the walk got before it was stopped.
        progress: QueryProgress,
    },
    /// A mining task panicked. The panic was caught and attributed to
    /// its task; sibling patterns and queries were unaffected.
    Worker {
        /// Which task failed, e.g. `"pattern 2 level 3 chunk 1"`.
        task: String,
        /// Stringified panic payload.
        payload: String,
    },
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
            Error::Cancelled { .. } => "cancelled",
            Error::DeadlineExceeded { .. } => "deadline_exceeded",
            Error::MemoryBudget { .. } => "memory_budget",
            Error::Worker { .. } => "worker_panic",
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
            Error::Cancelled { progress } => write!(
                f,
                "query cancelled after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            Error::DeadlineExceeded { after_ms, progress } => write!(
                f,
                "deadline of {after_ms} ms exceeded after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            Error::MemoryBudget {
                budget_mb,
                observed_mb,
                progress,
            } => write!(
                f,
                "memory budget of {budget_mb} MiB exceeded ({observed_mb} MiB observed) after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            Error::Worker { task, payload } => {
                write!(f, "worker task '{task}' panicked: {payload}")
            }
        }
    }
}

impl From<MineError> for Error {
    fn from(e: MineError) -> Self {
        match e {
            MineError::Cancelled { progress } => Error::Cancelled { progress },
            MineError::DeadlineExceeded { after, progress } => Error::DeadlineExceeded {
                after_ms: after.as_millis() as u64,
                progress,
            },
            MineError::MemoryBudget {
                budget_bytes,
                observed_bytes,
                progress,
            } => Error::MemoryBudget {
                budget_mb: budget_bytes / (1024 * 1024),
                // Round up so an overshoot never displays as 0 MiB.
                observed_mb: observed_bytes.div_ceil(1024 * 1024),
                progress,
            },
            MineError::Worker { task, payload } => Error::Worker { task, payload },
        }
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

    #[test]
    fn mine_errors_convert_with_units() {
        let progress = QueryProgress {
            levels_completed: 2,
            cate_evaluations: 523,
        };
        let e: Error = MineError::DeadlineExceeded {
            after: std::time::Duration::from_millis(1500),
            progress,
        }
        .into();
        assert_eq!(
            e,
            Error::DeadlineExceeded {
                after_ms: 1500,
                progress
            }
        );
        assert!(e.to_string().contains("523 CATE evaluations"));

        let m: Error = MineError::MemoryBudget {
            budget_bytes: 64 << 20,
            observed_bytes: (65 << 20) + 1,
            progress,
        }
        .into();
        assert_eq!(
            m,
            Error::MemoryBudget {
                budget_mb: 64,
                observed_mb: 66,
                progress
            }
        );

        let w: Error = MineError::Worker {
            task: "pattern 2 level 3 chunk 1".into(),
            payload: "boom".into(),
        }
        .into();
        assert!(w.to_string().contains("pattern 2 level 3 chunk 1"));

        let c: Error = MineError::Cancelled { progress }.into();
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
