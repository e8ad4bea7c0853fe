//! Error type shared across the table engine.

use std::fmt;

/// Errors raised by table construction, predicate evaluation and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A column index was out of bounds.
    BadColumnIndex(usize),
    /// Columns passed to a builder had inconsistent lengths.
    LengthMismatch {
        /// Expected row count (the first column's length).
        expected: usize,
        /// Offending column's row count.
        got: usize,
        /// Offending column's name.
        column: String,
    },
    /// A predicate/value was applied to a column of an incompatible type.
    TypeMismatch {
        /// Column the operation targeted.
        column: String,
        /// Type the operation required.
        expected: &'static str,
        /// Type the column actually has.
        got: &'static str,
    },
    /// Group-by attributes must be categorical.
    NonCategoricalGroupBy(String),
    /// CSV parse failure with line number.
    Csv {
        /// 1-based source line of the failure.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// SQL parse failure, pointing at the byte offset of the offending
    /// token within the statement.
    Sql {
        /// Byte offset of the offending token in the statement.
        pos: usize,
        /// What went wrong.
        msg: String,
    },
    /// A categorical code did not exist in the column dictionary.
    UnknownCategory {
        /// Column whose dictionary was probed.
        column: String,
        /// The value that was not found.
        value: String,
    },
    /// The operation requires a non-empty table.
    EmptyTable,
    /// A `Float` column held NaN or ±inf. The engine's sums replay one
    /// fold order bit for bit only over finite values, so
    /// [`crate::Table::new`] rejects non-finite data instead of
    /// estimating on it.
    NonFinite {
        /// The offending column's name.
        column: String,
        /// 0-based index of the first non-finite row.
        row: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            TableError::BadColumnIndex(i) => write!(f, "column index {i} out of bounds"),
            TableError::LengthMismatch {
                expected,
                got,
                column,
            } => {
                write!(f, "column `{column}` has {got} rows, expected {expected}")
            }
            TableError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(f, "column `{column}`: expected {expected}, got {got}")
            }
            TableError::NonCategoricalGroupBy(name) => {
                write!(f, "group-by attribute `{name}` must be categorical")
            }
            TableError::Csv { line, msg } => write!(f, "csv parse error at line {line}: {msg}"),
            TableError::Sql { pos, msg } => write!(f, "sql parse error at byte {pos}: {msg}"),
            TableError::UnknownCategory { column, value } => {
                write!(f, "value `{value}` not in dictionary of column `{column}`")
            }
            TableError::EmptyTable => write!(f, "operation requires a non-empty table"),
            TableError::NonFinite { column, row } => {
                write!(
                    f,
                    "column `{column}` holds a non-finite value (NaN or ±inf) at row {row}"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}
