//! The [`Table`] type: an immutable columnar relation instance.

use std::sync::Arc;

use crate::column::{Column, Dict};
use crate::error::TableError;
use crate::schema::{DType, Field, Schema};
use crate::value::Scalar;
use crate::Result;

/// An immutable single-relation database instance `D` over schema `A`.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Construct from a schema and matching columns. Verifies arity and row
    /// counts; use [`TableBuilder`] for incremental construction.
    ///
    /// `Float` columns must be finite: the first NaN or ±inf is rejected
    /// with [`TableError::NonFinite`], naming its column and row. `−0.0`
    /// is stored as `+0.0`, the same number: it is the one finite value
    /// whose sum with a zero can depend on the order of the terms (in the
    /// sign of an exact zero), and the estimation kernels rely on every
    /// order giving the same bits. [`TableBuilder::float`] and
    /// [`crate::csv`] go through here, so they inherit both rules.
    pub fn new(schema: Schema, mut columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::LengthMismatch {
                expected: schema.len(),
                got: columns.len(),
                column: "<schema/columns arity>".into(),
            });
        }
        let nrows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != nrows {
                return Err(TableError::LengthMismatch {
                    expected: nrows,
                    got: c.len(),
                    column: schema.field(i).name.clone(),
                });
            }
            if c.dtype() != schema.field(i).dtype {
                return Err(TableError::TypeMismatch {
                    column: schema.field(i).name.clone(),
                    expected: schema.field(i).dtype.name(),
                    got: c.dtype().name(),
                });
            }
        }
        for (i, c) in columns.iter_mut().enumerate() {
            if let Column::Float(v) = c {
                finite_floats(v).map_err(|row| TableError::NonFinite {
                    column: schema.field(i).name.clone(),
                    row,
                })?;
            }
        }
        Ok(Table {
            schema,
            columns,
            nrows,
        })
    }

    /// Schema of the relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of attributes.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Column by attribute id.
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// Column by attribute name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Attribute id for a name.
    pub fn attr(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name)
    }

    /// Value of attribute `attr` in tuple `row`.
    pub fn value(&self, row: usize, attr: usize) -> Scalar {
        self.columns[attr].get(row)
    }

    /// New table keeping only rows where `keep[i]`.
    pub fn filter(&self, keep: &[bool]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(keep))
            .collect::<Vec<_>>();
        let nrows = columns.first().map_or(0, Column::len);
        Table {
            schema: self.schema.clone(),
            columns,
            nrows,
        }
    }

    /// New table with rows gathered at `idx` (allows duplication /
    /// reordering; used by the sampling CATE estimator).
    pub fn take(&self, idx: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(idx)).collect::<Vec<_>>();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: idx.len(),
        }
    }

    /// New table restricted to the given attributes (in the given order).
    pub fn select(&self, attrs: &[usize]) -> Table {
        let fields = attrs
            .iter()
            .map(|&a| self.schema.field(a).clone())
            .collect();
        let columns = attrs.iter().map(|&a| self.columns[a].clone()).collect();
        Table {
            schema: Schema::new(fields),
            columns,
            nrows: self.nrows,
        }
    }

    /// Render the first `n` rows as an aligned text grid (debug aid).
    pub fn head(&self, n: usize) -> String {
        let n = n.min(self.nrows);
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        out.push_str(&names.join("\t"));
        out.push('\n');
        for r in 0..n {
            let row: Vec<String> = (0..self.ncols())
                .map(|c| self.value(r, c).to_string())
                .collect();
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Check that every value is finite and store `−0.0` as `+0.0`;
/// `Err(row)` names the first NaN or ±inf.
fn finite_floats(values: &mut [f64]) -> std::result::Result<(), usize> {
    for (row, v) in values.iter_mut().enumerate() {
        if !v.is_finite() {
            return Err(row);
        }
        // `−0.0 + 0.0` is `+0.0`; every other finite value is unchanged.
        *v += 0.0;
    }
    Ok(())
}

/// Incremental, column-at-a-time table builder.
#[derive(Debug, Default)]
pub struct TableBuilder {
    fields: Vec<Field>,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        TableBuilder::default()
    }

    fn check_name(&self, name: &str) -> Result<()> {
        if self.fields.iter().any(|f| f.name == name) {
            return Err(TableError::UnknownAttribute(format!(
                "duplicate attribute `{name}`"
            )));
        }
        Ok(())
    }

    /// Add a categorical column from display strings.
    pub fn cat(mut self, name: &str, values: &[&str]) -> Result<Self> {
        self.check_name(name)?;
        let mut dict = Dict::new();
        let codes = values.iter().map(|s| dict.intern(s)).collect();
        self.fields.push(Field::new(name, DType::Cat));
        self.columns.push(Column::Cat {
            codes,
            dict: Arc::new(dict),
        });
        Ok(self)
    }

    /// Add a categorical column from owned strings.
    pub fn cat_owned(mut self, name: &str, values: Vec<String>) -> Result<Self> {
        self.check_name(name)?;
        let mut dict = Dict::new();
        let codes = values.iter().map(|s| dict.intern(s)).collect();
        self.fields.push(Field::new(name, DType::Cat));
        self.columns.push(Column::Cat {
            codes,
            dict: Arc::new(dict),
        });
        Ok(self)
    }

    /// Add an integer column.
    pub fn int(mut self, name: &str, values: Vec<i64>) -> Result<Self> {
        self.check_name(name)?;
        self.fields.push(Field::new(name, DType::Int));
        self.columns.push(Column::Int(values));
        Ok(self)
    }

    /// Add a float column. [`TableBuilder::build`] rejects NaN and ±inf
    /// and stores `−0.0` as `+0.0` (see [`Table::new`]).
    pub fn float(mut self, name: &str, values: Vec<f64>) -> Result<Self> {
        self.check_name(name)?;
        self.fields.push(Field::new(name, DType::Float));
        self.columns.push(Column::Float(values));
        Ok(self)
    }

    /// Finish, validating row counts.
    pub fn build(self) -> Result<Table> {
        Table::new(Schema::new(self.fields), self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Table {
        TableBuilder::new()
            .cat("country", &["US", "US", "India", "China"])
            .unwrap()
            .cat("continent", &["NA", "NA", "Asia", "Asia"])
            .unwrap()
            .int("age", vec![26, 32, 29, 21])
            .unwrap()
            .float("salary", vec![180.0, 83.0, 24.0, 19.0])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_table() {
        let t = toy();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 4);
        assert_eq!(t.value(0, 0), Scalar::Str("US".into()));
        assert_eq!(t.value(3, 3), Scalar::Float(19.0));
    }

    #[test]
    fn builder_rejects_ragged_columns() {
        let r = TableBuilder::new()
            .cat("a", &["x", "y"])
            .unwrap()
            .int("b", vec![1])
            .unwrap()
            .build();
        assert!(matches!(r, Err(TableError::LengthMismatch { .. })));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let r = TableBuilder::new()
            .cat("a", &["x"])
            .unwrap()
            .int("a", vec![1]);
        assert!(r.is_err());
    }

    #[test]
    fn filter_take_select() {
        let t = toy();
        let f = t.filter(&[true, false, false, true]);
        assert_eq!(f.nrows(), 2);
        assert_eq!(f.value(1, 0), Scalar::Str("China".into()));

        let tk = t.take(&[2, 2]);
        assert_eq!(tk.nrows(), 2);
        assert_eq!(tk.value(0, 0), tk.value(1, 0));

        let sel = t.select(&[3, 0]);
        assert_eq!(sel.ncols(), 2);
        assert_eq!(sel.schema().field(0).name, "salary");
    }

    #[test]
    fn builder_rejects_non_finite_floats() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = TableBuilder::new()
                .int("a", vec![1, 2, 3])
                .unwrap()
                .float("x", vec![1.0, bad, bad])
                .unwrap()
                .build();
            assert_eq!(
                r.unwrap_err(),
                TableError::NonFinite {
                    column: "x".into(),
                    row: 1
                },
                "{bad}"
            );
        }
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let expected = [0.0f64.to_bits(), 0.0f64.to_bits(), (-1.5f64).to_bits()];
        let bits =
            |t: &Table| -> Vec<u64> { (0..3).map(|r| t.column(0).get_f64(r).to_bits()).collect() };
        let built = TableBuilder::new()
            .float("x", vec![-0.0, 0.0, -1.5])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(bits(&built), expected);
        let schema = Schema::new(vec![Field::new("x", DType::Float)]);
        let direct = Table::new(schema, vec![Column::Float(vec![-0.0, 0.0, -1.5])]).unwrap();
        assert_eq!(bits(&direct), expected);
        // `Table::new` rejects non-finite values in directly built
        // columns too.
        let schema = Schema::new(vec![Field::new("x", DType::Float)]);
        let r = Table::new(schema, vec![Column::Float(vec![0.5, f64::NAN])]);
        assert!(matches!(r, Err(TableError::NonFinite { row: 1, .. })));
    }

    #[test]
    fn head_renders() {
        let t = toy();
        let h = t.head(2);
        assert!(h.contains("country") && h.contains("180"));
    }
}
