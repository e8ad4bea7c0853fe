//! Minimal CSV parser and serializer over in-memory text.
//!
//! Supports the subset of RFC 4180 needed for the examples: header row,
//! comma separation, double-quote quoting with `""` escapes. Column types
//! are inferred (int → float → categorical fallback) unless a schema is
//! supplied.

use std::sync::Arc;

use crate::column::{Column, Dict};
use crate::error::TableError;
use crate::schema::{DType, Field, Schema};
use crate::table::Table;
use crate::Result;

/// Parse CSV text into a table with inferred column types.
pub fn parse_csv(text: &str) -> Result<Table> {
    let mut rows = split_records(text)?;
    if rows.is_empty() {
        return Err(TableError::EmptyTable);
    }
    let header = rows.remove(0);
    let ncols = header.len();
    for (i, r) in rows.iter().enumerate() {
        if r.len() != ncols {
            return Err(TableError::Csv {
                line: i + 2,
                msg: format!("expected {ncols} fields, got {}", r.len()),
            });
        }
    }

    let mut fields = Vec::with_capacity(ncols);
    let mut columns = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let cells: Vec<&str> = rows.iter().map(|r| r[c].as_str()).collect();
        let dtype = infer_type(&cells);
        fields.push(Field::new(header[c].clone(), dtype));
        columns.push(build_column(dtype, &cells));
    }
    Table::new(Schema::new(fields), columns)
}

/// Serialize a table to CSV text.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| quote(&f.name))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..table.nrows() {
        let row: Vec<String> = (0..table.ncols())
            .map(|c| quote(&table.value(r, c).to_string()))
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn infer_type(cells: &[&str]) -> DType {
    if cells.iter().all(|c| c.parse::<i64>().is_ok()) {
        DType::Int
    } else if cells.iter().all(|c| c.parse::<f64>().is_ok()) {
        DType::Float
    } else {
        DType::Cat
    }
}

/// Build a column of `dtype` from raw cells. `dtype` comes from
/// [`infer_type`] over the same cells, so every parse below is known to
/// succeed.
fn build_column(dtype: DType, cells: &[&str]) -> Column {
    match dtype {
        DType::Int => Column::Int(
            cells
                .iter()
                .map(|c| c.parse().expect("infer_type verified every cell parses"))
                .collect(),
        ),
        DType::Float => Column::Float(
            cells
                .iter()
                .map(|c| c.parse().expect("infer_type verified every cell parses"))
                .collect(),
        ),
        DType::Cat => {
            let mut dict = Dict::new();
            let codes = cells.iter().map(|c| dict.intern(c)).collect();
            Column::Cat {
                codes,
                dict: Arc::new(dict),
            }
        }
    }
}

/// Split text into records, honoring quoted fields.
fn split_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut line = 1usize;

    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                c => field.push(c),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv {
            line,
            msg: "unterminated quote".into(),
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_infers_types() {
        let t = parse_csv("country,age,salary\nUS,26,180.5\nIndia,29,24\n").unwrap();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.schema().field(0).dtype, DType::Cat);
        assert_eq!(t.schema().field(1).dtype, DType::Int);
        assert_eq!(t.schema().field(2).dtype, DType::Float);
    }

    #[test]
    fn quoted_fields_with_commas() {
        let t = parse_csv("name,x\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(t.value(0, 0).to_string(), "a,b");
        assert_eq!(t.value(1, 0).to_string(), "say \"hi\"");
    }

    #[test]
    fn round_trip() {
        let src = "c,n\nalpha,1\nbe\u{e9}ta,2\n";
        let t = parse_csv(src).unwrap();
        let csv = to_csv(&t);
        let t2 = parse_csv(&csv).unwrap();
        assert_eq!(t2.nrows(), 2);
        assert_eq!(t2.value(1, 0).to_string(), "be\u{e9}ta");
    }

    #[test]
    fn ragged_rows_error() {
        assert!(matches!(parse_csv("a,b\n1\n"), Err(TableError::Csv { .. })));
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(parse_csv("a\n\"oops\n").is_err());
    }

    /// Non-finite cells parse as `f64`, so the column is inferred `Float`
    /// and `Table::new` rejects it, naming the first bad data row.
    #[test]
    fn non_finite_cells_are_rejected() {
        for (cell, row) in [("NaN", 1), ("inf", 0), ("-inf", 2)] {
            let text = match row {
                0 => format!("x,y\n{cell},a\n2.5,b\n3,c\n"),
                1 => format!("x,y\n1.5,a\n{cell},b\n3,c\n"),
                _ => format!("x,y\n1.5,a\n2,b\n{cell},c\n"),
            };
            assert_eq!(
                parse_csv(&text).unwrap_err(),
                TableError::NonFinite {
                    column: "x".into(),
                    row
                },
                "{cell}"
            );
        }
    }

    #[test]
    fn negative_zero_cell_is_stored_as_positive_zero() {
        let t = parse_csv("x\n-0.0\n1.5\n").unwrap();
        assert_eq!(t.schema().field(0).dtype, DType::Float);
        assert_eq!(t.column(0).get_f64(0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(parse_csv(""), Err(TableError::EmptyTable)));
    }
}
