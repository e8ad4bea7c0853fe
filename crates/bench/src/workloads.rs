//! The dataset × query-shape workload matrix.
//!
//! One definition of "scenario diversity" for the differential test tier
//! (`tests/workload_matrix.rs`), which pins every cell's work counters
//! and total weight as constants and checks the numeric contracts cell by
//! cell.
//!
//! The matrix spans:
//!
//! * **five datasets** — one per [`datagen`] generator family with a
//!   distinct shape: `so` (wide categorical + FD hierarchy), `adult`
//!   (mid-cardinality categoricals), `german` (small n, many attributes),
//!   `accidents` (high-cardinality group-by, ~40 cities), `synthetic`
//!   (known ground-truth SCM);
//! * **three query shapes** — the dataset's representative single
//!   group-by, a WHERE-filtered variant of it, and a multi-attribute
//!   group-by;
//! * and, at the test layer, **numeric modes** {Exact, FastV1} ×
//!   **threads** {1, 4}.
//!
//! Row counts are deliberately small (1–2.5 k): counters are
//! size-dependent but deterministic, and the same cells must be cheap
//! enough to re-run in debug builds inside `cargo test`.

use causumx::NumericMode;
use datagen::synthetic::SynthParams;
use datagen::Dataset;
use table::query::GroupByAvgQuery;
use table::Table;

/// The query shape axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// The dataset's representative single-attribute group-by query.
    Single,
    /// The representative query restricted by a dataset-specific
    /// conjunctive WHERE clause (keeps a strict majority of rows).
    Filtered,
    /// A two-attribute group-by over the dataset's grouping columns.
    Multi,
}

impl QueryShape {
    /// Every shape, in matrix order.
    pub const ALL: [QueryShape; 3] = [QueryShape::Single, QueryShape::Filtered, QueryShape::Multi];

    /// Stable lowercase label used in cell identifiers and test names.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryShape::Single => "single",
            QueryShape::Filtered => "filtered",
            QueryShape::Multi => "multi",
        }
    }
}

/// One dataset row of the matrix: which generator, at what size, and how
/// the filtered/multi query shapes are spelled against its schema.
#[derive(Debug, Clone, Copy)]
pub struct MatrixDataset {
    /// Generator name (`so`, `accidents`, `adult`, `german`, `synthetic`).
    pub name: &'static str,
    /// Row count used for matrix cells (small enough for debug-build
    /// tests, large enough for non-degenerate subpopulations).
    pub n: usize,
    /// WHERE clause of the [`QueryShape::Filtered`] cell, in the SQL
    /// dialect of [`table::sql::parse_where`].
    pub filter_sql: &'static str,
    /// Group-by attribute names of the [`QueryShape::Multi`] cell.
    pub multi_group_by: [&'static str; 2],
}

/// The five dataset rows of the committed matrix, in matrix order.
pub const MATRIX_DATASETS: [MatrixDataset; 5] = [
    MatrixDataset {
        name: "so",
        n: 2_000,
        filter_sql: "Age < 45",
        multi_group_by: ["Country", "Gender"],
    },
    MatrixDataset {
        name: "accidents",
        n: 2_000,
        filter_sql: "Month <= 9",
        multi_group_by: ["City", "DayNight"],
    },
    MatrixDataset {
        name: "adult",
        n: 2_000,
        filter_sql: "Age < 50",
        multi_group_by: ["Occupation", "Sex"],
    },
    MatrixDataset {
        name: "german",
        n: 1_000,
        filter_sql: "Age < 50",
        multi_group_by: ["Purpose", "Housing"],
    },
    MatrixDataset {
        name: "synthetic",
        n: 2_000,
        filter_sql: "T1 <= 4",
        multi_group_by: ["G1", "G2"],
    },
];

/// Tuples per `G` value used for the synthetic matrix dataset: 40 keeps
/// the representative query at `n / 40 = 50` groups — comparable to the
/// other datasets' group counts instead of the default 4-per-group spray
/// of hundreds of tiny groups.
pub const SYNTHETIC_TUPLES_PER_GROUP: usize = 40;

/// Generate the dataset of a matrix row at its configured size.
pub fn generate(spec: &MatrixDataset, seed: u64) -> Dataset {
    match spec.name {
        "so" => datagen::so::generate(spec.n, seed),
        "accidents" => datagen::accidents::generate(spec.n, seed),
        "adult" => datagen::adult::generate(spec.n, seed),
        "german" => datagen::german::generate(spec.n, seed),
        "synthetic" => datagen::synthetic::generate(
            SynthParams {
                n: spec.n,
                tuples_per_group: SYNTHETIC_TUPLES_PER_GROUP,
                ..Default::default()
            },
            seed,
        ),
        other => panic!("unknown matrix dataset {other}"),
    }
}

/// Build the query of one (dataset, shape) combination against the
/// generated table. Panics on a spec/schema mismatch — every cell is
/// pinned, so a rename in a generator must fail loudly here rather than
/// silently drop a cell.
pub fn shaped_query(ds: &Dataset, spec: &MatrixDataset, shape: QueryShape) -> GroupByAvgQuery {
    let table = &ds.table;
    match shape {
        QueryShape::Single => ds.query(),
        QueryShape::Filtered => {
            let phi = table::sql::parse_where(table, spec.filter_sql)
                .unwrap_or_else(|e| panic!("bad filter for {}: {e}", spec.name));
            ds.query().with_where(phi)
        }
        QueryShape::Multi => {
            let group_by: Vec<usize> = spec
                .multi_group_by
                .iter()
                .map(|name| {
                    table
                        .attr(name)
                        .unwrap_or_else(|e| panic!("bad multi attr for {}: {e}", spec.name))
                })
                .collect();
            GroupByAvgQuery::new(group_by, ds.outcome)
        }
    }
}

/// A fully specified matrix cell: (dataset, shape, numeric mode). The
/// thread axis lives *inside* a cell: every worker count must agree bit
/// for bit, so a cell has one set of counters.
#[derive(Debug, Clone, Copy)]
pub struct MatrixCell {
    /// Dataset row of this cell.
    pub dataset: MatrixDataset,
    /// Query shape of this cell.
    pub shape: QueryShape,
    /// Numeric mode the cell runs under.
    pub mode: NumericMode,
}

impl MatrixCell {
    /// Stable cell identifier used in the pin table and test diagnostics, e.g.
    /// `so/filtered/fast_v1`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}",
            self.dataset.name,
            self.shape.as_str(),
            self.mode.as_str()
        )
    }
}

/// Enumerate every committed matrix cell in matrix order: datasets
/// outermost, then shapes, then modes — 5 × 3 × 2 = 30 cells.
pub fn matrix_cells() -> Vec<MatrixCell> {
    let mut out = Vec::new();
    for dataset in MATRIX_DATASETS {
        for shape in QueryShape::ALL {
            for mode in [NumericMode::Exact, NumericMode::FastV1] {
                out.push(MatrixCell {
                    dataset,
                    shape,
                    mode,
                });
            }
        }
    }
    out
}

/// Subsample helper shared by discovery-driven workloads: the
/// deterministic first-`rows` prefix of a table (discovery algorithms are
/// super-linear in rows; the prefix keeps them cheap without an RNG
/// stream that could drift between harness and tests).
pub fn row_prefix(table: &Table, rows: usize) -> Table {
    let keep: Vec<usize> = (0..table.nrows().min(rows)).collect();
    table.take(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_thirty_cells_in_stable_order() {
        let cells = matrix_cells();
        assert_eq!(cells.len(), 30);
        assert_eq!(cells[0].id(), "so/single/exact");
        assert_eq!(cells[1].id(), "so/single/fast_v1");
        assert_eq!(cells[29].id(), "synthetic/multi/fast_v1");
        // Dataset names are unique — a duplicate row would double-count
        // cells under one fingerprint key.
        let mut names: Vec<_> = MATRIX_DATASETS.iter().map(|d| d.name).collect();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn every_shape_builds_against_its_generator() {
        for spec in MATRIX_DATASETS {
            let ds = generate(&spec, 7);
            assert_eq!(ds.table.nrows(), spec.n, "{}", spec.name);
            for shape in QueryShape::ALL {
                let q = shaped_query(&ds, &spec, shape);
                let view = q.run(&ds.table).expect(spec.name);
                assert!(view.num_groups() > 0, "{}/{}", spec.name, shape.as_str());
                if shape == QueryShape::Multi {
                    assert_eq!(q.group_by.len(), 2);
                }
            }
            // The filter must keep a strict majority of rows (a cell that
            // filters almost everything out measures noise, not the
            // engine).
            let phi = table::sql::parse_where(&ds.table, spec.filter_sql).unwrap();
            let kept = phi.eval(&ds.table).unwrap().iter().filter(|&&b| b).count();
            assert!(
                kept * 2 > ds.table.nrows(),
                "{} filter keeps {kept}/{}",
                spec.name,
                ds.table.nrows()
            );
        }
    }
}
