//! Group-by/average queries and the resulting aggregate view.
//!
//! The query class of the paper (§4):
//!
//! ```sql
//! SELECT A_gb, AVG(A_avg) FROM D WHERE phi GROUP BY A_gb
//! ```
//!
//! [`GroupByAvgQuery::run`] evaluates the query into an [`AggView`] that
//! keeps, besides the aggregate bars themselves, the row→group assignment
//! needed to test grouping-pattern coverage (Definition 4.4) and to carve
//! out per-group subpopulations for CATE estimation.

use std::collections::HashMap;

use crate::bitset::BitSet;
use crate::column::Column;
use crate::error::TableError;
use crate::pattern::Pattern;
use crate::table::Table;
use crate::Result;

/// A `SELECT A_gb, AVG(A_avg) … GROUP BY A_gb` query.
#[derive(Debug, Clone)]
pub struct GroupByAvgQuery {
    /// Group-by attribute ids (must be categorical).
    pub group_by: Vec<usize>,
    /// The attribute averaged per group (must be numeric).
    pub avg: usize,
    /// Optional WHERE predicate applied before grouping.
    pub where_clause: Option<Pattern>,
}

impl GroupByAvgQuery {
    /// Query with no WHERE clause.
    pub fn new(group_by: Vec<usize>, avg: usize) -> Self {
        GroupByAvgQuery {
            group_by,
            avg,
            where_clause: None,
        }
    }

    /// Attach a WHERE predicate.
    pub fn with_where(mut self, phi: Pattern) -> Self {
        self.where_clause = Some(phi);
        self
    }

    /// Evaluate the query over `table`.
    ///
    /// Groups are numbered in order of first appearance among the
    /// selected rows. The first group-by column numbers its groups through
    /// a table indexed by its dictionary codes; each further column
    /// refines them through one map keyed by (group so far, code), packed
    /// into an integer. Each group's sum adds its rows in row order.
    pub fn run(&self, table: &Table) -> Result<AggView> {
        let mut key_cols: Vec<(&[u32], usize)> = Vec::with_capacity(self.group_by.len());
        for &g in &self.group_by {
            match table.column(g) {
                Column::Cat { codes, dict } => key_cols.push((codes, dict.len())),
                _ => {
                    return Err(TableError::NonCategoricalGroupBy(
                        table.schema().field(g).name.clone(),
                    ))
                }
            }
        }
        let outcome = table.column(self.avg);
        if outcome.codes().is_some() {
            return Err(TableError::TypeMismatch {
                column: table.schema().field(self.avg).name.clone(),
                expected: "numeric AVG attribute",
                got: "cat",
            });
        }
        let selected: Option<Vec<bool>> = match &self.where_clause {
            Some(phi) => Some(phi.eval(table)?),
            None => None,
        };

        // usize::MAX marks rows filtered out by WHERE.
        let mut row_group: Vec<usize> = vec![usize::MAX; table.nrows()];
        let mut keys: Vec<Vec<u32>> = Vec::new();
        // Without a group-by column every selected row is in one group.
        let (first, width, rest) = match key_cols.split_first() {
            Some((&(codes, width), rest)) => (Some(codes), width, rest),
            None => (None, 1, &[][..]),
        };
        let mut slot = vec![usize::MAX; width];
        for (row, group) in row_group.iter_mut().enumerate() {
            if selected.as_ref().is_some_and(|s| !s[row]) {
                continue;
            }
            let code = first.map_or(0, |codes| codes[row]);
            let g = &mut slot[code as usize];
            if *g == usize::MAX {
                *g = keys.len();
                keys.push(first.map(|_| vec![code]).unwrap_or_default());
            }
            *group = *g;
        }
        for &(codes, _) in rest {
            // Row ids, and so group ids, fit 32 bits.
            let mut refined: HashMap<u64, usize> = HashMap::new();
            let mut refined_keys: Vec<Vec<u32>> = Vec::new();
            for (group, &code) in row_group.iter_mut().zip(codes) {
                if *group == usize::MAX {
                    continue;
                }
                let packed = (*group as u64) << 32 | u64::from(code);
                *group = *refined.entry(packed).or_insert_with(|| {
                    let mut key = keys[*group].clone();
                    key.push(code);
                    refined_keys.push(key);
                    refined_keys.len() - 1
                });
            }
            keys = refined_keys;
        }

        let (sums, counts) = match outcome {
            Column::Int(v) => sum_groups(&row_group, keys.len(), |row| v[row] as f64),
            Column::Float(v) => sum_groups(&row_group, keys.len(), |row| v[row]),
            Column::Cat { .. } => unreachable!("checked numeric"),
        };

        let avgs: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| s / c.max(1) as f64)
            .collect();

        Ok(AggView {
            group_by: self.group_by.clone(),
            avg_attr: self.avg,
            keys,
            avgs,
            counts,
            row_group,
        })
    }
}

/// Each of `m` groups' sum of `value` over its rows, in row order, and
/// its row count.
fn sum_groups(
    row_group: &[usize],
    m: usize,
    value: impl Fn(usize) -> f64,
) -> (Vec<f64>, Vec<usize>) {
    let mut sums = vec![0.0; m];
    let mut counts = vec![0; m];
    for (row, &g) in row_group.iter().enumerate() {
        if g != usize::MAX {
            sums[g] += value(row);
            counts[g] += 1;
        }
    }
    (sums, counts)
}

/// The materialized aggregate view `Q(D)`: one bar per group.
#[derive(Debug, Clone)]
pub struct AggView {
    /// Group-by attribute ids.
    pub group_by: Vec<usize>,
    /// Averaged attribute id.
    pub avg_attr: usize,
    /// Group keys as dictionary codes, one vector per group.
    pub keys: Vec<Vec<u32>>,
    /// Per-group averages.
    pub avgs: Vec<f64>,
    /// Per-group tuple counts.
    pub counts: Vec<usize>,
    /// Group index per input row; `usize::MAX` when filtered out by WHERE.
    pub row_group: Vec<usize>,
}

impl AggView {
    /// Number of groups `m = |Q(D)|`.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Display string of group `g`'s key using the table dictionaries.
    pub fn group_label(&self, table: &Table, g: usize) -> String {
        self.group_by
            .iter()
            .zip(&self.keys[g])
            .map(|(&attr, &code)| {
                table
                    .column(attr)
                    .dict()
                    .map(|d| d.value(code).to_string())
                    .unwrap_or_else(|| code.to_string())
            })
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Boolean mask over input rows belonging to group `g`.
    pub fn group_mask(&self, g: usize) -> Vec<bool> {
        self.row_group.iter().map(|&x| x == g).collect()
    }

    /// Rows belonging to group `g` as a bit set — the bitset-native
    /// sibling of [`AggView::group_mask`], used where the consumer (e.g.
    /// treatment mining) wants set algebra instead of a byte-per-row mask.
    pub fn group_bits(&self, g: usize) -> BitSet {
        let mut bits = BitSet::new(self.row_group.len());
        for (row, &x) in self.row_group.iter().enumerate() {
            if x == g {
                bits.insert(row);
            }
        }
        bits
    }

    /// Every group's row bitset, built in a single pass over `row_group` —
    /// `O(n + m)` total where per-group [`AggView::group_bits`] calls would
    /// be `O(n·m)`. Entry `g` equals `self.group_bits(g)`.
    pub fn group_bits_all(&self) -> Vec<BitSet> {
        let n = self.row_group.len();
        let mut out: Vec<BitSet> = (0..self.num_groups()).map(|_| BitSet::new(n)).collect();
        for (row, &g) in self.row_group.iter().enumerate() {
            if g != usize::MAX {
                out[g].insert(row);
            }
        }
        out
    }

    /// Groups covered by a grouping pattern (Definition 4.4): group `s` is
    /// covered iff *every* tuple contributing to `s` satisfies the pattern.
    /// For FD-valid grouping patterns this matches the representative-tuple
    /// test, but implementing the universal check keeps the semantics exact
    /// even for patterns that only "almost" respect the FD.
    ///
    /// This evaluates the pattern over the whole table. Grouping-pattern
    /// mining reads coverage off each Apriori pattern's row set instead;
    /// this function and [`AggView::subpopulation_mask`] are the reference
    /// it is tested against.
    pub fn coverage(&self, table: &Table, pattern: &Pattern) -> Result<BitSet> {
        let sat = pattern.eval(table)?;
        let m = self.num_groups();
        let mut all = vec![true; m];
        let mut seen = vec![false; m];
        for (row, &g) in self.row_group.iter().enumerate() {
            if g == usize::MAX {
                continue;
            }
            seen[g] = true;
            all[g] &= sat[row];
        }
        let mut cov = BitSet::new(m);
        for g in 0..m {
            if seen[g] && all[g] {
                cov.insert(g);
            }
        }
        Ok(cov)
    }

    /// Boolean mask over input rows belonging to any covered group — the
    /// subpopulation `B = b` for CATE conditioning on a grouping pattern.
    pub fn subpopulation_mask(&self, cov: &BitSet) -> Vec<bool> {
        self.row_group
            .iter()
            .map(|&g| g != usize::MAX && cov.contains(g))
            .collect()
    }

    /// Render the view as a two-column text table (label, avg, count).
    pub fn render(&self, table: &Table) -> String {
        let mut out = String::from("group\tavg\tcount\n");
        for g in 0..self.num_groups() {
            out.push_str(&format!(
                "{}\t{:.3}\t{}\n",
                self.group_label(table, g),
                self.avgs[g],
                self.counts[g]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Op, Pred};
    use crate::table::TableBuilder;

    fn toy() -> Table {
        TableBuilder::new()
            .cat("country", &["US", "US", "India", "India", "China", "China"])
            .unwrap()
            .cat("continent", &["NA", "NA", "Asia", "Asia", "Asia", "Asia"])
            .unwrap()
            .int("age", vec![26, 32, 29, 25, 21, 40])
            .unwrap()
            .float("salary", vec![180.0, 80.0, 24.0, 8.0, 20.0, 28.0])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn group_by_avg_basic() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        assert_eq!(view.num_groups(), 3);
        let us = (0..3).find(|&g| view.group_label(&t, g) == "US").unwrap();
        assert!((view.avgs[us] - 130.0).abs() < 1e-9);
        assert_eq!(view.counts[us], 2);
    }

    #[test]
    fn where_clause_prefilters() {
        let t = toy();
        let q = GroupByAvgQuery::new(vec![0], 3).with_where(Pattern::single(Pred::cmp(
            2,
            Op::Lt,
            30i64,
        )));
        let view = q.run(&t).unwrap();
        // The US group now only contains the age-26 row.
        let us = (0..view.num_groups())
            .find(|&g| view.group_label(&t, g) == "US")
            .unwrap();
        assert_eq!(view.counts[us], 1);
        assert!((view.avgs[us] - 180.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_universal_semantics() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        // continent = Asia covers India and China but not US.
        let p = Pattern::single(Pred::eq(1, "Asia"));
        let cov = view.coverage(&t, &p).unwrap();
        assert_eq!(cov.count(), 2);
        let us = (0..3).find(|&g| view.group_label(&t, g) == "US").unwrap();
        assert!(!cov.contains(us));
        // age < 30 does NOT cover India (one tuple is 29, one is 25 → both
        // satisfy) but not China (40 violates).
        let p = Pattern::single(Pred::cmp(2, Op::Lt, 30i64));
        let cov = view.coverage(&t, &p).unwrap();
        let india = (0..3)
            .find(|&g| view.group_label(&t, g) == "India")
            .unwrap();
        let china = (0..3)
            .find(|&g| view.group_label(&t, g) == "China")
            .unwrap();
        assert!(cov.contains(india));
        assert!(!cov.contains(china));
    }

    #[test]
    fn subpopulation_mask_selects_covered_rows() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        let p = Pattern::single(Pred::eq(1, "Asia"));
        let cov = view.coverage(&t, &p).unwrap();
        let mask = view.subpopulation_mask(&cov);
        assert_eq!(mask, vec![false, false, true, true, true, true]);
    }

    #[test]
    fn group_bits_all_matches_per_group() {
        let t = toy();
        let q = GroupByAvgQuery::new(vec![0], 3).with_where(Pattern::single(Pred::cmp(
            2,
            Op::Lt,
            35i64,
        )));
        let view = q.run(&t).unwrap();
        let all = view.group_bits_all();
        assert_eq!(all.len(), view.num_groups());
        for (g, bits) in all.iter().enumerate() {
            assert_eq!(*bits, view.group_bits(g), "group {g}");
        }
        // WHERE-filtered rows belong to no group.
        let total: usize = all.iter().map(|b| b.count()).sum();
        assert_eq!(
            total,
            view.row_group.iter().filter(|&&g| g != usize::MAX).count()
        );
    }

    #[test]
    fn rejects_numeric_group_by() {
        let t = toy();
        let r = GroupByAvgQuery::new(vec![2], 3).run(&t);
        assert!(matches!(r, Err(TableError::NonCategoricalGroupBy(_))));
    }

    #[test]
    fn rejects_categorical_avg() {
        let t = toy();
        let r = GroupByAvgQuery::new(vec![0], 1).run(&t);
        assert!(matches!(r, Err(TableError::TypeMismatch { .. })));
    }

    #[test]
    fn multi_attribute_group_by() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0, 1], 3).run(&t).unwrap();
        assert_eq!(view.num_groups(), 3);
        assert!(view.group_label(&t, 0).split('|').count() == 2);
    }
}
