//! Grouping-pattern mining (§5.1).
//!
//! Runs Apriori over the FD-closed attribute set, maps each frequent
//! pattern to the set of output groups it covers (Definition 4.4) by
//! counting its Apriori row set per group, and applies the paper's
//! post-processing: two grouping patterns covering the *same* group set
//! are redundant — even absent FDs between their attributes — so each
//! distinct covered set keeps only the shortest (then lexicographically
//! smallest) pattern, pre-satisfying the incomparability constraint of
//! Definition 4.5.

use std::collections::HashMap;

use table::bitset::BitSet;
use table::pattern::Pattern;
use table::query::AggView;
use table::Table;

use crate::apriori::{apriori, FrequentPattern};

/// A candidate grouping pattern with its covered groups and matching rows.
#[derive(Debug, Clone)]
pub struct GroupingPattern {
    /// The predicate over FD-closed attributes.
    pub pattern: Pattern,
    /// Groups of `Q(D)` covered (Definition 4.4).
    pub coverage: BitSet,
    /// Input rows belonging to covered groups — the CATE subpopulation.
    pub rows: BitSet,
}

/// Apriori's support threshold `τ·|D|` as a row count, at least 1.
pub fn min_support(tau: f64, nrows: usize) -> usize {
    ((tau * nrows as f64).ceil() as usize).max(1)
}

/// Mine candidate grouping patterns: [`apriori`] over `gp_attrs`, then
/// [`patterns_from_itemsets`].
///
/// * `gp_attrs` — attributes with `A_gb → W` (from [`table::fd::fd_closure`]),
/// * `tau` — Apriori support threshold as a fraction of `|D|` (paper
///   default 0.1),
/// * `max_len` — maximum conjuncts per pattern.
///
/// When `gp_attrs` is empty (no FDs hold — e.g. the German dataset), each
/// output group becomes its own singleton grouping pattern over the
/// group-by attributes themselves, as the paper does ("each group in the
/// aggregated view necessitates a distinct explanation").
pub fn mine_grouping_patterns(
    table: &Table,
    view: &AggView,
    gp_attrs: &[usize],
    tau: f64,
    max_len: usize,
) -> Vec<GroupingPattern> {
    if gp_attrs.is_empty() {
        return patterns_from_itemsets(table, view, None);
    }
    let frequent = apriori(table, gp_attrs, min_support(tau, table.nrows()), max_len);
    patterns_from_itemsets(table, view, Some(&frequent))
}

/// The second step of [`mine_grouping_patterns`]: the grouping patterns
/// of `view` from Apriori's frequent itemsets over the grouping
/// attributes, or from the per-group fallback when `frequent` is `None`
/// (no grouping attribute). Each itemset's coverage is read off its row
/// set, and only the itemsets that cover a group are copied, so one list
/// of itemsets can serve many views.
pub fn patterns_from_itemsets(
    table: &Table,
    view: &AggView,
    frequent: Option<&[FrequentPattern]>,
) -> Vec<GroupingPattern> {
    let mut candidates: Vec<GroupingPattern> = Vec::new();

    if let Some(frequent) = frequent {
        let mut cover = CoverageCounter::new(view);
        for fp in frequent {
            if let Some((coverage, rows)) = cover.cover(&fp.rows) {
                candidates.push(GroupingPattern {
                    pattern: fp.pattern.clone(),
                    coverage,
                    rows,
                });
            }
        }
    } else {
        // Fallback: one pattern per output group, defined on A_gb itself.
        // Its tuples are exactly the group's, so it covers that group alone.
        for (g, rows) in view.group_bits_all().into_iter().enumerate() {
            let preds: Vec<table::Pred> = view
                .group_by
                .iter()
                .zip(&view.keys[g])
                .map(|(&attr, &code)| {
                    let v = table
                        .column(attr)
                        .dict()
                        .map(|d| d.value(code).to_string())
                        .unwrap_or_default();
                    table::Pred::eq(attr, v.as_str())
                })
                .collect();
            let mut coverage = BitSet::new(view.num_groups());
            coverage.insert(g);
            candidates.push(GroupingPattern {
                pattern: Pattern::new(preds),
                coverage,
                rows,
            });
        }
    }

    // Redundancy removal.
    let mut by_coverage: HashMap<BitSet, GroupingPattern> = HashMap::new();
    for entry in candidates {
        match by_coverage.entry(entry.coverage.clone()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(entry);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let cur = o.get();
                let better = entry.pattern.len() < cur.pattern.len()
                    || (entry.pattern.len() == cur.pattern.len()
                        && entry.pattern.key() < cur.pattern.key());
                if better {
                    o.insert(entry);
                }
            }
        }
    }

    let mut out: Vec<GroupingPattern> = by_coverage.into_values().collect();
    // Deterministic order: larger coverage first, then shorter, then key.
    out.sort_by(|a, b| {
        b.coverage
            .count()
            .cmp(&a.coverage.count())
            .then(a.pattern.len().cmp(&b.pattern.len()))
            .then(a.pattern.key().cmp(&b.pattern.key()))
    });
    out
}

/// Definition 4.4 coverage read off a pattern's row set. Group `g` is
/// covered iff every one of its rows is in the set, so counting the set's
/// rows per group decides coverage in one word-level pass over whichever
/// of `view rows ∩ set` and `view rows ∖ set` is smaller — the pattern is
/// never evaluated over the table again.
struct CoverageCounter<'v> {
    row_group: &'v [usize],
    /// Rows per group.
    counts: &'v [usize],
    /// Rows that belong to some group (WHERE-filtered rows do not).
    view_rows: BitSet,
    /// `view_rows.count()`.
    n_view: usize,
    /// Scratch: per-group count of the rows the last walk visited.
    visited: Vec<usize>,
}

impl<'v> CoverageCounter<'v> {
    fn new(view: &'v AggView) -> Self {
        let mut view_rows = BitSet::new(view.row_group.len());
        for (row, &g) in view.row_group.iter().enumerate() {
            if g != usize::MAX {
                view_rows.insert(row);
            }
        }
        CoverageCounter {
            row_group: &view.row_group,
            counts: &view.counts,
            n_view: view_rows.count(),
            view_rows,
            visited: Vec::new(),
        }
    }

    /// The groups a pattern matching `rows` covers, and the rows of those
    /// groups (the pattern's CATE subpopulation); `None` when it covers no
    /// group. A group only partly inside `rows` is not covered and its rows
    /// are dropped. That cannot happen for attributes with `A_gb → W`, which
    /// are constant within every group, but keeps the universal semantics
    /// for any other attribute set.
    fn cover(&mut self, rows: &BitSet) -> Option<(BitSet, BitSet)> {
        let m = self.counts.len();
        let inside = self.view_rows.intersection_count(rows);
        let walk_inside = inside <= self.n_view - inside;
        self.visited.clear();
        self.visited.resize(m, 0);
        let (visited, row_group) = (&mut self.visited, self.row_group);
        if walk_inside {
            self.view_rows
                .for_each_common(rows, |r| visited[row_group[r]] += 1);
        } else {
            self.view_rows
                .for_each_difference(rows, |r| visited[row_group[r]] += 1);
        }
        let mut coverage = BitSet::new(m);
        let mut partial = false;
        for (g, (&total, &seen)) in self.counts.iter().zip(visited.iter()).enumerate() {
            let inside_g = if walk_inside { seen } else { total - seen };
            if inside_g == total {
                coverage.insert(g);
            } else if inside_g > 0 {
                partial = true;
            }
        }
        if coverage.is_empty() {
            return None;
        }
        let mut rows = rows.clone();
        rows.intersect_with(&self.view_rows);
        if partial {
            let mut kept = BitSet::new(rows.capacity());
            rows.for_each_set(|r| {
                if coverage.contains(row_group[r]) {
                    kept.insert(r);
                }
            });
            rows = kept;
        }
        Some((coverage, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use table::query::GroupByAvgQuery;
    use table::TableBuilder;

    /// 3 countries; continent and gdp both split {US} vs {India, China} —
    /// i.e. (continent=Asia) and (gdp=Low) are redundant.
    fn toy() -> Table {
        TableBuilder::new()
            .cat("country", &["US", "US", "India", "India", "China", "China"])
            .unwrap()
            .cat("continent", &["NA", "NA", "Asia", "Asia", "Asia", "Asia"])
            .unwrap()
            .cat("gdp", &["High", "High", "Low", "Low", "Low", "Low"])
            .unwrap()
            .float("salary", vec![10.0, 12.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn redundant_coverage_deduped() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        let pats = mine_grouping_patterns(&t, &view, &[1, 2], 0.1, 2);
        // Distinct coverages: {US}, {India,China}. The {India,China} set is
        // reachable via continent=Asia, gdp=Low, and their conjunction —
        // exactly one survives, a single-predicate one.
        assert_eq!(pats.len(), 2);
        for p in &pats {
            assert_eq!(p.pattern.len(), 1, "shortest pattern must be kept");
        }
        let asia = pats.iter().find(|p| p.coverage.count() == 2).unwrap();
        assert_eq!(asia.rows.count(), 4);
    }

    #[test]
    fn support_threshold_prunes() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        // τ=0.9 ⇒ min support 6; only patterns satisfied by all rows would
        // survive, and none are.
        let pats = mine_grouping_patterns(&t, &view, &[1, 2], 0.9, 2);
        assert!(pats.is_empty());
    }

    #[test]
    fn no_fd_fallback_builds_per_group_patterns() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        let pats = mine_grouping_patterns(&t, &view, &[], 0.1, 2);
        assert_eq!(pats.len(), 3, "one pattern per group");
        for p in &pats {
            assert_eq!(p.coverage.count(), 1);
        }
    }

    #[test]
    fn deterministic_ordering() {
        let t = toy();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&t).unwrap();
        let a = mine_grouping_patterns(&t, &view, &[1, 2], 0.1, 2);
        let b = mine_grouping_patterns(&t, &view, &[1, 2], 0.1, 2);
        let ka: Vec<String> = a.iter().map(|p| p.pattern.key()).collect();
        let kb: Vec<String> = b.iter().map(|p| p.pattern.key()).collect();
        assert_eq!(ka, kb);
    }
}
