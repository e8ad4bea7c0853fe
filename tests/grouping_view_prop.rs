//! Property tests (vendored proptest) that hold grouping-pattern mining and
//! view materialization to straightforward reference builds.
//!
//! * `mine_grouping_patterns` reads Definition 4.4 coverage off each
//!   Apriori pattern's row set. The reference here is the per-pattern
//!   loop it replaced, rebuilt from public parts: `apriori`, then
//!   `AggView::coverage` (the pattern evaluated over the whole table) and
//!   `AggView::subpopulation_mask` per pattern, the per-group fallback
//!   when no grouping attribute is given, the same redundancy pruning and
//!   the same order. Pattern keys, coverage sets, row sets and order must
//!   agree bit for bit. The tables have grouping attributes with an exact
//!   FD from the group-by key and attributes without one, so groups only
//!   partly inside a pattern (which the query path never sees) occur too.
//! * A session mines Apriori's itemsets once per grouping-attribute set,
//!   support and length, in its `MinerMemo`, and turns them into each
//!   view's patterns with `patterns_from_itemsets`. On the same tables,
//!   its patterns (`PreparedQuery::grouping_patterns`, cold and warm, and
//!   for a second WHERE clause over the same attributes) and the memo's
//!   over every grouping-attribute set of the first property must equal
//!   `mine_grouping_patterns` bit for bit, and a warm lookup mines
//!   nothing.
//! * `GroupByAvgQuery::run` numbers the groups of its first key column
//!   through a code-indexed table and refines them column by column. The
//!   reference is a `HashMap<Vec<u32>, usize>` build with one key per
//!   row: keys, group numbering (first appearance), average bits, counts
//!   and `row_group` must agree. The shapes include the empty GROUP BY, a
//!   column with up to one level per row in two- and three-column keys,
//!   and WHERE clauses that drop whole levels.

use std::collections::HashMap;

use causumx::{ConfigBuilder, Session};
use mining::apriori::apriori;
use mining::grouping::{
    min_support, mine_grouping_patterns, patterns_from_itemsets, GroupingPattern,
};
use mining::treatment::MinerMemo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::bitset::BitSet;
use table::pattern::{Op, Pattern, Pred};
use table::query::{AggView, GroupByAvgQuery};
use table::{Table, TableBuilder};

/// Column ids of [`random_table`].
const A: usize = 0; // group-by, up to 7 levels
const B: usize = 1; // second group-by, up to 3 levels
const F: usize = 2; // a function of (A, B): exact FD from either group-by set
const N: usize = 3; // independent of the groups: no FD
const M: usize = 4; // F with some rows flipped: an FD that "almost" holds
const X: usize = 5; // Int, for the WHERE clause
const Y: usize = 6; // Float outcome
const H: usize = 7; // group-by, up to one level per row
const L: usize = 8; // Int, H's level number: a WHERE on it drops whole H levels

fn level(prefix: &str, i: u32) -> String {
    format!("{prefix}{i}")
}

fn random_table(seed: u64, n: usize, a_levels: u32, b_levels: u32, h_levels: u32) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    let mut f = Vec::with_capacity(n);
    let mut nn = Vec::with_capacity(n);
    let mut m = Vec::with_capacity(n);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let ai = rng.gen_range(0..a_levels);
        let bi = rng.gen_range(0..b_levels);
        // F depends on A only, so it is constant within every group of
        // both GROUP BY A and GROUP BY A, B.
        let fi = ai % 3;
        a.push(level("a", ai));
        b.push(level("b", bi));
        f.push(level("f", fi));
        nn.push(level("n", rng.gen_range(0..3)));
        let mi = if rng.gen_bool(0.05) { (fi + 1) % 3 } else { fi };
        m.push(level("f", mi));
        x.push(rng.gen_range(0..10i64));
        y.push(rng.gen_range(-5.0..20.0));
    }
    let hl: Vec<u32> = (0..n).map(|_| rng.gen_range(0..h_levels)).collect();
    TableBuilder::new()
        .cat_owned("A", a)
        .unwrap()
        .cat_owned("B", b)
        .unwrap()
        .cat_owned("F", f)
        .unwrap()
        .cat_owned("N", nn)
        .unwrap()
        .cat_owned("M", m)
        .unwrap()
        .int("X", x)
        .unwrap()
        .float("Y", y)
        .unwrap()
        .cat_owned("H", hl.iter().map(|&i| level("h", i)).collect())
        .unwrap()
        .int("L", hl.iter().map(|&i| i64::from(i)).collect())
        .unwrap()
        .build()
        .unwrap()
}

/// The per-pattern loop `mine_grouping_patterns` ran before it read
/// coverage off the Apriori row sets: every pattern evaluated over the
/// whole table for its coverage, and its rows rebuilt from the coverage.
fn reference_patterns(
    table: &Table,
    view: &AggView,
    gp_attrs: &[usize],
    tau: f64,
    max_len: usize,
) -> Vec<(String, BitSet, BitSet)> {
    let min_support = ((tau * table.nrows() as f64).ceil() as usize).max(1);
    let patterns: Vec<Pattern> = if gp_attrs.is_empty() {
        (0..view.num_groups())
            .map(|g| {
                let preds: Vec<Pred> = view
                    .group_by
                    .iter()
                    .zip(&view.keys[g])
                    .map(|(&attr, &code)| {
                        let v = table.column(attr).dict().unwrap().value(code).to_string();
                        Pred::eq(attr, v.as_str())
                    })
                    .collect();
                Pattern::new(preds)
            })
            .collect()
    } else {
        apriori(table, gp_attrs, min_support, max_len)
            .into_iter()
            .map(|fp| fp.pattern)
            .collect()
    };
    let mut by_coverage: HashMap<BitSet, (Pattern, BitSet)> = HashMap::new();
    for pattern in patterns {
        let coverage = view.coverage(table, &pattern).unwrap();
        if coverage.is_empty() {
            continue;
        }
        let rows = BitSet::from_mask(&view.subpopulation_mask(&coverage));
        let better = |cur: &Pattern| {
            pattern.len() < cur.len() || (pattern.len() == cur.len() && pattern.key() < cur.key())
        };
        match by_coverage.get(&coverage) {
            Some((cur, _)) if !better(cur) => {}
            _ => {
                by_coverage.insert(coverage, (pattern, rows));
            }
        }
    }
    let mut out: Vec<(String, BitSet, BitSet, usize)> = by_coverage
        .into_iter()
        .map(|(cov, (p, rows))| (p.key(), cov, rows, p.len()))
        .collect();
    out.sort_by(|a, b| {
        b.1.count()
            .cmp(&a.1.count())
            .then(a.3.cmp(&b.3))
            .then(a.0.cmp(&b.0))
    });
    out.into_iter().map(|(k, c, r, _)| (k, c, r)).collect()
}

/// The view built with one key allocation per row.
fn reference_view(
    table: &Table,
    group_by: &[usize],
    avg: usize,
    selected: &[bool],
) -> (Vec<Vec<u32>>, Vec<u64>, Vec<usize>, Vec<usize>) {
    let mut group_of_key: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut keys: Vec<Vec<u32>> = Vec::new();
    let mut sums: Vec<f64> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut row_group = vec![usize::MAX; table.nrows()];
    for row in 0..table.nrows() {
        if !selected[row] {
            continue;
        }
        let key: Vec<u32> = group_by
            .iter()
            .map(|&g| table.column(g).codes().unwrap()[row])
            .collect();
        let gid = *group_of_key.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            sums.push(0.0);
            counts.push(0);
            keys.len() - 1
        });
        sums[gid] += table.column(avg).get_f64(row);
        counts[gid] += 1;
        row_group[row] = gid;
    }
    let avgs = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| (s / c.max(1) as f64).to_bits())
        .collect();
    (keys, avgs, counts, row_group)
}

/// The grouping-attribute sets the cases draw from: none (the per-group
/// fallback), the exact FD alone, and mixes with the non-FD attributes.
const GP_SETS: [&[usize]; 5] = [&[], &[F], &[N], &[F, N, M], &[M, N]];

/// Grouping patterns as the properties compare them.
fn keyed(patterns: Vec<GroupingPattern>) -> Vec<(String, BitSet, BitSet)> {
    patterns
        .into_iter()
        .map(|p| (p.pattern.key(), p.coverage, p.rows))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grouping_patterns_match_the_per_pattern_loop(
        seed in any::<u64>(),
        n in 1usize..300,
        a_levels in 1u32..8,
        b_levels in 1u32..4,
        two_keys in any::<bool>(),
        where_bound in 0i64..12,
        use_where in any::<bool>(),
        tau_tenths in 0usize..2,
        max_len in 1usize..4,
        gp_set in 0usize..5,
    ) {
        let table = random_table(seed, n, a_levels, b_levels, 1);
        let group_by = if two_keys { vec![A, B] } else { vec![A] };
        let mut query = GroupByAvgQuery::new(group_by, Y);
        if use_where {
            query = query.with_where(Pattern::single(Pred::cmp(X, Op::Lt, where_bound)));
        }
        let view = query.run(&table).unwrap();
        let gp_attrs = GP_SETS[gp_set];
        let tau = tau_tenths as f64 / 10.0;

        let got = keyed(mine_grouping_patterns(&table, &view, gp_attrs, tau, max_len));
        let want = reference_patterns(&table, &view, gp_attrs, tau, max_len);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn memoized_grouping_patterns_match_mine_grouping_patterns(
        seed in any::<u64>(),
        n in 1usize..300,
        a_levels in 1u32..8,
        b_levels in 1u32..4,
        two_keys in any::<bool>(),
        where_bound in 1i64..12,
        tau_tenths in 0usize..2,
        max_len in 1usize..4,
    ) {
        let table = random_table(seed, n, a_levels, b_levels, 1);
        let tau = tau_tenths as f64 / 10.0;
        let names: Vec<&str> = (0..table.ncols())
            .map(|c| table.schema().field(c).name.as_str())
            .collect();
        let dag = causal::Dag::new(&names, &[]).unwrap();

        // The memo itself, over every attribute set, looked up twice.
        let memo = MinerMemo::new(&table, &dag);
        let view = GroupByAvgQuery::new(vec![A], Y).run(&table).unwrap();
        let support = min_support(tau, n);
        for gp in GP_SETS {
            let want = keyed(mine_grouping_patterns(&table, &view, gp, tau, max_len));
            for _ in 0..2 {
                let frequent = (!gp.is_empty())
                    .then(|| memo.frequent_itemsets(&table, gp, support, max_len));
                let got = keyed(patterns_from_itemsets(&table, &view, frequent.as_deref()));
                prop_assert_eq!(&got, &want);
            }
        }
        prop_assert_eq!(memo.itemsets_mined(), GP_SETS.len() - 1);

        // A session: its split's grouping attributes, cold then warm, and a
        // second WHERE clause over the same attributes.
        let config = ConfigBuilder::new()
            .apriori_tau(tau)
            .max_grouping_len(max_len)
            .build()
            .unwrap();
        let session = Session::new(table.clone(), dag, config);
        let group_by = if two_keys { vec![A, B] } else { vec![A] };
        let mut mined = 0;
        for phi in [None, Some(Pred::cmp(X, Op::Lt, where_bound))] {
            let mut query = GroupByAvgQuery::new(group_by.clone(), Y);
            if let Some(phi) = phi {
                query = query.with_where(Pattern::single(phi));
            }
            let Ok(pq) = session.prepare(query) else {
                continue; // The WHERE clause dropped every row.
            };
            let gp = &pq.attr_split().grouping;
            let want = keyed(mine_grouping_patterns(&table, pq.view(), gp, tau, max_len));
            for _ in 0..2 {
                prop_assert_eq!(keyed(pq.grouping_patterns()), want.clone());
            }
            mined = usize::from(!gp.is_empty());
            prop_assert_eq!(session.counters().itemsets_mined, mined);
        }
        prop_assert_eq!(session.counters().itemsets_mined, mined);
    }

    #[test]
    fn view_matches_the_per_row_key_build(
        seed in any::<u64>(),
        n in 0usize..300,
        a_levels in 1u32..8,
        b_levels in 1u32..4,
        h_pick in 0u32..300,
        shape in 0usize..10,
        where_bound in 0i64..12,
        where_kind in 0usize..3,
    ) {
        // H has up to one level per row.
        let h_levels = 1 + h_pick % (n as u32).max(1);
        let table = random_table(seed, n, a_levels, b_levels, h_levels);
        // No key column, one, two and three, in several orders, and a key
        // column repeated.
        let group_by = [
            vec![],
            vec![A],
            vec![A, B],
            vec![B, A],
            vec![B, B],
            vec![H, A],
            vec![A, H],
            vec![B, H, A],
            vec![H, B, A],
            vec![A, B, H],
        ][shape]
            .clone();
        let mut query = GroupByAvgQuery::new(group_by.clone(), Y);
        let mut selected = vec![true; n];
        // No WHERE, one across the groups, or one dropping the H levels
        // numbered below a bound (and with them whole groups).
        let phi = match where_kind {
            1 => Some(Pred::cmp(X, Op::Lt, where_bound)),
            2 => Some(Pred::cmp(L, Op::Ge, where_bound * i64::from(h_levels) / 12)),
            _ => None,
        };
        if let Some(phi) = phi {
            let phi = Pattern::single(phi);
            selected = phi.eval(&table).unwrap();
            query = query.with_where(phi);
        }
        let view = query.run(&table).unwrap();
        let (keys, avgs, counts, row_group) = reference_view(&table, &group_by, Y, &selected);
        prop_assert_eq!(&view.keys, &keys);
        let got_avgs: Vec<u64> = view.avgs.iter().map(|a| a.to_bits()).collect();
        prop_assert_eq!(got_avgs, avgs);
        prop_assert_eq!(&view.counts, &counts);
        prop_assert_eq!(&view.row_group, &row_group);
    }
}
