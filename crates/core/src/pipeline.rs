//! The deprecated one-shot pipeline API, kept as a thin shim over
//! [`crate::session::Session`] for one release.
//!
//! The seed's [`Causumx`] engine was one-shot per query: every `run` (and
//! even every `explain_group`) re-derived the FD closure, treatment
//! attributes, backdoor sets and the materialized view. The session API
//! amortizes all of that; this module only adapts the old borrowed-data
//! signatures onto it (cloning the table and DAG into an owned session at
//! construction) so existing callers keep compiling while they migrate —
//! see the `## Migrating` section of the workspace `README.md`.

use std::marker::PhantomData;

use causal::dag::Dag;
use table::bitset::BitSet;
use table::query::{AggView, GroupByAvgQuery};
use table::Table;

use crate::config::{CausumxConfig, SelectionMethod};
use crate::error::Error;
use crate::explanation::{Explanation, Summary};
use crate::session::{select_candidates, Session};
use mining::treatment::TreatmentResult;

/// Candidate explanation patterns — the output of steps 1+2 of Algorithm 1,
/// before selection. Exposed so the variant algorithms and the benchmarks
/// can reuse mined candidates with different selection strategies.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// The materialized aggregate view.
    pub view: AggView,
    /// One entry per surviving grouping pattern.
    pub explanations: Vec<Explanation>,
    /// Mining wall-clock (steps 1 and 2).
    pub grouping_ms: f64,
    /// Treatment-mining wall-clock.
    pub treatment_ms: f64,
    /// Lattice candidates evaluated, summed over both directions (see
    /// [`crate::Summary::cate_evaluations`]).
    pub cate_evaluations: usize,
    /// Subset candidates whose treatment moments were derived by
    /// downdating the parent's cached moments (`FastV1` + estimation
    /// cache + regression backend only; always `0` under `Exact`).
    pub downdates: usize,
    /// Cached-walk candidates that had a join parent but fell back to a
    /// full re-gather (mode, key mismatch, drift guard, or missing
    /// moments).
    pub regathers: usize,
}

/// The original one-shot CauSumX engine: borrows the data and background
/// knowledge, owns the query and configuration.
///
/// Deprecated: every call re-prepares the query from scratch. Use
/// [`Session`] — bind the dataset once, [`Session::prepare`] the query
/// once, then `run`/`explain_group` as often as needed with zero redundant
/// view materializations, FD-closure or backdoor recomputations.
#[deprecated(
    since = "0.2.0",
    note = "use `Session::new(table, dag, config)` + `session.prepare(query)` (or `session.query()…`/`session.sql(…)`)"
)]
pub struct Causumx<'a> {
    session: Session,
    query: GroupByAvgQuery,
    /// The old API borrowed the table and DAG; the lifetime is kept so
    /// existing type annotations (`Causumx<'_>`) continue to compile.
    _borrow: PhantomData<&'a Table>,
}

#[allow(deprecated)]
impl<'a> Causumx<'a> {
    /// Assemble an engine (clones `table` and `dag` into an owned
    /// [`Session`]).
    pub fn new(
        table: &'a Table,
        dag: &'a Dag,
        query: GroupByAvgQuery,
        config: CausumxConfig,
    ) -> Self {
        Causumx {
            session: Session::new(table.clone(), dag.clone(), config),
            query,
            _borrow: PhantomData,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &CausumxConfig {
        self.session.config()
    }

    /// Run the full pipeline (Algorithm 1).
    pub fn run(&self) -> Result<Summary, Error> {
        Ok(self.session.prepare(self.query.clone())?.run())
    }

    /// Run and also return the view (for rendering).
    pub fn run_with_view(&self) -> Result<(Summary, AggView), Error> {
        let prepared = self.session.prepare(self.query.clone())?;
        let summary = prepared.run();
        Ok((summary, prepared.view().clone()))
    }

    /// The `Brute-Force` baseline: exhaustively enumerate grouping patterns
    /// (τ = 0) and treatment patterns (full lattice up to the configured
    /// depth), then select the exact optimum by branch-and-bound.
    pub fn run_brute_force(&self) -> Result<Summary, Error> {
        Ok(self.session.prepare(self.query.clone())?.run_brute_force())
    }

    /// The `Brute-Force-LP` variant: exhaustive candidates, LP-rounding
    /// selection.
    pub fn run_brute_force_lp(&self) -> Result<Summary, Error> {
        Ok(self
            .session
            .prepare(self.query.clone())?
            .run_brute_force_lp())
    }

    /// Steps 1+2 of Algorithm 1: mine grouping patterns, then the top
    /// positive/negative treatment per grouping pattern (parallel across
    /// grouping patterns — optimization c).
    pub fn mine_candidates(&self) -> Result<CandidateSet, Error> {
        Ok(self.session.prepare(self.query.clone())?.mine_candidates())
    }

    /// Drill-down: the top-`k` positive and negative treatment patterns
    /// for a *single* output group (by its display label). Returns `None`
    /// when the label does not match any group of the view.
    pub fn explain_group(
        &self,
        label: &str,
        k: usize,
    ) -> Result<Option<(Vec<TreatmentResult>, Vec<TreatmentResult>)>, Error> {
        match self.session.prepare(self.query.clone()) {
            Ok(prepared) => Ok(prepared.explain_group(label, k)),
            // The pre-session API materialized the empty view and reported
            // the label as simply not found.
            Err(Error::EmptyView) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Step 3: selection by the requested method over mined candidates.
    pub fn select(&self, candidates: &CandidateSet, method: SelectionMethod) -> Summary {
        select_candidates(self.session.config(), candidates, method)
    }
}

/// Union coverage of a set of explanations (diagnostic helper).
pub fn union_coverage(explanations: &[Explanation], m: usize) -> BitSet {
    let mut u = BitSet::new(m);
    for e in explanations {
        u.union_with(&e.coverage);
    }
    u
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    //! The deprecated shim must stay behaviorally identical to the
    //! session API it wraps; the engine itself is tested in
    //! [`crate::session`].

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use table::TableBuilder;

    fn build() -> (Table, Dag) {
        let mut rng = StdRng::seed_from_u64(17);
        let countries = ["FR", "DE", "IN", "CN"];
        let continent = |c: &str| match c {
            "FR" | "DE" => "EU",
            _ => "Asia",
        };
        let n = 2000;
        let mut c_col = Vec::new();
        let mut k_col = Vec::new();
        let mut edu = Vec::new();
        let mut salary = Vec::new();
        for _ in 0..n {
            let c = countries[rng.gen_range(0..4)];
            let e = if rng.gen_bool(0.5) { "MSc" } else { "BSc" };
            let base = match c {
                "FR" => 60.0,
                "DE" => 65.0,
                "IN" => 20.0,
                "CN" => 25.0,
                _ => unreachable!(),
            };
            let eu = continent(c) == "EU";
            let mut y = base + rng.gen_range(-2.0..2.0);
            if e == "MSc" {
                y += if eu { 30.0 } else { 8.0 };
            }
            c_col.push(c.to_string());
            k_col.push(continent(c).to_string());
            edu.push(e.to_string());
            salary.push(y);
        }
        let table = TableBuilder::new()
            .cat_owned("country", c_col)
            .unwrap()
            .cat_owned("continent", k_col)
            .unwrap()
            .cat_owned("education", edu)
            .unwrap()
            .float("salary", salary)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(
            &["country", "continent", "education", "salary"],
            &[("country", "salary"), ("education", "salary")],
        )
        .unwrap();
        (table, dag)
    }

    fn engine_config() -> CausumxConfig {
        crate::ConfigBuilder::new()
            .k(3)
            .theta(1.0)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn shim_matches_session() {
        let (table, dag) = build();
        let query = GroupByAvgQuery::new(vec![0], 3);
        let shim = Causumx::new(&table, &dag, query.clone(), engine_config())
            .run()
            .unwrap();
        let session = Session::new(table.clone(), dag.clone(), engine_config());
        let direct = session.prepare(query).unwrap().run();
        assert_eq!(shim.total_weight.to_bits(), direct.total_weight.to_bits());
        assert_eq!(shim.covered, direct.covered);
        assert_eq!(shim.cate_evaluations, direct.cate_evaluations);
    }

    #[test]
    fn shim_run_with_view_and_explain_group() {
        let (table, dag) = build();
        let query = GroupByAvgQuery::new(vec![0], 3);
        let cx = Causumx::new(&table, &dag, query, engine_config());
        let (summary, view) = cx.run_with_view().unwrap();
        assert_eq!(view.num_groups(), 4);
        assert!(summary.covered > 0);
        let (pos, _neg) = cx
            .explain_group("FR", 3)
            .unwrap()
            .expect("FR is a group label");
        assert!(!pos.is_empty());
        assert!(cx.explain_group("Atlantis", 3).unwrap().is_none());
    }

    #[test]
    fn shim_variants_and_selection() {
        let (table, dag) = build();
        let query = GroupByAvgQuery::new(vec![0], 3);
        let mut cfg = engine_config();
        cfg.lattice.max_level = 2;
        let cx = Causumx::new(&table, &dag, query, cfg);
        let fast = cx.run().unwrap();
        let brute = cx.run_brute_force().unwrap();
        assert!(brute.total_weight >= fast.total_weight - 1e-6);
        let candidates = cx.mine_candidates().unwrap();
        let greedy = cx.select(&candidates, SelectionMethod::Greedy);
        assert!(!greedy.explanations.is_empty());
    }

    /// Legacy edge cases the shim must preserve: `explain_group` on a
    /// WHERE-emptied view reports the label as not found (never
    /// `EmptyView`), and an empty group-by list evaluates to one global
    /// group instead of being rejected.
    #[test]
    fn shim_preserves_legacy_edge_semantics() {
        let (table, dag) = build();
        let empty_where = GroupByAvgQuery::new(vec![0], 3).with_where(table::Pattern::single(
            table::Pred::cmp(3, table::pattern::Op::Lt, -1e9),
        ));
        let cx = Causumx::new(&table, &dag, empty_where, engine_config());
        assert!(cx.explain_group("FR", 3).unwrap().is_none());

        let global = GroupByAvgQuery::new(vec![], 3);
        let mut cfg = engine_config();
        cfg.theta = 0.0;
        let s = Causumx::new(&table, &dag, global, cfg).run().unwrap();
        assert_eq!(s.m, 1, "GROUP BY nothing = one global group");
    }

    #[test]
    fn union_coverage_unions() {
        let (table, dag) = build();
        let query = GroupByAvgQuery::new(vec![0], 3);
        let cx = Causumx::new(&table, &dag, query, engine_config());
        let s = cx.run().unwrap();
        let u = union_coverage(&s.explanations, s.m);
        assert_eq!(u.count(), s.covered);
    }
}
