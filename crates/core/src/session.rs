//! The session-oriented engine API.
//!
//! The paper's prototype is interactive: an analyst binds a dataset and a
//! causal DAG once, then issues many group-by/AVG queries and drill-downs
//! against them (§4.2). [`Session`] is that shape: it owns the [`Table`]
//! and [`Dag`], and amortizes every piece of per-dataset state across
//! queries —
//!
//! * the FD attribute split (grouping vs treatment attributes) is cached
//!   per group-by set,
//! * backdoor adjustment sets are memoized in one [`BackdoorMemo`] shared
//!   by every query's treatment miner,
//! * each prepared query materializes its aggregate view and
//!   atomic-treatment space exactly once, no matter how often it is
//!   re-run; per-group row bitsets are built lazily — all groups in a
//!   single pass on the first drill-down — and cached.
//!
//! Queries are built by name through [`Session::query`], from SQL through
//! [`Session::sql`], or from a raw [`GroupByAvgQuery`] through
//! [`Session::prepare`]; all three resolve to a validated
//! [`PreparedQuery`] whose `run`/`explain_group` methods are infallible.
//! [`PreparedQuery::try_run`] is the lifeguarded variant: it enforces the
//! configured deadline and memory budget, honors cooperative cancellation
//! and isolates mining panics, reporting each as a structured [`Error`].
//!
//! ```
//! use causumx::{ConfigBuilder, Session};
//! use table::TableBuilder;
//!
//! let table = TableBuilder::new()
//!     .cat("country", &["US", "US", "FR", "FR", "IN", "IN"]).unwrap()
//!     .cat("education", &["PhD", "BSc", "PhD", "BSc", "PhD", "BSc"]).unwrap()
//!     .float("salary", vec![120.0, 80.0, 90.0, 60.0, 40.0, 20.0]).unwrap()
//!     .build().unwrap();
//! let dag = causal::Dag::new(
//!     &["country", "education", "salary"],
//!     &[("country", "salary"), ("education", "salary")],
//! ).unwrap();
//!
//! let config = ConfigBuilder::new().k(2).theta(1.0).min_arm(2).build().unwrap();
//! let session = Session::new(table, dag, config);
//! let query = session.query().group_by("country").avg("salary").prepare().unwrap();
//! let summary = query.run();
//! assert_eq!(summary.m, 3);
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use causal::dag::Dag;
use lpsolve::cover::{
    exhaustive_best, greedy_cover, randomized_rounding, solve_lp_relaxation, CoverInstance,
    CoverSolution,
};
use mining::grouping::{mine_grouping_patterns, GroupingPattern};
use mining::sched;
use mining::treatment::{BackdoorMemo, LatticeStats, MinerParts, TreatmentMiner, TreatmentResult};
use mining::RunGuard;
use table::fd::fd_closure;
use table::pattern::Pattern;
use table::query::{AggView, GroupByAvgQuery};
use table::{Table, TableError};

use crate::config::{CausumxConfig, SelectionMethod};
use crate::error::Error;
use crate::explanation::{Explanation, StepTimings, Summary};
use crate::render::Report;

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
    /// Lattice work counters, summed field by field over every grouping
    /// pattern's walk. The exhaustive enumeration counts each estimated
    /// pattern in `evaluated` and leaves the other counters at zero.
    pub stats: LatticeStats,
}

/// Causal-discovery algorithm selector for
/// [`Session::with_discovered_dag`] — the "no hand-written DAG" path in
/// which the session learns its causal graph from the bound table instead
/// of receiving one (§6.6 of the paper: DAGs "can originate from various
/// sources, including … existing causal discovery methods").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiscoveryAlgo {
    /// PC-stable with Fisher-z conditional-independence tests at
    /// significance level `alpha`.
    Pc {
        /// CI-test significance level (the paper's experiments use 0.01).
        alpha: f64,
    },
    /// The conservative FCI-style variant (sparser graphs) at
    /// significance level `alpha`.
    Fci {
        /// CI-test significance level.
        alpha: f64,
    },
    /// DirectLiNGAM (pairwise likelihood-ratio ordering, OLS-pruned
    /// edges).
    Lingam,
    /// Greedy BIC hill climbing with at most `max_iters` edge moves.
    HillClimb {
        /// Edge-move budget (each move is one addition/deletion/reversal).
        max_iters: usize,
    },
}

impl DiscoveryAlgo {
    /// PC-stable at the standard α = 0.01.
    pub fn pc() -> Self {
        DiscoveryAlgo::Pc { alpha: 0.01 }
    }

    /// Conservative FCI at the standard α = 0.01.
    pub fn fci() -> Self {
        DiscoveryAlgo::Fci { alpha: 0.01 }
    }

    /// Hill climbing with the default 200-move budget.
    pub fn hill_climb() -> Self {
        DiscoveryAlgo::HillClimb { max_iters: 200 }
    }

    /// Stable lowercase label (used in logs and artifact cells).
    pub fn as_str(&self) -> &'static str {
        match self {
            DiscoveryAlgo::Pc { .. } => "pc",
            DiscoveryAlgo::Fci { .. } => "fci",
            DiscoveryAlgo::Lingam => "lingam",
            DiscoveryAlgo::HillClimb { .. } => "hillclimb",
        }
    }

    /// Run the algorithm over (a deterministic prefix of) `table` and
    /// return the learned DAG. Categorical columns enter as dictionary
    /// codes, as in the `discovery` crate's own experiments.
    ///
    /// Discovery cost is super-linear in rows (every CI test or score
    /// evaluation scans its columns), so the input is capped at the first
    /// [`Session::DISCOVERY_ROW_CAP`] rows — a deterministic prefix, not
    /// a sample, so repeated calls learn the same graph bit for bit.
    pub fn discover(&self, table: &Table) -> Dag {
        let capped;
        let input = if table.nrows() > Session::DISCOVERY_ROW_CAP {
            let keep: Vec<usize> = (0..Session::DISCOVERY_ROW_CAP).collect();
            capped = table.take(&keep);
            &capped
        } else {
            table
        };
        let data = discovery::numeric_columns(input);
        let names = discovery::attr_names(input);
        match *self {
            DiscoveryAlgo::Pc { alpha } => discovery::pc(&data, &names, alpha),
            DiscoveryAlgo::Fci { alpha } => discovery::fci(&data, &names, alpha),
            DiscoveryAlgo::Lingam => discovery::lingam(&data, &names),
            DiscoveryAlgo::HillClimb { max_iters } => {
                discovery::hill_climb(&data, &names, max_iters)
            }
        }
    }
}

/// The FD-driven attribute split of §4.1 for one group-by set: attributes
/// functionally determined by the group-by (grouping-pattern candidates)
/// vs everything else (treatment-pattern candidates).
#[derive(Debug, Clone)]
pub struct AttrSplit {
    /// Attributes `W` with `A_gb → W` — eligible for grouping patterns.
    pub grouping: Vec<usize>,
    /// The complement — eligible for treatment patterns.
    pub treatment: Vec<usize>,
}

/// Monotone work counters of a [`Session`] — the observability hook that
/// lets callers (and the test suite) assert that repeated queries do zero
/// redundant per-dataset work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCounters {
    /// Aggregate views materialized (one per [`Session::prepare`]).
    pub views_materialized: usize,
    /// FD closures actually computed (cache misses).
    pub fd_closures_computed: usize,
    /// Backdoor DAG walks actually performed (memo misses).
    pub backdoor_walks: usize,
    /// Queries prepared.
    pub queries_prepared: usize,
    /// Full mining passes executed (`run`/`mine_candidates`).
    pub runs: usize,
    /// Prepared-statement cache hits ([`Session::prepare_cached`] calls
    /// that skipped view materialization and atom building entirely).
    pub prepared_cache_hits: usize,
    /// Prepared-statement cache misses (including every call while the
    /// cache is disabled with capacity 0).
    pub prepared_cache_misses: usize,
}

#[derive(Default)]
struct Counters {
    views_materialized: AtomicUsize,
    fd_closures_computed: AtomicUsize,
    queries_prepared: AtomicUsize,
    runs: AtomicUsize,
    prepared_cache_hits: AtomicUsize,
    prepared_cache_misses: AtomicUsize,
}

/// Snapshot of the prepared-statement cache, exposed for metrics
/// endpoints and tests — see [`Session::prepared_cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedCacheStats {
    /// Entries currently cached.
    pub len: usize,
    /// Configured capacity ([`CausumxConfig::prepared_statements`]).
    pub capacity: usize,
    /// Lifetime cache hits.
    pub hits: usize,
    /// Lifetime cache misses.
    pub misses: usize,
    /// Entries evicted by the LRU policy (not counting `set_config`
    /// clears).
    pub evictions: usize,
}

/// The session-owned, query-lifetime-free parts of a prepared statement:
/// everything [`PreparedQuery`] precomputes that does not borrow the
/// session. Cache entries hold an `Arc` of this; a hit rebuilds the
/// borrowing [`TreatmentMiner`] from [`MinerParts`] in `O(ncols)` instead
/// of re-materializing the view and re-scanning the table for atom masks.
struct PreparedCore {
    query: GroupByAvgQuery,
    view: AggView,
    /// Lazily built per-group row bitsets — shared across every
    /// [`PreparedQuery`] assembled from this core, so one drill-down
    /// warms all cache hits.
    group_bits: OnceLock<Vec<table::BitSet>>,
    split: Arc<AttrSplit>,
    parts: MinerParts,
}

/// LRU state of the prepared-statement cache. Guarded by one mutex: all
/// operations are O(capacity) map scans at worst, far below the cost of
/// the prepares they save.
#[derive(Default)]
struct PrepCache {
    /// Key → (core, last-touched tick).
    entries: HashMap<String, (Arc<PreparedCore>, u64)>,
    tick: u64,
    evictions: usize,
}

/// A long-lived engine bound to one dataset and causal DAG, serving many
/// queries. See the [module docs](self) for the caching contract.
pub struct Session {
    table: Table,
    dag: Dag,
    config: CausumxConfig,
    /// FD split per `(sorted group-by set, avg attribute)`.
    fd_cache: RwLock<HashMap<(Vec<usize>, usize), Arc<AttrSplit>>>,
    /// Backdoor-set memo shared by every miner this session builds.
    backdoor: Arc<BackdoorMemo>,
    /// Prepared-statement cache: normalized statement → prepared core.
    prep_cache: Mutex<PrepCache>,
    counters: Counters,
}

// The serve layer shares one `Session` across request threads and hands
// `PreparedQuery` references to workers; a regression to `!Send`/`!Sync`
// (say, an `Rc` or un-synchronized interior mutability in a cache) must
// fail compilation, not a load test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<PreparedQuery<'static>>();
    assert_send_sync::<PreparedCacheStats>();
};

impl Session {
    /// Bind a dataset and DAG under a configuration. The configuration is
    /// accepted as-is; use [`crate::ConfigBuilder`] to obtain a validated
    /// one.
    pub fn new(table: Table, dag: Dag, config: CausumxConfig) -> Self {
        Session {
            table,
            dag,
            config,
            fd_cache: RwLock::new(HashMap::new()),
            backdoor: Arc::new(BackdoorMemo::new()),
            prep_cache: Mutex::new(PrepCache::default()),
            counters: Counters::default(),
        }
    }

    /// Row cap applied to the discovery input by
    /// [`Session::with_discovered_dag`] (deterministic prefix — see
    /// [`DiscoveryAlgo::discover`]).
    pub const DISCOVERY_ROW_CAP: usize = 2_000;

    /// Bind a dataset with a *discovered* causal DAG: run `algo` over the
    /// table (capped at the first [`Self::DISCOVERY_ROW_CAP`] rows) and
    /// feed the learned graph straight into explanation mining — the
    /// end-to-end "no hand-written DAG" pipeline of §6.6. The full table
    /// is bound to the session; only discovery sees the row prefix.
    ///
    /// ```
    /// use causumx::{ConfigBuilder, DiscoveryAlgo, Session};
    /// use table::TableBuilder;
    ///
    /// // y = x + noise-free copy: discovery sees the dependence, the
    /// // session mines against whatever graph it learned.
    /// let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
    /// let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
    /// let table = TableBuilder::new()
    ///     .cat_owned("g", (0..64).map(|i| format!("g{}", i % 4)).collect()).unwrap()
    ///     .float("x", x).unwrap()
    ///     .float("y", y).unwrap()
    ///     .build().unwrap();
    /// let session = Session::with_discovered_dag(
    ///     table,
    ///     DiscoveryAlgo::pc(),
    ///     ConfigBuilder::new().build().unwrap(),
    /// );
    /// assert!(session.dag().topological_order().is_some());
    /// ```
    pub fn with_discovered_dag(table: Table, algo: DiscoveryAlgo, config: CausumxConfig) -> Self {
        let dag = algo.discover(&table);
        Session::new(table, dag, config)
    }

    /// The bound table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The bound causal DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Current configuration.
    pub fn config(&self) -> &CausumxConfig {
        &self.config
    }

    /// Replace the configuration. Dataset-level caches (FD splits,
    /// backdoor memo) survive — they do not depend on the configuration;
    /// queries prepared *before* the change keep their snapshot. The
    /// prepared-statement cache is cleared: its cores embed
    /// configuration-dependent state (the atom space depends on the
    /// lattice options).
    pub fn set_config(&mut self, config: CausumxConfig) {
        self.config = config;
        let mut cache = sched::lock_recovered(&self.prep_cache);
        cache.entries.clear();
        cache.tick = 0;
    }

    /// Snapshot of the session's work counters.
    pub fn counters(&self) -> SessionCounters {
        SessionCounters {
            views_materialized: self.counters.views_materialized.load(Ordering::Relaxed),
            fd_closures_computed: self.counters.fd_closures_computed.load(Ordering::Relaxed),
            backdoor_walks: self.backdoor.walks(),
            queries_prepared: self.counters.queries_prepared.load(Ordering::Relaxed),
            runs: self.counters.runs.load(Ordering::Relaxed),
            prepared_cache_hits: self.counters.prepared_cache_hits.load(Ordering::Relaxed),
            prepared_cache_misses: self.counters.prepared_cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the prepared-statement cache (size, capacity and
    /// lifetime hit/miss/eviction counts) — the `/stats` feed of the
    /// serve layer.
    pub fn prepared_cache_stats(&self) -> PreparedCacheStats {
        let cache = sched::lock_recovered(&self.prep_cache);
        PreparedCacheStats {
            len: cache.entries.len(),
            capacity: self.config.prepared_statements,
            hits: self.counters.prepared_cache_hits.load(Ordering::Relaxed),
            misses: self.counters.prepared_cache_misses.load(Ordering::Relaxed),
            evictions: cache.evictions,
        }
    }

    /// Start a name-based [`QueryBuilder`].
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder {
            session: self,
            group_by: Vec::new(),
            avg: None,
            where_pattern: None,
            where_sql: None,
        }
    }

    /// Parse a full `SELECT …, AVG(…) FROM … [WHERE …] GROUP BY …`
    /// statement and prepare it. Parse failures carry the byte position of
    /// the offending token ([`Error::Sql`]).
    pub fn sql(&self, statement: &str) -> Result<PreparedQuery<'_>, Error> {
        let query = table::sql::parse_query(&self.table, statement)?;
        self.prepare(query)
    }

    /// Validate a raw [`GroupByAvgQuery`] and precompute everything it
    /// needs: the materialized view, per-group row bitsets, the FD
    /// attribute split (cached across queries) and the treatment miner
    /// (atom space + shared backdoor memo).
    ///
    /// An empty `group_by` is accepted here (it evaluates to a single
    /// global group, as the raw query always did) — the name-based
    /// [`QueryBuilder`] is stricter and requires at least one group-by
    /// attribute.
    ///
    /// ```
    /// use causumx::{ConfigBuilder, Session};
    /// use table::query::GroupByAvgQuery;
    /// use table::TableBuilder;
    ///
    /// let table = TableBuilder::new()
    ///     .cat("country", &["US", "US", "FR", "FR"]).unwrap()
    ///     .float("salary", vec![10.0, 20.0, 30.0, 40.0]).unwrap()
    ///     .build().unwrap();
    /// let dag = causal::Dag::new(&["country", "salary"], &[("country", "salary")]).unwrap();
    /// let session = Session::new(table, dag, ConfigBuilder::new().build().unwrap());
    ///
    /// // Raw index-based query: GROUP BY column 0, AVG(column 1).
    /// let prepared = session.prepare(GroupByAvgQuery::new(vec![0], 1))?;
    /// assert_eq!(prepared.view().num_groups(), 2);
    /// let summary = prepared.run();   // infallible from here on
    /// assert_eq!(summary.m, 2);
    /// # Ok::<(), causumx::Error>(())
    /// ```
    pub fn prepare(&self, query: GroupByAvgQuery) -> Result<PreparedQuery<'_>, Error> {
        let core = self.build_core(query, &self.config)?;
        Ok(self.assemble(core, self.config.clone()))
    }

    /// [`Session::prepare`] through the bounded prepared-statement cache:
    /// queries resolving to the same normalized statement (same group-by
    /// attributes, averaged attribute and WHERE predicate — whether built
    /// by name, by index or parsed from SQL in any whitespace/case
    /// spelling) share one prepared core, so repeats skip view
    /// materialization and atom building entirely. Hits and misses are
    /// observable via [`Session::prepared_cache_stats`]; capacity comes
    /// from [`CausumxConfig::prepared_statements`] (LRU beyond it, `0`
    /// disables). Reports from a cache hit are bit-identical to a fresh
    /// prepare.
    pub fn prepare_cached(&self, query: GroupByAvgQuery) -> Result<PreparedQuery<'_>, Error> {
        let capacity = self.config.prepared_statements;
        let key = statement_key(&query);
        if capacity > 0 {
            let mut cache = sched::lock_recovered(&self.prep_cache);
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((core, last)) = cache.entries.get_mut(&key) {
                *last = tick;
                let core = Arc::clone(core);
                drop(cache);
                self.counters
                    .prepared_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(self.assemble(core, self.config.clone()));
            }
        }
        self.counters
            .prepared_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let core = self.build_core(query, &self.config)?;
        if capacity > 0 {
            let mut cache = sched::lock_recovered(&self.prep_cache);
            cache.tick += 1;
            let tick = cache.tick;
            // Two racing misses on the same key: keep the incumbent so
            // concurrent hits already holding it stay coherent with the
            // cache (either core yields bit-identical reports).
            cache
                .entries
                .entry(key)
                .or_insert_with(|| (Arc::clone(&core), tick));
            while cache.entries.len() > capacity {
                let lru = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last))| *last)
                    .map(|(k, _)| k.clone())
                    .expect("len > capacity > 0 implies non-empty");
                cache.entries.remove(&lru);
                cache.evictions += 1;
            }
        }
        Ok(self.assemble(core, self.config.clone()))
    }

    /// [`Session::sql`] through the prepared-statement cache: parse,
    /// normalize, and serve repeats from the cache — see
    /// [`Session::prepare_cached`].
    pub fn sql_cached(&self, statement: &str) -> Result<PreparedQuery<'_>, Error> {
        let query = table::sql::parse_query(&self.table, statement)?;
        self.prepare_cached(query)
    }

    /// Prepare `query` under a per-query configuration override instead
    /// of the session default — how a service applies request-scoped
    /// deadlines, budgets or (in tests) fault plans without mutating the
    /// shared session. Always bypasses the prepared-statement cache: the
    /// override may change the atom space, and fault plans are meant to
    /// fire on exactly this query.
    pub fn prepare_with(
        &self,
        query: GroupByAvgQuery,
        config: CausumxConfig,
    ) -> Result<PreparedQuery<'_>, Error> {
        let core = self.build_core(query, &config)?;
        Ok(self.assemble(core, config))
    }

    /// Materialize the view and build every session-lifetime part of a
    /// prepared statement. `config` decides the lattice options baked
    /// into the atom space.
    fn build_core(
        &self,
        query: GroupByAvgQuery,
        config: &CausumxConfig,
    ) -> Result<Arc<PreparedCore>, Error> {
        let view = query.run(&self.table)?;
        self.counters
            .views_materialized
            .fetch_add(1, Ordering::Relaxed);
        if view.num_groups() == 0 {
            return Err(Error::EmptyView);
        }
        let split = self.attr_split(&query);
        let miner = TreatmentMiner::with_memo(
            &self.table,
            &self.dag,
            query.avg,
            &split.treatment,
            config.lattice.clone(),
            Arc::clone(&self.backdoor),
        );
        let parts = miner.parts();
        Ok(Arc::new(PreparedCore {
            query,
            view,
            group_bits: OnceLock::new(),
            split,
            parts,
        }))
    }

    /// Bind a prepared core to this session: rebuild the borrowing miner
    /// from the core's [`MinerParts`] (cheap — the atom space is shared
    /// via `Arc`) and snapshot `config` onto the query.
    fn assemble(&self, core: Arc<PreparedCore>, config: CausumxConfig) -> PreparedQuery<'_> {
        let miner = TreatmentMiner::from_parts(
            &self.table,
            &self.dag,
            config.lattice.clone(),
            Arc::clone(&self.backdoor),
            &core.parts,
        );
        self.counters
            .queries_prepared
            .fetch_add(1, Ordering::Relaxed);
        PreparedQuery {
            session: self,
            config,
            core,
            miner,
        }
    }

    /// FD split for a group-by set, computed once per distinct set.
    fn attr_split(&self, query: &GroupByAvgQuery) -> Arc<AttrSplit> {
        let mut gb = query.group_by.clone();
        gb.sort_unstable();
        gb.dedup();
        let key = (gb, query.avg);
        if let Some(hit) = sched::read_recovered(&self.fd_cache).get(&key) {
            return Arc::clone(hit);
        }
        let grouping = fd_closure(&self.table, &query.group_by, &[query.avg]);
        let treatment: Vec<usize> = (0..self.table.ncols())
            .filter(|a| !query.group_by.contains(a) && *a != query.avg && !grouping.contains(a))
            .collect();
        self.counters
            .fd_closures_computed
            .fetch_add(1, Ordering::Relaxed);
        let split = Arc::new(AttrSplit {
            grouping,
            treatment,
        });
        sched::write_recovered(&self.fd_cache).insert(key, Arc::clone(&split));
        split
    }
}

/// Canonical prepared-statement cache key of a *resolved* query:
/// attribute indices plus the structural WHERE pattern. SQL spelling
/// differences (whitespace, keyword case, clause formatting) disappear
/// during parsing, so [`Session::sql_cached`] and the name-based builder
/// agree on keys for free. Group-by order is preserved — it decides the
/// view's group numbering, which the bit-identity contract covers.
fn statement_key(query: &GroupByAvgQuery) -> String {
    format!(
        "g{:?}|a{}|w{:?}",
        query.group_by, query.avg, query.where_clause
    )
}

/// Which column a builder clause refers to: by name or by index.
#[derive(Debug, Clone)]
enum ColRef {
    Name(String),
    Index(usize),
}

/// Name-based query builder obtained from [`Session::query`]. Column
/// references are resolved and validated at [`QueryBuilder::prepare`]
/// time; errors name the offending attribute.
///
/// ```
/// use causumx::{ConfigBuilder, Session};
/// use table::TableBuilder;
///
/// let table = TableBuilder::new()
///     .cat("country", &["US", "US", "FR", "FR"]).unwrap()
///     .int("age", vec![25, 40, 31, 52]).unwrap()
///     .float("salary", vec![10.0, 20.0, 30.0, 40.0]).unwrap()
///     .build().unwrap();
/// let dag = causal::Dag::new(
///     &["country", "age", "salary"],
///     &[("country", "salary"), ("age", "salary")],
/// ).unwrap();
/// let session = Session::new(table, dag, ConfigBuilder::new().build().unwrap());
///
/// let query = session.query()
///     .group_by("country")
///     .avg("salary")
///     .where_sql("age < 50")
///     .prepare()?;
/// assert_eq!(query.view().num_groups(), 2);
///
/// // Unknown names fail at prepare time with a descriptive error.
/// assert!(session.query().group_by("nope").avg("salary").prepare().is_err());
/// # Ok::<(), causumx::Error>(())
/// ```
pub struct QueryBuilder<'s> {
    session: &'s Session,
    group_by: Vec<ColRef>,
    avg: Option<ColRef>,
    where_pattern: Option<Pattern>,
    where_sql: Option<String>,
}

impl<'s> QueryBuilder<'s> {
    /// Add a group-by attribute by name.
    pub fn group_by(mut self, name: &str) -> Self {
        self.group_by.push(ColRef::Name(name.to_string()));
        self
    }

    /// Add a group-by attribute by column index.
    pub fn group_by_index(mut self, attr: usize) -> Self {
        self.group_by.push(ColRef::Index(attr));
        self
    }

    /// Set the averaged attribute by name.
    pub fn avg(mut self, name: &str) -> Self {
        self.avg = Some(ColRef::Name(name.to_string()));
        self
    }

    /// Set the averaged attribute by column index.
    pub fn avg_index(mut self, attr: usize) -> Self {
        self.avg = Some(ColRef::Index(attr));
        self
    }

    /// Attach a conjunctive WHERE clause as SQL (`"Age < 30 AND Country =
    /// 'US'"`), parsed at prepare time.
    pub fn where_sql(mut self, clause: &str) -> Self {
        self.where_sql = Some(clause.to_string());
        self
    }

    /// Attach a pre-built WHERE [`Pattern`].
    pub fn where_pattern(mut self, phi: Pattern) -> Self {
        self.where_pattern = Some(phi);
        self
    }

    /// Resolve names, validate, and prepare the query.
    pub fn prepare(self) -> Result<PreparedQuery<'s>, Error> {
        let (session, query) = self.resolved()?;
        session.prepare(query)
    }

    /// Resolve names, validate, and prepare through the session's
    /// prepared-statement cache — see [`Session::prepare_cached`].
    pub fn prepare_cached(self) -> Result<PreparedQuery<'s>, Error> {
        let (session, query) = self.resolved()?;
        session.prepare_cached(query)
    }

    /// Resolve column references and assemble the validated raw query.
    fn resolved(self) -> Result<(&'s Session, GroupByAvgQuery), Error> {
        let table = &self.session.table;
        let resolve = |r: &ColRef| -> Result<usize, Error> {
            match r {
                ColRef::Name(name) => Ok(table.attr(name)?),
                ColRef::Index(i) => {
                    if *i < table.ncols() {
                        Ok(*i)
                    } else {
                        Err(TableError::BadColumnIndex(*i).into())
                    }
                }
            }
        };
        let group_by = self
            .group_by
            .iter()
            .map(resolve)
            .collect::<Result<Vec<usize>, Error>>()?;
        if group_by.is_empty() {
            return Err(Error::InvalidQuery(
                "query must group by at least one attribute".into(),
            ));
        }
        let avg = match &self.avg {
            Some(r) => resolve(r)?,
            None => {
                return Err(Error::InvalidQuery(
                    "query must specify the averaged attribute (avg)".into(),
                ))
            }
        };
        let mut query = GroupByAvgQuery::new(group_by, avg);
        match (self.where_pattern, &self.where_sql) {
            (Some(_), Some(_)) => {
                return Err(Error::InvalidQuery(
                    "use either where_sql or where_pattern, not both".into(),
                ))
            }
            (Some(phi), None) => query = query.with_where(phi),
            (None, Some(src)) => query = query.with_where(table::sql::parse_where(table, src)?),
            (None, None) => {}
        }
        Ok((self.session, query))
    }

    /// Prepare and run once — convenience for one-shot callers.
    pub fn run(self) -> Result<Summary, Error> {
        Ok(self.prepare()?.run())
    }
}

/// A validated, fully precomputed query bound to its [`Session`]. Running
/// it (any number of times), drilling into groups, and rendering reports
/// are all infallible — every failure mode was ruled out at prepare time.
pub struct PreparedQuery<'s> {
    session: &'s Session,
    /// Configuration snapshot taken at prepare time.
    config: CausumxConfig,
    /// The session-lifetime prepared state (query, view, lazily built
    /// per-group bitsets, FD split, miner parts) — possibly shared with
    /// other handles through the prepared-statement cache.
    core: Arc<PreparedCore>,
    miner: TreatmentMiner<'s>,
}

impl<'s> PreparedQuery<'s> {
    /// The materialized aggregate view `Q(D)`.
    pub fn view(&self) -> &AggView {
        &self.core.view
    }

    /// The underlying query.
    pub fn query(&self) -> &GroupByAvgQuery {
        &self.core.query
    }

    /// The session this query is bound to.
    pub fn session(&self) -> &'s Session {
        self.session
    }

    /// The FD attribute split backing this query.
    pub fn attr_split(&self) -> &AttrSplit {
        &self.core.split
    }

    /// Row bitset of output group `g` (cached across calls; all groups
    /// are built in one pass on first use — and shared with every other
    /// handle of the same cached statement).
    pub fn group_bits(&self, g: usize) -> &table::BitSet {
        &self
            .core
            .group_bits
            .get_or_init(|| self.core.view.group_bits_all())[g]
    }

    /// Run the full pipeline (Algorithm 1). Deterministic: repeated calls
    /// return bit-identical summaries while reusing every piece of
    /// prepared state (view, group bitsets, FD split, atom space,
    /// backdoor memo).
    ///
    /// Runs unguarded (no deadline, no budget) and panics if a mining
    /// task panicked — the historical contract. Use [`Self::try_run`] for
    /// the fallible, lifeguarded variant.
    pub fn run(&self) -> Summary {
        expect_unguarded(self.run_guarded(&RunGuard::unlimited()))
    }

    /// Run the full pipeline under the lifeguards configured on this
    /// query's [`CausumxConfig`] snapshot (`deadline`,
    /// `memory_budget_mb`). Returns the structured [`Error`] variant when
    /// a guard trips or a mining task panics; the session, its caches and
    /// the worker pool stay healthy either way.
    pub fn try_run(&self) -> Result<Summary, Error> {
        let guard = self.config.run_guard();
        self.run_guarded(&guard)
    }

    /// Run the full pipeline under a caller-supplied [`RunGuard`] — the
    /// way to cancel a query from another thread (via
    /// [`RunGuard::cancel_handle`]) or to plug in a custom memory probe.
    pub fn run_guarded(&self, guard: &RunGuard) -> Result<Summary, Error> {
        let candidates = self.try_mine_candidates(guard)?;
        Ok(self.select(&candidates, self.config.selection))
    }

    /// The `Brute-Force` baseline: exhaustive grouping patterns (τ = 0)
    /// and treatments (full lattice), exact branch-and-bound selection.
    pub fn run_brute_force(&self) -> Summary {
        let candidates = self.mine_candidates_brute();
        self.select(&candidates, SelectionMethod::Exhaustive)
    }

    /// The `Brute-Force-LP` variant: exhaustive candidates, LP-rounding
    /// selection.
    pub fn run_brute_force_lp(&self) -> Summary {
        let candidates = self.mine_candidates_brute();
        self.select(&candidates, SelectionMethod::LpRounding)
    }

    /// Steps 1+2 of Algorithm 1 over the prepared state.
    ///
    /// Unguarded and panicking on worker failure, like [`Self::run`]. Use
    /// [`Self::try_mine_candidates`] for the lifeguarded variant.
    pub fn mine_candidates(&self) -> CandidateSet {
        expect_unguarded(self.mine_candidates_inner(false, &RunGuard::unlimited()))
    }

    /// Steps 1+2 of Algorithm 1 under a caller-supplied [`RunGuard`].
    pub fn try_mine_candidates(&self, guard: &RunGuard) -> Result<CandidateSet, Error> {
        self.mine_candidates_inner(false, guard)
    }

    fn mine_candidates_brute(&self) -> CandidateSet {
        expect_unguarded(self.mine_candidates_inner(true, &RunGuard::unlimited()))
    }

    fn mine_candidates_inner(
        &self,
        exhaustive: bool,
        guard: &RunGuard,
    ) -> Result<CandidateSet, Error> {
        self.session.counters.runs.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let tau = if exhaustive {
            0.0
        } else {
            self.config.apriori_tau
        };
        let groupings = mine_grouping_patterns(
            &self.session.table,
            &self.core.view,
            &self.core.split.grouping,
            tau,
            self.config.max_grouping_len,
        );
        let grouping_ms = t0.elapsed().as_secs_f64() * 1e3;
        // One checkpoint between phases: a deadline or budget blown during
        // grouping mining is noticed before the (far larger) lattice walk
        // starts.
        guard
            .check()
            .map_err(|trip| mining::treatment::MineError::from_trip(trip, guard.progress()))?;

        let t1 = Instant::now();
        let (explanations, stats) = self.mine_treatments(&groupings, exhaustive, guard)?;
        let treatment_ms = t1.elapsed().as_secs_f64() * 1e3;

        Ok(CandidateSet {
            view: self.core.view.clone(),
            explanations,
            grouping_ms,
            treatment_ms,
            stats,
        })
    }

    /// Step 2 over a fixed grouping-pattern list. `exhaustive` switches
    /// between Algorithm 2 and full lattice enumeration.
    ///
    /// Both paths run on the unified work-stealing scheduler
    /// (`mining::sched`), sized by [`CausumxConfig::effective_threads`].
    /// Algorithm 2 hands *all* subpopulations to
    /// [`TreatmentMiner::mine_paired_many_guarded`] in one call, so its (pattern
    /// × level × candidate-chunk) tasks interleave freely across
    /// patterns — a skewed workload no longer strands workers on the
    /// small patterns while one giant pattern runs alone. Results come
    /// back index-aligned with `groupings`, keeping summaries
    /// bit-identical to the serial path at any worker count.
    fn mine_treatments(
        &self,
        groupings: &[GroupingPattern],
        exhaustive: bool,
        guard: &RunGuard,
    ) -> Result<(Vec<Explanation>, LatticeStats), Error> {
        let miner = &self.miner;
        let config = &self.config;
        let threads = config.effective_threads();

        // Per-pattern explanation and walk counters. The exhaustive path
        // has no lattice walk, so it counts only its evaluations.
        let results: Vec<(Explanation, LatticeStats)> = if exhaustive {
            // Full-lattice enumeration has no level structure to chunk, so
            // each pattern is one scheduler task; slots keep the output in
            // grouping-pattern order regardless of completion order. A
            // panicking pattern is caught here and fails only this query;
            // a guard trip drains the remaining tasks as no-ops.
            let work = |gp: &GroupingPattern| -> (Explanation, LatticeStats) {
                let subpop = &gp.rows;
                let all = miner.all_treatments(subpop, config.lattice.max_level);
                let stats = LatticeStats {
                    evaluated: all.len(),
                    ..LatticeStats::default()
                };
                let sig = |t: &&TreatmentResult| t.p_value <= config.lattice.max_p_value;
                // `total_cmp` is safe here: zero CATEs are filtered out
                // just above and the estimators never produce NaN
                // (guarded divisions), so ordering matches partial_cmp.
                let pos = all
                    .iter()
                    .filter(sig)
                    .filter(|t| t.cate > 0.0)
                    .max_by(|a, b| a.cate.total_cmp(&b.cate))
                    .cloned();
                let neg = if config.mine_negative {
                    all.iter()
                        .filter(sig)
                        .filter(|t| t.cate < 0.0)
                        .min_by(|a, b| a.cate.total_cmp(&b.cate))
                        .cloned()
                } else {
                    None
                };
                (
                    Explanation::new(gp.pattern.clone(), gp.coverage.clone(), pos, neg),
                    stats,
                )
            };
            let slots: Vec<OnceLock<(Explanation, LatticeStats)>> =
                (0..groupings.len()).map(|_| OnceLock::new()).collect();
            let failure: OnceLock<Error> = OnceLock::new();
            sched::run_graph(threads, (0..groupings.len()).collect(), |i: usize, _| {
                if failure.get().is_some() {
                    return; // query already failed; drain remaining tasks
                }
                if let Err(trip) = guard.check() {
                    let _ = failure.set(
                        mining::treatment::MineError::from_trip(trip, guard.progress()).into(),
                    );
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| work(&groupings[i]))) {
                    Ok(out) => {
                        let first = slots[i].set(out);
                        debug_assert!(first.is_ok(), "exhaustive pattern {i} mined twice");
                    }
                    Err(payload) => {
                        let _ = failure.set(Error::Worker {
                            task: format!("exhaustive pattern {i}"),
                            payload: sched::payload_string(payload.as_ref()),
                        });
                    }
                }
            });
            if let Some(e) = failure.into_inner() {
                return Err(e);
            }
            slots
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    s.into_inner().ok_or_else(|| Error::Worker {
                        task: format!("exhaustive pattern {i}"),
                        payload: "task did not run to completion".into(),
                    })
                })
                .collect::<Result<_, _>>()?
        } else {
            // Subpopulations stay bitsets end-to-end — no byte-mask
            // round-trip between the grouping miner and the lattice walk.
            let subpops: Vec<&table::bitset::BitSet> =
                groupings.iter().map(|gp| &gp.rows).collect();
            let mined = miner.mine_paired_many_guarded(
                &subpops,
                1,
                config.mine_negative,
                threads,
                guard,
            )?;
            groupings
                .iter()
                .zip(mined)
                .map(|(gp, mut paired)| {
                    (
                        Explanation::new(
                            gp.pattern.clone(),
                            gp.coverage.clone(),
                            paired.positive.pop(),
                            paired.negative.pop(),
                        ),
                        paired.stats,
                    )
                })
                .collect()
        };

        let mut stats = LatticeStats::default();
        let mut explanations = Vec::new();
        for (e, s) in results {
            stats.evaluated += s.evaluated;
            stats.levels += s.levels;
            stats.contexts_built += s.contexts_built;
            stats.downdates += s.downdates;
            stats.regathers += s.regathers;
            if e.has_treatment() {
                explanations.push(e);
            }
        }
        Ok((explanations, stats))
    }

    /// Step 3: selection by the requested method over mined candidates,
    /// under this query's configuration snapshot.
    pub fn select(&self, candidates: &CandidateSet, method: SelectionMethod) -> Summary {
        select_candidates(&self.config, candidates, method)
    }

    /// Drill-down: the top-`k` positive and negative treatment patterns
    /// for a *single* output group (by its display label) — the
    /// prototype-UI affordance §4.2 describes. Uses the precomputed view
    /// and group bitsets (no query re-run) and one shared estimation
    /// context for both directions, on the configured worker count.
    /// Returns `None` when the label does not match any group of the view.
    ///
    /// Unguarded and panicking on worker failure, like [`Self::run`].
    pub fn explain_group(
        &self,
        label: &str,
        k: usize,
    ) -> Option<(Vec<TreatmentResult>, Vec<TreatmentResult>)> {
        let table = &self.session.table;
        let gid = (0..self.core.view.num_groups())
            .find(|&g| self.core.view.group_label(table, g) == label)?;
        let mined = self.miner.mine_paired_many_guarded(
            &[self.group_bits(gid)],
            k,
            true,
            self.config.effective_threads(),
            &RunGuard::unlimited(),
        );
        let paired = expect_unguarded(mined.map_err(Error::from))
            .pop()
            .expect("one subpopulation in, one result out");
        Some((paired.positive, paired.negative))
    }

    /// Build a structured [`Report`] from a summary of this query.
    pub fn report(&self, summary: &Summary) -> Report {
        let outcome = self
            .session
            .table
            .schema()
            .field(self.core.query.avg)
            .name
            .clone();
        Report::new(&self.session.table, &self.core.view, summary, &outcome)
    }
}

/// Unwrap the result of a run under an unlimited guard. Only a worker
/// panic (or an injected fault) can fail such a run; the infallible entry
/// points re-raise it as a panic that names the failed task.
fn expect_unguarded<T>(result: Result<T, Error>) -> T {
    match result {
        Ok(v) => v,
        Err(Error::Worker { task, payload }) => {
            panic!("mining task '{task}' panicked: {payload}")
        }
        Err(e) => panic!("unguarded run aborted: {e}"),
    }
}

/// Selection (step 3 of Algorithm 1) as a standalone function: pick at
/// most `config.k` candidates covering at least `⌈θ·m⌉` groups with
/// maximum total weight, by the requested method. Usable with candidates
/// mined elsewhere (the sweep benchmarks re-select one candidate set
/// under many configurations).
pub fn select_candidates(
    config: &CausumxConfig,
    candidates: &CandidateSet,
    method: SelectionMethod,
) -> Summary {
    let m = candidates.view.num_groups();
    let t0 = Instant::now();
    let inst = CoverInstance {
        weights: candidates.explanations.iter().map(|e| e.weight).collect(),
        covers: candidates
            .explanations
            .iter()
            .map(|e| e.coverage.clone())
            .collect(),
        m,
        k: config.k,
        theta: config.theta,
    };

    let solution: Option<CoverSolution> = match method {
        SelectionMethod::LpRounding => solve_lp_relaxation(&inst)
            .and_then(|g| randomized_rounding(&inst, &g, config.rounding_rounds, config.seed))
            // LP infeasible ⇒ ILP infeasible; fall back to the best
            // effort greedy so users still get output (flagged
            // infeasible).
            .or_else(|| greedy_cover(&inst)),
        SelectionMethod::Greedy => greedy_cover(&inst),
        SelectionMethod::Exhaustive => exhaustive_best(&inst).or_else(|| greedy_cover(&inst)),
    };
    let selection_ms = t0.elapsed().as_secs_f64() * 1e3;

    let (explanations, covered, total_weight, feasible) = match solution {
        Some(sol) => {
            let chosen: Vec<Explanation> = sol
                .chosen
                .iter()
                .map(|&j| candidates.explanations[j].clone())
                .collect();
            (chosen, sol.coverage, sol.total_weight, sol.feasible)
        }
        None => (Vec::new(), 0, 0.0, false),
    };

    Summary {
        explanations,
        m,
        covered,
        feasible,
        total_weight,
        candidates: candidates.explanations.len(),
        cate_evaluations: candidates.stats.evaluated,
        downdates: candidates.stats.downdates,
        regathers: candidates.stats.regathers,
        timings: StepTimings {
            grouping_ms: candidates.grouping_ms,
            treatment_ms: candidates.treatment_ms,
            selection_ms,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use table::TableBuilder;

    /// Stack-Overflow-shaped toy data: 4 countries with FDs to continent;
    /// education raises salary in EU countries, student status lowers it
    /// everywhere; Asia countries get a different dominant treatment.
    fn build() -> (Table, Dag) {
        let mut rng = StdRng::seed_from_u64(17);
        let countries = ["FR", "DE", "IN", "CN"];
        let continent = |c: &str| match c {
            "FR" | "DE" => "EU",
            _ => "Asia",
        };
        let n = 4000;
        let mut c_col = Vec::new();
        let mut k_col = Vec::new();
        let mut edu = Vec::new();
        let mut student = Vec::new();
        let mut salary = Vec::new();
        for _ in 0..n {
            let c = countries[rng.gen_range(0..4)];
            let e = if rng.gen_bool(0.5) { "MSc" } else { "BSc" };
            let s = if rng.gen_bool(0.25) { "yes" } else { "no" };
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
            if s == "yes" {
                y -= if eu { 35.0 } else { 10.0 };
            }
            c_col.push(c.to_string());
            k_col.push(continent(c).to_string());
            edu.push(e.to_string());
            student.push(s.to_string());
            salary.push(y);
        }
        let table = TableBuilder::new()
            .cat_owned("country", c_col)
            .unwrap()
            .cat_owned("continent", k_col)
            .unwrap()
            .cat_owned("education", edu)
            .unwrap()
            .cat_owned("student", student)
            .unwrap()
            .float("salary", salary)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(
            &["country", "continent", "education", "student", "salary"],
            &[
                ("country", "salary"),
                ("education", "salary"),
                ("student", "salary"),
            ],
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

    fn build_session() -> Session {
        let (table, dag) = build();
        Session::new(table, dag, engine_config())
    }

    #[test]
    fn end_to_end_covers_all_groups() {
        let session = build_session();
        let pq = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let summary = pq.run();
        assert_eq!(summary.m, 4);
        assert!(summary.feasible, "θ=1 should be satisfiable: {summary:?}");
        assert_eq!(summary.covered, 4);
        assert!(!summary.explanations.is_empty());
        assert!(summary.total_weight > 0.0);
    }

    #[test]
    fn eu_explanation_finds_education_and_student() {
        let session = build_session();
        let pq = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let summary = pq.run();
        // Find the explanation covering the two EU countries.
        let table = session.table();
        let eu = summary
            .explanations
            .iter()
            .find(|e| e.grouping.display(table).contains("EU"))
            .expect("an EU grouping pattern must be selected");
        let pos = eu.positive.as_ref().expect("positive treatment");
        assert!(
            pos.pattern.display(table).contains("education = MSc"),
            "got {}",
            pos.pattern.display(table)
        );
        assert!(pos.cate > 20.0);
        let neg = eu.negative.as_ref().expect("negative treatment");
        assert!(
            neg.pattern.display(table).contains("student = yes"),
            "got {}",
            neg.pattern.display(table)
        );
        assert!(neg.cate < -25.0);
    }

    // Parallel-equals-sequential coverage lives in
    // `tests/scheduler_determinism.rs`, which runs the full pipeline
    // across a worker-count × workload-shape × numeric-mode matrix.

    #[test]
    fn greedy_variant_runs() {
        let (table, dag) = build();
        let mut cfg = engine_config();
        cfg.selection = SelectionMethod::Greedy;
        let session = Session::new(table, dag, cfg);
        let s = session
            .query()
            .group_by("country")
            .avg("salary")
            .run()
            .unwrap();
        assert!(!s.explanations.is_empty());
    }

    #[test]
    fn brute_force_weight_at_least_causumx() {
        let (table, dag) = build();
        let mut cfg = engine_config();
        cfg.lattice.max_level = 2;
        let session = Session::new(table, dag, cfg);
        let pq = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let fast = pq.run();
        let brute = pq.run_brute_force();
        assert!(
            brute.total_weight >= fast.total_weight - 1e-6,
            "brute {} < fast {}",
            brute.total_weight,
            fast.total_weight
        );
        assert!(brute.feasible);
    }

    #[test]
    fn infeasible_theta_flagged() {
        let (table, dag) = build();
        // k=1 with θ=1 cannot be met: the continent split covers at most
        // 2 of 4 country groups per pattern.
        let mut cfg = engine_config();
        cfg.k = 1;
        cfg.theta = 1.0;
        let session = Session::new(table, dag, cfg);
        let s = session
            .query()
            .group_by("country")
            .avg("salary")
            .run()
            .unwrap();
        assert!(!s.feasible);
        assert!(s.covered < 4);
    }

    #[test]
    fn explain_group_drill_down() {
        let session = build_session();
        let pq = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let (pos, neg) = pq.explain_group("FR", 3).expect("FR is a group label");
        assert!(!pos.is_empty() && !neg.is_empty());
        // FR is an EU country: education should top the positive list.
        let table = session.table();
        assert!(
            pos[0].pattern.display(table).contains("education = MSc"),
            "got {}",
            pos[0].pattern.display(table)
        );
        for w in pos.windows(2) {
            assert!(w[0].cate >= w[1].cate);
        }
        // Unknown label → None.
        assert!(pq.explain_group("Atlantis", 3).is_none());
    }

    /// `explain_group` runs on the configured worker count: a panic
    /// injected at (pattern 0, level 1, chunk 0) fails the serial walk as
    /// task `pattern 0` at `threads(1)`, and the fanned walk as the chunk
    /// task that panicked at `threads(4)`.
    #[test]
    fn explain_group_honors_threads() {
        use mining::{FaultKind, FaultPlan, FaultSite};
        let (table, dag) = build();
        let site = FaultSite {
            pattern: 0,
            level: 1,
            chunk: 0,
        };
        for (threads, task) in [(1, "'pattern 0'"), (4, "'pattern 0 level 1 chunk 0'")] {
            let cfg = crate::ConfigBuilder::new()
                .threads(threads)
                .fault_plan(FaultPlan::new().inject(site, FaultKind::Panic))
                .build()
                .unwrap();
            let session = Session::new(table.clone(), dag.clone(), cfg);
            let pq = session
                .query()
                .group_by("country")
                .avg("salary")
                .prepare()
                .unwrap();
            let payload = catch_unwind(AssertUnwindSafe(|| pq.explain_group("FR", 3)))
                .expect_err("the injected panic fails the drill-down");
            let msg = sched::payload_string(payload.as_ref());
            assert!(
                msg.contains(&format!("mining task {task} panicked")),
                "threads({threads}): {msg}"
            );
        }
    }

    /// A raw query grouping by no attribute evaluates to one global group.
    #[test]
    fn empty_group_by_is_one_global_group() {
        let (table, dag) = build();
        let mut cfg = engine_config();
        cfg.theta = 0.0;
        let session = Session::new(table, dag, cfg);
        let summary = session
            .prepare(GroupByAvgQuery::new(vec![], 4))
            .unwrap()
            .run();
        assert_eq!(summary.m, 1, "GROUP BY nothing = one global group");
    }

    #[test]
    fn timings_populated() {
        let session = build_session();
        let s = session
            .query()
            .group_by("country")
            .avg("salary")
            .run()
            .unwrap();
        assert!(s.timings.treatment_ms > 0.0);
        assert!(s.timings.total_ms() >= s.timings.treatment_ms);
        assert!(s.cate_evaluations > 0);
    }

    #[test]
    fn counters_track_cache_reuse() {
        let session = build_session();
        let pq = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let c0 = session.counters();
        assert_eq!(c0.views_materialized, 1);
        assert_eq!(c0.fd_closures_computed, 1);
        assert_eq!(c0.queries_prepared, 1);

        let s1 = pq.run();
        let walks_after_first = session.counters().backdoor_walks;
        assert!(walks_after_first > 0);

        let s2 = pq.run();
        let c2 = session.counters();
        // Zero redundant work on the repeated run: no new view, FD
        // closure or backdoor walk.
        assert_eq!(c2.views_materialized, 1);
        assert_eq!(c2.fd_closures_computed, 1);
        assert_eq!(c2.backdoor_walks, walks_after_first);
        assert_eq!(c2.runs, 2);
        // And bit-identical results.
        assert_eq!(s1.total_weight.to_bits(), s2.total_weight.to_bits());
        assert_eq!(s1.cate_evaluations, s2.cate_evaluations);

        // Re-preparing the same query hits the FD cache (the view is
        // rebuilt — that is what PreparedQuery reuse avoids).
        let _pq2 = session
            .query()
            .group_by("country")
            .avg("salary")
            .prepare()
            .unwrap();
        let c3 = session.counters();
        assert_eq!(c3.views_materialized, 2);
        assert_eq!(c3.fd_closures_computed, 1, "FD split cache hit");
    }

    #[test]
    fn builder_name_errors() {
        let session = build_session();
        let err = session
            .query()
            .group_by("nope")
            .avg("salary")
            .prepare()
            .err()
            .unwrap();
        assert!(matches!(err, Error::Table(TableError::UnknownAttribute(_))));
        let err = session.query().avg("salary").prepare().err().unwrap();
        assert!(matches!(err, Error::InvalidQuery(_)));
        let err = session.query().group_by("country").prepare().err().unwrap();
        assert!(matches!(err, Error::InvalidQuery(_)));
        let err = session
            .query()
            .group_by_index(99)
            .avg("salary")
            .prepare()
            .err()
            .unwrap();
        assert!(matches!(err, Error::Table(TableError::BadColumnIndex(99))));
    }

    #[test]
    fn sql_and_builder_agree() {
        let session = build_session();
        let by_name = session
            .query()
            .group_by("country")
            .avg("salary")
            .where_sql("education = 'MSc'")
            .prepare()
            .unwrap();
        let by_sql = session
            .sql("SELECT country, AVG(salary) FROM t WHERE education = 'MSc' GROUP BY country")
            .unwrap();
        assert_eq!(by_name.view().num_groups(), by_sql.view().num_groups());
        let a = by_name.run();
        let b = by_sql.run();
        assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
        // SQL errors carry positions.
        let err = session
            .sql("SELECT country, AVG(salary) FROM t GROUP BY wages")
            .err()
            .unwrap();
        assert!(matches!(err, Error::Sql { pos, .. } if pos > 0));
    }

    #[test]
    fn empty_view_rejected_at_prepare() {
        let session = build_session();
        let err = session
            .query()
            .group_by("country")
            .avg("salary")
            .where_sql("salary < -1000000")
            .prepare()
            .err()
            .unwrap();
        assert_eq!(err, Error::EmptyView);
    }
}
