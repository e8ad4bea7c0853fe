//! Treatment-pattern mining — Algorithm 2 of the paper.
//!
//! Given a grouping pattern's subpopulation, find the treatment pattern
//! with the highest positive (or lowest negative) CATE on the outcome. The
//! set of all treatment patterns forms a lattice ordered by predicate
//! addition; because CATE is *non-monotone* along this lattice, the paper
//! traverses it top-down greedily: a node is materialized only when **all**
//! of its parents were kept with a CATE of the requested sign, each level
//! keeps only the top 50 % by |CATE| (optimization b), attributes without a
//! causal path to the outcome are dropped (optimization a, via the causal
//! DAG), and CATEs may be estimated on a fixed-size sample (optimization
//! d). Traversal stops at the first level that does not improve on the best
//! CATE recorded so far (lines 10–13 of Algorithm 2).

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use causal::backdoor::{attrs_affecting_outcome, backdoor_set};
use causal::context::{ContextCache, EstimationContext, RegressionFit, TreatmentMoments};
use causal::dag::Dag;
use causal::estimate::{CateOptions, CateResult, EstimatorBackend};
use causal::NumericMode;
use table::bitset::{BitSet, Projector};
use table::pattern::{Op, Pattern, Pred};
use table::{Column, Scalar, Table};

use crate::sched;
use crate::sched::faults::{FaultInjector, FaultPlan, FaultSite};
use crate::sched::guard::{QueryProgress, RunGuard, Trip};
use crate::sched::payload_string;

/// Search direction σ of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Treatments with the highest positive CATE.
    Positive,
    /// Treatments with the lowest negative CATE.
    Negative,
}

impl Direction {
    /// Does `cate` have the requested sign?
    fn matches(self, cate: f64) -> bool {
        match self {
            Direction::Positive => cate > 0.0,
            Direction::Negative => cate < 0.0,
        }
    }

    /// Is `a` strictly better than `b` in this direction?
    fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Positive => a > b,
            Direction::Negative => a < b,
        }
    }
}

/// Tuning knobs of the lattice traversal.
#[derive(Debug, Clone)]
pub struct LatticeOptions {
    /// Hard cap on pattern length (lattice depth).
    pub max_level: usize,
    /// Fraction of sign-matching nodes kept per level (optimization b;
    /// paper uses 0.5).
    pub top_frac: f64,
    /// Floor on nodes kept per level, so the join stage always has pairs to
    /// work with even when a level is small.
    pub min_keep: usize,
    /// Near-zero-CATE pruning threshold, as a fraction of the outcome's
    /// standard deviation (optimization b).
    pub min_abs_cate_frac: f64,
    /// Statistical-significance requirement for the *returned* treatment:
    /// a node enters the best list only when its p-value is `<=` this
    /// bound, so a NaN p-value (from `df ≤ 0` or a zero standard error) is
    /// never significant — the same test the brute-force path applies.
    /// Nodes failing it may still be expanded.
    pub max_p_value: f64,
    /// Estimator options (sampling, overlap, one-hot caps).
    pub cate_opts: CateOptions,
    /// Threshold atoms per numeric attribute (quantile cut points).
    pub numeric_bins: usize,
    /// Equality atoms kept per categorical attribute (most frequent first).
    pub max_atoms_per_attr: usize,
    /// Use the causal DAG to drop attributes with no path to the outcome
    /// (optimization a).
    pub prune_by_dag: bool,
    /// Deterministic fault-injection plan for the chaos suite
    /// ([`crate::sched::faults`]): panics, delays, spurious wakeups or
    /// cooperative cancels fired at chosen (pattern, level, chunk)
    /// points of the walk. `None` (the default, and the only production
    /// setting) injects nothing and costs nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for LatticeOptions {
    fn default() -> Self {
        LatticeOptions {
            max_level: 3,
            top_frac: 0.5,
            min_keep: 8,
            min_abs_cate_frac: 0.01,
            max_p_value: 0.05,
            cate_opts: CateOptions::default(),
            numeric_bins: 4,
            max_atoms_per_attr: 16,
            prune_by_dag: true,
            fault_plan: None,
        }
    }
}

/// Structured failure of one guarded mining call
/// ([`TreatmentMiner::mine_paired_many_guarded`]). The guard-trip
/// variants carry [`QueryProgress`] so callers can report how far the
/// walk got; `Worker` carries which task panicked and its stringified
/// payload. Exactly one of these surfaces per failed query — sibling
/// patterns finish, and the pool stays healthy for the next call.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// The query's cancel handle was triggered (or a `Cancel` fault
    /// fired) and the walk stopped at the next checkpoint.
    Cancelled {
        /// Progress at the checkpoint that noticed the cancellation.
        progress: QueryProgress,
    },
    /// The wall-clock deadline elapsed mid-walk.
    DeadlineExceeded {
        /// The configured deadline.
        after: Duration,
        /// Progress at the checkpoint that noticed the deadline.
        progress: QueryProgress,
    },
    /// Peak-RSS growth exceeded the query's memory budget.
    MemoryBudget {
        /// Allowed growth in bytes.
        budget_bytes: u64,
        /// Observed growth in bytes when the check fired.
        observed_bytes: u64,
        /// Progress at the checkpoint that noticed the overshoot.
        progress: QueryProgress,
    },
    /// A walk task panicked; the panic was caught and attributed to its
    /// owning pattern instead of poisoning the pool.
    Worker {
        /// Which task failed, e.g. `"pattern 2 level 3 chunk 1"`.
        task: String,
        /// Stringified panic payload.
        payload: String,
    },
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MineError::Cancelled { progress } => write!(
                f,
                "query cancelled after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::DeadlineExceeded { after, progress } => write!(
                f,
                "deadline of {after:?} exceeded after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::MemoryBudget {
                budget_bytes,
                observed_bytes,
                progress,
            } => write!(
                f,
                "memory budget of {budget_bytes} bytes exceeded ({observed_bytes} observed) after {} levels / {} CATE evaluations",
                progress.levels_completed, progress.cate_evaluations
            ),
            MineError::Worker { task, payload } => {
                write!(f, "worker task '{task}' panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for MineError {}

impl MineError {
    /// Convert a guard [`Trip`] into the mining error, attaching the
    /// progress snapshot the caller observed at the checkpoint.
    pub fn from_trip(trip: Trip, progress: QueryProgress) -> MineError {
        match trip {
            Trip::Cancelled => MineError::Cancelled { progress },
            Trip::DeadlineExceeded { budget } => MineError::DeadlineExceeded {
                after: budget,
                progress,
            },
            Trip::MemoryBudget {
                budget_bytes,
                observed_bytes,
            } => MineError::MemoryBudget {
                budget_bytes,
                observed_bytes,
                progress,
            },
        }
    }
}

/// Convert a guard trip into the mining error, attaching progress.
fn trip_error(trip: Trip, progress: QueryProgress) -> MineError {
    MineError::from_trip(trip, progress)
}

/// A treatment pattern with its estimated effect.
#[derive(Debug, Clone)]
pub struct TreatmentResult {
    /// The treatment predicate `P_t`.
    pub pattern: Pattern,
    /// Estimated CATE of `P_t` on the outcome within the subpopulation.
    pub cate: f64,
    /// Two-sided p-value of the effect.
    pub p_value: f64,
    /// Treated / control unit counts used by the estimator.
    pub n_treated: usize,
    /// Control units.
    pub n_control: usize,
}

/// Work counters, reported by the figure-14 style breakdowns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeStats {
    /// Lattice candidates evaluated, counted per direction. A paired walk
    /// estimates level 1 once and the negative direction absorbs those
    /// estimates; the shared level still counts in both directions, so
    /// this is the number of candidates each direction's walk evaluated,
    /// not the number of fits run.
    pub evaluated: usize,
    /// Lattice levels materialized.
    pub levels: usize,
    /// [`causal::context::EstimationContext`]s built — one per distinct
    /// backdoor set touched by the walk(s) sharing the cache.
    pub contexts_built: usize,
    /// Subset candidates whose treatment blocks were derived by
    /// incremental Gram downdating from the parent's cached moments
    /// (FastV1 mode only; always 0 in `Exact` mode, see
    /// [`causal::context::EstimationContext::estimate_downdated`]).
    pub downdates: usize,
    /// Subset candidates that were *eligible* for downdating (a kept
    /// parent on the previous level, regression backend) but took the
    /// full-regather fallback instead — every such candidate in `Exact`
    /// mode, plus key-mismatch/size-guard fallbacks in FastV1.
    pub regathers: usize,
}

/// Top-`k` positive and negative treatments of one subpopulation, mined
/// over one *shared* set of estimation contexts — see
/// [`TreatmentMiner::mine_paired_many_guarded`].
#[derive(Debug, Clone)]
pub struct PairedTreatments {
    /// Best positive treatments, sorted best-first.
    pub positive: Vec<TreatmentResult>,
    /// Best negative treatments, sorted best-first (empty when negative
    /// mining was not requested).
    pub negative: Vec<TreatmentResult>,
    /// Combined work counters of both walks.
    pub stats: LatticeStats,
}

/// Shared memo of backdoor adjustment sets, keyed by
/// `(outcome, sorted treatment attribute set)`. One memo can back any
/// number of [`TreatmentMiner`]s over the same DAG — a session serving many
/// queries walks the DAG once per distinct key, ever. The `walks` counter
/// records actual DAG traversals (cache misses), which is what session
/// diagnostics assert on.
#[derive(Debug, Default)]
pub struct BackdoorMemo {
    map: RwLock<HashMap<(usize, Vec<usize>), Vec<usize>>>,
    walks: AtomicUsize,
    /// Fingerprint of the (DAG, schema width) the memo was first attached
    /// to — keys are attribute ids, which only mean the same thing across
    /// miners over the same DAG and column layout, so attaching the memo
    /// to a different graph is rejected loudly instead of silently
    /// returning the wrong confounder sets.
    fingerprint: OnceLock<u64>,
}

impl BackdoorMemo {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of DAG walks performed (i.e. cache misses) so far.
    pub fn walks(&self) -> usize {
        self.walks.load(Ordering::Relaxed)
    }

    /// Distinct `(outcome, attribute set)` keys memoized.
    pub fn len(&self) -> usize {
        sched::read_recovered(&self.map).len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bind the memo to a (DAG, table-width) fingerprint on first use;
    /// panic if a later miner attaches it to a different one.
    fn attach(&self, dag: &Dag, ncols: usize) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        dag.names().hash(&mut h);
        dag.edges().hash(&mut h);
        ncols.hash(&mut h);
        let fp = h.finish();
        let bound = *self.fingerprint.get_or_init(|| fp);
        assert_eq!(
            bound, fp,
            "BackdoorMemo shared across different DAGs/schemas — confounder sets would silently come from the wrong graph"
        );
    }

    fn get_or_compute(
        &self,
        outcome: usize,
        key: Vec<usize>,
        compute: impl FnOnce(&[usize]) -> Vec<usize>,
    ) -> Vec<usize> {
        let full_key = (outcome, key);
        if let Some(hit) = sched::read_recovered(&self.map).get(&full_key) {
            return hit.clone();
        }
        let conf = compute(&full_key.1);
        self.walks.fetch_add(1, Ordering::Relaxed);
        sched::write_recovered(&self.map).insert(full_key, conf.clone());
        conf
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomKind {
    Eq,
    Lower, // attr ≥ v
    Upper, // attr < v
}

#[derive(Debug, Clone)]
struct Atom {
    pred: Pred,
    attr: usize,
    kind: AtomKind,
    /// Rows of the *full table* satisfying the atom.
    mask: BitSet,
}

/// The table-scan products of a [`TreatmentMiner`]'s construction,
/// exported by [`TreatmentMiner::parts`] and re-imported by
/// [`TreatmentMiner::from_parts`]: the atomic predicate space (shared via
/// `Arc` — each atom's full-table row mask is the expensive part of
/// `prepare`) plus the outcome statistics, fingerprinted with the table
/// shape they were built against. Cloning is `O(1)`.
#[derive(Debug, Clone)]
pub struct MinerParts {
    atoms: Arc<Vec<Atom>>,
    outcome_std: f64,
    outcome: usize,
    nrows: usize,
    ncols: usize,
}

impl MinerParts {
    /// Number of atomic predicates in the exported space.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The outcome attribute the parts were exported for.
    pub fn outcome(&self) -> usize {
        self.outcome
    }
}

/// The treatment-pattern miner: precomputes atomic predicates and their row
/// masks once, then mines the top treatments of many grouping patterns
/// per [`TreatmentMiner::mine_paired_many_guarded`] call (these calls are
/// `&self` and thread-safe; the call itself fans the patterns out on the
/// scheduler — the paper's optimization (c)). Subpopulations travel as
/// [`BitSet`]s end-to-end; within one query all estimations share a
/// per-confounder-set [`causal::context::EstimationContext`], so only the
/// treatment column is re-gathered per candidate.
pub struct TreatmentMiner<'a> {
    table: &'a Table,
    dag: &'a Dag,
    outcome: usize,
    opts: LatticeOptions,
    /// `Arc`'d so a prepared-statement cache can share one atom space
    /// across many miners over the same table (see
    /// [`TreatmentMiner::parts`]).
    atoms: Arc<Vec<Atom>>,
    /// |outcome std| for the near-zero pruning threshold.
    outcome_std: f64,
    /// table attr id ↔ dag node id maps (by name).
    attr_to_dag: Vec<Option<usize>>,
    dag_to_attr: Vec<Option<usize>>,
    /// Memoized backdoor sets — the seed re-walked the DAG on every single
    /// estimate call. Shared (`Arc`) so a session can hand the same memo to
    /// every miner it builds; the interior `RwLock` keeps the miner `Sync`
    /// for optimization (c)'s cross-pattern parallelism.
    backdoor: Arc<BackdoorMemo>,
}

impl<'a> TreatmentMiner<'a> {
    /// Build a miner over `treat_attrs` (the non-FD side of the attribute
    /// split). Applies optimization (a): attributes with no causal path to
    /// the outcome in `dag` are dropped up front.
    pub fn new(
        table: &'a Table,
        dag: &'a Dag,
        outcome: usize,
        treat_attrs: &[usize],
        opts: LatticeOptions,
    ) -> Self {
        Self::with_memo(
            table,
            dag,
            outcome,
            treat_attrs,
            opts,
            Arc::new(BackdoorMemo::new()),
        )
    }

    /// Like [`TreatmentMiner::new`] but sharing an externally owned
    /// [`BackdoorMemo`], so backdoor sets computed by one miner (query)
    /// are reused by every other miner over the same DAG.
    pub fn with_memo(
        table: &'a Table,
        dag: &'a Dag,
        outcome: usize,
        treat_attrs: &[usize],
        opts: LatticeOptions,
        backdoor: Arc<BackdoorMemo>,
    ) -> Self {
        backdoor.attach(dag, table.ncols());
        let attr_to_dag: Vec<Option<usize>> = (0..table.ncols())
            .map(|a| dag.index_of(&table.schema().field(a).name))
            .collect();
        let mut dag_to_attr: Vec<Option<usize>> = vec![None; dag.len()];
        for (attr, d) in attr_to_dag.iter().enumerate() {
            if let Some(d) = d {
                dag_to_attr[*d] = Some(attr);
            }
        }

        // Optimization (a): prune attributes without a causal path to Y.
        let mut effective: Vec<usize> = if opts.prune_by_dag {
            match attr_to_dag[outcome] {
                Some(y) => {
                    let anc: HashSet<usize> = attrs_affecting_outcome(dag, y).into_iter().collect();
                    treat_attrs
                        .iter()
                        .copied()
                        .filter(|&a| attr_to_dag[a].is_some_and(|d| anc.contains(&d)))
                        .collect()
                }
                None => treat_attrs.to_vec(),
            }
        } else {
            treat_attrs.to_vec()
        };
        // Degenerate DAGs (e.g. a discovered graph where the outcome ends
        // up parentless) would prune *everything*; fall back to the full
        // set rather than silently producing no explanations.
        if effective.is_empty() {
            effective = treat_attrs.to_vec();
        }

        let atoms = Arc::new(build_atoms(table, &effective, &opts));
        let outcome_std = column_std(table.column(outcome));

        TreatmentMiner {
            table,
            dag,
            outcome,
            opts,
            atoms,
            outcome_std,
            attr_to_dag,
            dag_to_attr,
            backdoor,
        }
    }

    /// Export the table-scan products of this miner's construction — the
    /// atomic predicate space (every atom's row mask is an `O(n)` table
    /// scan) and the outcome standard deviation — as a cheaply clonable
    /// [`MinerParts`]. A prepared-statement cache holds these so a
    /// repeated query rebuilds its miner in `O(ncols)` via
    /// [`TreatmentMiner::from_parts`] instead of re-scanning the table.
    pub fn parts(&self) -> MinerParts {
        MinerParts {
            atoms: Arc::clone(&self.atoms),
            outcome_std: self.outcome_std,
            outcome: self.outcome,
            nrows: self.table.nrows(),
            ncols: self.table.ncols(),
        }
    }

    /// Rebuild a miner from [`MinerParts`] previously exported by
    /// [`TreatmentMiner::parts`]. Only the attribute↔DAG maps are
    /// recomputed (`O(ncols)` name lookups); the atom space and outcome
    /// statistics are shared untouched, so the rebuilt miner walks the
    /// lattice bit-identically to the one that exported the parts.
    ///
    /// The parts are only meaningful against the same table, DAG, outcome
    /// attribute and lattice options they were exported under — the
    /// caller (the session's prepared-statement cache) guarantees this;
    /// shape mismatches are rejected loudly.
    ///
    /// # Panics
    ///
    /// Panics when `table`/`outcome` disagree with the shape recorded in
    /// `parts` (wrong row/column count or outcome attribute).
    pub fn from_parts(
        table: &'a Table,
        dag: &'a Dag,
        opts: LatticeOptions,
        backdoor: Arc<BackdoorMemo>,
        parts: &MinerParts,
    ) -> Self {
        assert_eq!(
            (parts.nrows, parts.ncols),
            (table.nrows(), table.ncols()),
            "MinerParts exported from a differently-shaped table"
        );
        backdoor.attach(dag, table.ncols());
        let attr_to_dag: Vec<Option<usize>> = (0..table.ncols())
            .map(|a| dag.index_of(&table.schema().field(a).name))
            .collect();
        let mut dag_to_attr: Vec<Option<usize>> = vec![None; dag.len()];
        for (attr, d) in attr_to_dag.iter().enumerate() {
            if let Some(d) = d {
                dag_to_attr[*d] = Some(attr);
            }
        }
        TreatmentMiner {
            table,
            dag,
            outcome: parts.outcome,
            opts,
            atoms: Arc::clone(&parts.atoms),
            outcome_std: parts.outcome_std,
            attr_to_dag,
            dag_to_attr,
            backdoor,
        }
    }

    /// Number of atomic treatment predicates under consideration.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Attributes that survived the optimization-(a) pruning.
    pub fn effective_attrs(&self) -> Vec<usize> {
        let mut a: Vec<usize> = self.atoms.iter().map(|x| x.attr).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Confounder attributes (backdoor set) for a treatment over `attrs`.
    /// Memoized per attribute set: the DAG walk runs once, every further
    /// estimate over the same attributes is a hash lookup — across *all*
    /// miners sharing this memo (see [`TreatmentMiner::with_memo`]).
    pub fn confounders_for(&self, attrs: &[usize]) -> Vec<usize> {
        let mut key = attrs.to_vec();
        key.sort_unstable();
        key.dedup();
        self.backdoor
            .get_or_compute(self.outcome, key, |k| self.compute_confounders(k))
    }

    /// The backdoor memo backing [`TreatmentMiner::confounders_for`].
    pub fn backdoor_memo(&self) -> &Arc<BackdoorMemo> {
        &self.backdoor
    }

    fn compute_confounders(&self, attrs: &[usize]) -> Vec<usize> {
        let Some(y) = self.attr_to_dag[self.outcome] else {
            return Vec::new();
        };
        let ts: Vec<usize> = attrs.iter().filter_map(|&a| self.attr_to_dag[a]).collect();
        if ts.is_empty() {
            return Vec::new();
        }
        backdoor_set(self.dag, &ts, y)
            .into_iter()
            .filter_map(|d| self.dag_to_attr[d])
            .filter(|&a| a != self.outcome)
            .collect()
    }

    /// Evaluate the CATE of an arbitrary treatment pattern within `subpop`.
    pub fn eval_pattern(&self, subpop: &BitSet, pattern: &Pattern) -> Option<TreatmentResult> {
        let treated = BitSet::from_mask(&pattern.eval(self.table).ok()?);
        let mut contexts = ContextCache::new();
        let r = self.estimate(&mut contexts, subpop, &treated, &pattern.attrs())?;
        Some(TreatmentResult {
            pattern: pattern.clone(),
            cate: r.cate,
            p_value: r.p_value,
            n_treated: r.n_treated,
            n_control: r.n_control,
        })
    }

    /// One estimate on the subpopulation's context for the backdoor set
    /// of `attrs`, built into `contexts` on first use.
    fn estimate(
        &self,
        contexts: &mut ContextCache,
        subpop: &BitSet,
        treated: &BitSet,
        attrs: &[usize],
    ) -> Option<CateResult> {
        contexts
            .get_or_build(
                self.table,
                Some(subpop),
                self.outcome,
                self.confounders_for(attrs),
                &self.opts.cate_opts,
            )?
            .estimate(treated)
    }

    /// Algorithm 2 for many subpopulations: the top-`k` positive and
    /// (when `mine_negative`) negative treatments of each, sorted
    /// best-first, every entry passing the significance gate. The returned
    /// vector is index-aligned with `subpops`.
    ///
    /// The two walks of one subpopulation share its estimation contexts —
    /// they touch the same backdoor sets, so each
    /// [`causal::context::EstimationContext`] is built once — and level 1
    /// (every overlap-passing atom, whatever the direction) is estimated
    /// once and absorbed by both. Results equal two independent
    /// single-direction walks.
    ///
    /// All subpopulations run on one work-stealing scheduler of `threads`
    /// workers (`0` = one per core, `1` = serial): every (pattern ×
    /// lattice level × candidate chunk) becomes a task, so workers
    /// finishing a small pattern steal candidate chunks from whichever
    /// pattern still has work. Per-pattern state (the [`ContextCache`]
    /// with its confounder panel, the local atom projection, the walk
    /// frontier) is sharded — one mutex-guarded walk per subpopulation —
    /// while chunk evaluations read pre-built shared contexts without any
    /// lock. Results merge in (pattern, level, candidate) order, so every
    /// result is bit-identical at any worker count. A nested call — from
    /// a task already running on the [`crate::sched`] pool — runs inline
    /// on the calling worker, so layered fan-out never multiplies into
    /// cores² threads.
    ///
    /// The walk checks `guard` at every chunk boundary and level merge
    /// and returns a structured [`MineError`] instead of panicking —
    /// cooperative cancellation, deadlines, memory budgets and caught
    /// worker panics all surface here with partial-progress diagnostics.
    pub fn mine_paired_many_guarded(
        &self,
        subpops: &[&BitSet],
        k: usize,
        mine_negative: bool,
        threads: usize,
        guard: &RunGuard,
    ) -> Result<Vec<PairedTreatments>, MineError> {
        let dirs: &[Direction] = if mine_negative {
            &[Direction::Positive, Direction::Negative]
        } else {
            &[Direction::Positive]
        };
        self.mine_walks(subpops, k, dirs, threads, guard)
    }

    /// The driver behind [`TreatmentMiner::mine_paired_many_guarded`],
    /// for any direction sequence: each subpopulation's walk is a
    /// resumable state machine ([`WalkState`]) advanced by scheduler
    /// tasks. A `Start` task pumps the walk until it has a level of
    /// candidates to estimate (the serial part: Apriori joins, memoized
    /// backdoor lookups, in-order context builds), then fans the level out
    /// as [`sched::ChunkSlots`] chunk tasks; the worker completing a
    /// level's last chunk re-locks that pattern's state, merges results in
    /// candidate order, and pumps again.
    ///
    /// Failure model: every task body is caught with `catch_unwind`
    /// while the pattern/level/chunk identity is still known, so a panic
    /// fails only its owning pattern's result slot ([`MineError::Worker`])
    /// and sibling patterns keep mining. Guard trips (cancel, deadline,
    /// memory budget) are query-wide: the first one wins a shared
    /// failure slot and every remaining task drains as a no-op. One
    /// worker (`threads = 1`) or a nested call takes the serial fast
    /// path instead — no batches, no chunk slots, no locks — with guard
    /// and fault hooks firing at the same chunk boundaries, producing
    /// bit-identical results.
    fn mine_walks(
        &self,
        subpops: &[&BitSet],
        k: usize,
        dirs: &[Direction],
        threads: usize,
        guard: &RunGuard,
    ) -> Result<Vec<PairedTreatments>, MineError> {
        if subpops.is_empty() {
            return Ok(Vec::new());
        }
        let injector = self
            .opts
            .fault_plan
            .as_ref()
            .map(|p| FaultInjector::new(Arc::clone(p)));
        let injector = injector.as_ref();
        let workers = sched::resolve_workers(threads);
        if workers <= 1 || sched::in_scheduler() {
            return self.mine_walks_serial(subpops, k, dirs, guard, injector);
        }
        let patterns: Vec<PatternSlot<'_>> = subpops
            .iter()
            .map(|&s| PatternSlot {
                state: Mutex::new(WalkState::new(self, s, k, dirs, workers, guard)),
                out: OnceLock::new(),
            })
            .collect();
        // First guard trip wins; set once, every later task short-circuits.
        let failure: OnceLock<MineError> = OnceLock::new();
        let fail_pattern = |p: usize, task: String, payload: &(dyn Any + Send)| {
            let _ = patterns[p].out.set(Err(MineError::Worker {
                task,
                payload: payload_string(payload),
            }));
        };
        let advance =
            |p: usize, done: Option<Arc<LevelBatch>>, spawn: &sched::Spawner<'_, WalkTask>| {
                let slot = &patterns[p];
                if failure.get().is_some() || slot.out.get().is_some() {
                    return;
                }
                let mut st = sched::lock_recovered(&slot.state);
                if let Some(batch) = done {
                    match batch.slots.try_merged() {
                        Ok(results) => st.absorb(&batch.cands, &batch.keys, results),
                        Err(e) => {
                            // Can only happen when a chunk task died
                            // without recording its result; surface it
                            // as that pattern's structured failure.
                            drop(st);
                            let _ = slot.out.set(Err(MineError::Worker {
                                task: format!("pattern {p} level {} merge", batch.level),
                                payload: e.to_string(),
                            }));
                            return;
                        }
                    }
                    // Level-merge checkpoint.
                    if let Err(trip) = guard.check() {
                        let _ = failure.set(trip_error(trip, guard.progress()));
                        return;
                    }
                }
                match st.pump() {
                    Some(batch) => {
                        for chunk in 0..batch.ranges.len() {
                            spawn.spawn(WalkTask::Eval {
                                pattern: p,
                                batch: Arc::clone(&batch),
                                chunk,
                            });
                        }
                    }
                    None => {
                        let first = slot.out.set(Ok(st.finalize()));
                        debug_assert!(first.is_ok(), "pattern walk finalized twice");
                    }
                }
            };
        let initial: Vec<WalkTask> = (0..patterns.len()).map(WalkTask::Start).collect();
        sched::run_graph(threads, initial, |task, spawn| {
            if failure.get().is_some() {
                return;
            }
            match task {
                WalkTask::Start(p) => {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| advance(p, None, spawn)))
                    {
                        fail_pattern(p, format!("pattern {p} start"), payload.as_ref());
                    }
                }
                WalkTask::Eval {
                    pattern,
                    batch,
                    chunk,
                } => {
                    if patterns[pattern].out.get().is_some() {
                        // Owning walk already failed; drain sibling chunks.
                        return;
                    }
                    // Chunk-boundary checkpoint: injected faults fire
                    // first (they may cancel or panic), then the guard.
                    let evaluated = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(inj) = injector {
                            inj.at(
                                FaultSite {
                                    pattern,
                                    level: batch.level,
                                    chunk,
                                },
                                guard,
                                || spawn.poke(),
                            );
                        }
                        if let Err(trip) = guard.check() {
                            let _ = failure.set(trip_error(trip, guard.progress()));
                            return None;
                        }
                        Some(Self::eval_chunk(&batch, batch.ranges[chunk].clone()))
                    }));
                    match evaluated {
                        Ok(Some(out)) => {
                            if batch.slots.complete(chunk, out) {
                                let merged = Arc::clone(&batch);
                                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                                    advance(pattern, Some(merged), spawn)
                                })) {
                                    fail_pattern(
                                        pattern,
                                        format!("pattern {pattern} level {} merge", batch.level),
                                        payload.as_ref(),
                                    );
                                }
                            }
                        }
                        // Guard tripped: the query is failing, leave the
                        // chunk incomplete.
                        Ok(None) => {}
                        Err(payload) => {
                            fail_pattern(
                                pattern,
                                format!("pattern {pattern} level {} chunk {chunk}", batch.level),
                                payload.as_ref(),
                            );
                        }
                    }
                }
            }
        });
        if let Some(err) = failure.into_inner() {
            return Err(err);
        }
        let mut out = Vec::with_capacity(patterns.len());
        for (p, slot) in patterns.into_iter().enumerate() {
            match slot.out.into_inner() {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) => return Err(e),
                None => {
                    // Unreachable unless a walk stalled without recording
                    // a failure; report rather than unwrap so the pool
                    // survives even a bookkeeping bug here.
                    return Err(MineError::Worker {
                        task: format!("pattern {p}"),
                        payload: "walk did not run to completion".to_string(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Serial fast path (`threads = 1`, or a nested call already on the
    /// pool): a plain per-pattern loop with no batches, chunk slots,
    /// `Arc`s or mutexes. Candidate generation, context builds and
    /// estimation all run in candidate order — the same order the
    /// fanned-out path freezes into its batches — so results, counters
    /// and memo walks are bit-identical to every other worker count.
    /// Guard checks and fault injection fire at the chunk boundaries
    /// [`sched::chunk_ranges`] would produce for one worker.
    fn mine_walks_serial(
        &self,
        subpops: &[&BitSet],
        k: usize,
        dirs: &[Direction],
        guard: &RunGuard,
        injector: Option<&FaultInjector>,
    ) -> Result<Vec<PairedTreatments>, MineError> {
        let mut out = Vec::with_capacity(subpops.len());
        let mut first_err: Option<MineError> = None;
        for (p, &subpop) in subpops.iter().enumerate() {
            let mut st = WalkState::new(self, subpop, k, dirs, 1, guard);
            let walked = catch_unwind(AssertUnwindSafe(
                || -> Result<PairedTreatments, MineError> {
                    while let Some(cands) = st.next_cands() {
                        let (keys, results) = st.eval_level_inline(&cands, p, injector)?;
                        st.absorb(&cands, &keys, results);
                    }
                    Ok(st.finalize())
                },
            ));
            match walked {
                Ok(Ok(r)) => out.push(r),
                // Guard trips are query-wide: fail fast, skip the rest.
                Ok(Err(e)) => return Err(e),
                // A panic fails only this pattern; siblings keep mining,
                // mirroring the pool's isolation semantics.
                Err(payload) => {
                    first_err.get_or_insert(MineError::Worker {
                        task: format!("pattern {p}"),
                        payload: payload_string(payload.as_ref()),
                    });
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Estimate one contiguous candidate chunk of a prepared level. Runs
    /// lock-free on any scheduler worker: it reads the pre-built
    /// `Arc<EstimationContext>` pinned into the batch per candidate.
    fn eval_chunk(batch: &LevelBatch, range: Range<usize>) -> Vec<EvalRes> {
        range
            .map(|i| -> EvalRes {
                eval_cached(
                    batch.ctx[i].as_ref()?,
                    &batch.cands[i],
                    batch.plans.get(i).and_then(|p| p.as_ref()),
                    batch.track,
                )
            })
            .collect()
    }

    /// Brute-force enumeration of all treatment patterns up to `max_len`
    /// atoms, each evaluated. Exponential — used by the Brute-Force
    /// baseline and the Fig. 10 precision/recall study only.
    pub fn all_treatments(&self, subpop: &BitSet, max_len: usize) -> Vec<TreatmentResult> {
        let sub_bits = subpop;
        let mut contexts = ContextCache::new();
        // Loop invariants hoisted out of the exponential enumeration.
        let sub_n = sub_bits.count();
        let min_arm = self.opts.cate_opts.min_arm;
        let mut out = Vec::new();
        // Ids of current-frontier patterns; expand depth-first by index
        // ordering so each combination is generated once.
        let mut frontier: Vec<(Vec<u16>, BitSet)> = Vec::new();
        for (ai, atom) in self.atoms.iter().enumerate() {
            frontier.push((vec![ai as u16], atom.mask.clone()));
        }
        let mut level = 1;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (atoms, mask) in &frontier {
                let treated_in_sub = mask.intersection_count(sub_bits);
                if treated_in_sub >= min_arm && sub_n - treated_in_sub >= min_arm {
                    let attrs: Vec<usize> =
                        atoms.iter().map(|&x| self.atoms[x as usize].attr).collect();
                    if let Some(r) = self.estimate(&mut contexts, sub_bits, mask, &attrs) {
                        out.push(TreatmentResult {
                            pattern: self.pattern_of(atoms),
                            cate: r.cate,
                            p_value: r.p_value,
                            n_treated: r.n_treated,
                            n_control: r.n_control,
                        });
                    }
                }
                if level < max_len {
                    let last = *atoms.last().expect("frontier patterns are non-empty") as usize;
                    for nxt in last + 1..self.atoms.len() {
                        if !self.atoms_compatible_with_all(atoms, nxt) {
                            continue;
                        }
                        let mut m = mask.clone();
                        m.intersect_with(&self.atoms[nxt].mask);
                        if m.is_empty() {
                            continue;
                        }
                        let mut a = atoms.clone();
                        a.push(nxt as u16);
                        next.push((a, m));
                    }
                }
            }
            frontier = next;
            level += 1;
        }
        out
    }

    fn pattern_of(&self, atoms: &[u16]) -> Pattern {
        Pattern::new(
            atoms
                .iter()
                .map(|&a| self.atoms[a as usize].pred.clone())
                .collect(),
        )
    }

    /// Two atoms may co-occur when they are on different attributes, or
    /// form a (lower, upper) range on the same numeric attribute.
    fn atoms_compatible(&self, a: usize, b: usize) -> bool {
        let (x, y) = (&self.atoms[a], &self.atoms[b]);
        if x.attr != y.attr {
            return true;
        }
        matches!(
            (x.kind, y.kind),
            (AtomKind::Lower, AtomKind::Upper) | (AtomKind::Upper, AtomKind::Lower)
        )
    }

    fn atoms_compatible_with_all(&self, atoms: &[u16], cand: usize) -> bool {
        atoms
            .iter()
            .all(|&a| self.atoms_compatible(a as usize, cand))
    }
}

/// The atom space re-indexed into one subpopulation's local coordinates:
/// the global→local rank map plus every atom mask projected down to
/// `|subpop|` bits. Built once per subpopulation; every join intersection,
/// overlap precheck and estimation gather in the lattice walk then runs at
/// local width.
struct LocalSpace {
    projector: Projector,
    atoms_local: Vec<BitSet>,
}

impl LocalSpace {
    fn new(subpop: &BitSet, atoms: &[Atom]) -> Self {
        let projector = Projector::new(subpop);
        let atoms_local = atoms.iter().map(|a| projector.project(&a.mask)).collect();
        LocalSpace {
            projector,
            atoms_local,
        }
    }
}

/// Estimation byproducts cached on a kept node for its children: the
/// confounder key the node was estimated under, and — in FastV1 mode —
/// its treatment-block moments. A child whose key matches can derive its
/// own blocks by downdating instead of re-gathering; key-only entries
/// (Exact mode) exist so the walk can still count the fallback regathers
/// it performs.
struct NodeAux {
    key: Vec<usize>,
    moments: Option<TreatmentMoments>,
}

/// A node's p-value. The walk ranks, prunes and stops on CATE alone, so a
/// regression estimate keeps only its fit and runs the inference half
/// (the residual pass and the Student-t tail) when [`insert_best`] needs
/// the p-value. The IPW backend estimates eagerly and carries a known
/// value.
#[derive(Clone)]
enum PValue {
    Known(f64),
    Deferred(RegressionFit),
}

/// One candidate's estimate as the walk keeps it.
#[derive(Clone)]
struct Est {
    cate: f64,
    p: PValue,
    n_treated: usize,
    n_control: usize,
}

impl From<CateResult> for Est {
    fn from(r: CateResult) -> Self {
        Est {
            cate: r.cate,
            p: PValue::Known(r.p_value),
            n_treated: r.n_treated,
            n_control: r.n_control,
        }
    }
}

impl From<RegressionFit> for Est {
    fn from(fit: RegressionFit) -> Self {
        Est {
            cate: fit.cate(),
            n_treated: fit.n_treated(),
            n_control: fit.n_control(),
            p: PValue::Deferred(fit),
        }
    }
}

/// A lattice node that survived estimation (local-coordinate mask).
#[derive(Clone)]
struct Node {
    atoms: Vec<u16>,
    mask: BitSet, // subpopulation rows satisfying the pattern, local width
    /// Popcount of `mask` — treated rows in the subpopulation (before
    /// sampling), reused for the children's downdate size guard.
    count: usize,
    cate: f64,
    p: PValue,
    n_treated: usize,
    n_control: usize,
    /// Downdating byproducts (regression backend only).
    aux: Option<Arc<NodeAux>>,
}

impl Node {
    /// The node's p-value, running the deferred inference on the context
    /// the fit came from when only the fit is held.
    fn p_value(&self, contexts: &ContextCache) -> f64 {
        match &self.p {
            PValue::Known(p) => *p,
            PValue::Deferred(fit) => self
                .aux
                .as_ref()
                .and_then(|aux| contexts.get(&aux.key))
                .expect(
                    "a deferred fit's node keeps its confounder key, whose context stays cached",
                )
                .p_value_local(fit, &self.mask),
        }
    }
}

/// A generated-but-unestimated lattice candidate (local-coordinate mask).
struct Cand {
    atoms: Vec<u16>,
    mask: BitSet,
    /// Popcount of `mask` (computed by the overlap precheck anyway).
    count: usize,
    /// Index into the previous level's kept nodes of the join parent
    /// whose treated rowset is the smaller superset of `mask` — the
    /// cheaper downdate source. `None` at level 1.
    parent: Option<u32>,
}

/// A prepared downdate for one candidate: the parent's cached aux (key +
/// moments) plus the rows the child dropped. Computed serially at
/// level-preparation time, so chunk evaluations stay lock-free and the
/// `downdates`/`regathers` counters are scheduler-independent.
struct DowndatePlan {
    parent: Arc<NodeAux>,
    removed: BitSet,
}

/// One candidate's evaluation: the estimate (if solvable) plus, in
/// moments-tracking mode, the treatment blocks cached for downdating.
type EvalRes = Option<(Est, Option<TreatmentMoments>)>;

/// Evaluation of one candidate: downdate when a plan is present,
/// otherwise gather — with moments when the walk tracks them.
/// The regression backend returns the fit alone (its p-value is
/// deferred); IPW estimates eagerly.
fn eval_cached(
    ctx: &EstimationContext,
    cand: &Cand,
    plan: Option<&DowndatePlan>,
    track: bool,
) -> EvalRes {
    if ctx.backend() == EstimatorBackend::Ipw {
        return ctx.estimate_local(&cand.mask).map(|r| (r.into(), None));
    }
    if let Some(p) = plan {
        if let Some(m) = p.parent.moments.as_ref() {
            return ctx
                .fit_downdated(m, &p.removed)
                .map(|(fit, mm)| (fit.into(), Some(mm)));
        }
    }
    ctx.fit_local(&cand.mask)
        .map(|(fit, m)| (fit.into(), track.then_some(m)))
}

/// Floor on candidates per scheduler chunk — a level too small to
/// amortize task dispatch goes out as a single chunk.
const MIN_CHUNK: usize = 8;

/// Scheduler task of the shared lattice driver: start (or restart) a
/// pattern's walk, or estimate one candidate chunk of a prepared level.
enum WalkTask {
    /// Pump pattern `.0`'s walk until it needs a level evaluated.
    Start(usize),
    /// Estimate `batch.ranges[chunk]` of `pattern`'s current level.
    Eval {
        pattern: usize,
        batch: Arc<LevelBatch>,
        chunk: usize,
    },
}

/// One grouping pattern's shard: its resumable walk state plus the slot
/// its finished summary — or structured failure — lands in. Chunk
/// evaluations never touch the mutex — only the pump/merge steps
/// (serial per pattern) lock it. A set `Err` marks the walk dead: its
/// remaining tasks drain without evaluating.
struct PatternSlot<'w> {
    state: Mutex<WalkState<'w>>,
    out: OnceLock<Result<PairedTreatments, MineError>>,
}

/// One lattice level, frozen for lock-free fan-out: the candidates, their
/// memoized confounder keys, the pre-built estimation context per
/// candidate, and the index-addressed result slots the chunks complete
/// into. Everything is `Arc`-shared so an `Eval` task needs no access to
/// the walk state.
struct LevelBatch {
    /// 1-based lattice level these candidates belong to — the `level`
    /// coordinate of guard checkpoints and fault sites.
    level: usize,
    cands: Vec<Cand>,
    keys: Vec<Vec<usize>>,
    /// Per-candidate pre-built context (`None` where the build failed).
    ctx: Vec<Option<Arc<EstimationContext>>>,
    /// Per-candidate downdate plan (empty unless the walk stores aux;
    /// `None` entries regather).
    plans: Vec<Option<DowndatePlan>>,
    /// Chunks return moments alongside each estimate (FastV1).
    track: bool,
    ranges: Vec<Range<usize>>,
    slots: sched::ChunkSlots<EvalRes>,
}

/// The resumable Algorithm-2 walk of one subpopulation: direction
/// sequence (positive, then optionally negative, sharing the
/// subpopulation's contexts and local projection, and the positive
/// walk's level-1 estimates), current frontier, best-k list and work
/// counters. `pump` drives the serial parts
/// (candidate generation, in-order context builds) until a level is
/// ready to fan out; `absorb` replays the serial post-level logic on the
/// index-merged results, so the walk's decisions — and counters — are
/// bit-identical to the single-threaded path.
struct WalkState<'w> {
    miner: &'w TreatmentMiner<'w>,
    subpop: &'w BitSet,
    k: usize,
    dirs: &'w [Direction],
    workers: usize,
    /// The query's lifeguard: progress counters plus the limits checked
    /// at chunk boundaries and level merges.
    guard: &'w RunGuard,
    /// The subpopulation's estimation contexts, shared by both
    /// directions.
    contexts: ContextCache,
    /// The subpopulation-local projection of the atom space, built on
    /// first use and shared by both directions.
    local: Option<Arc<LocalSpace>>,
    min_cate: f64,
    /// Index into `dirs` of the direction currently walking.
    dir_idx: usize,
    /// Next evaluation is level 1 of the current direction.
    fresh: bool,
    /// Current direction hit a termination condition (empty level or no
    /// improvement — Algorithm 2 lines 10–13).
    stopped: bool,
    level: Vec<Node>,
    level_no: usize,
    best: Vec<Node>,
    evaluated: usize,
    /// Subset candidates evaluated via incremental Gram downdating.
    downdates: usize,
    /// Downdate-eligible candidates that took the full-regather fallback.
    regathers: usize,
    max_levels: usize,
    /// Finished per-direction result lists, index-aligned with `dirs`.
    outputs: Vec<Vec<TreatmentResult>>,
    /// The first direction's level-1 `(keys, results)`, kept while a later
    /// direction still has to walk. Level 1 is every overlap-passing atom
    /// in every direction, estimated on the same contexts and masks, so
    /// the later direction absorbs a clone instead of estimating it again.
    level1: Option<(Vec<Vec<usize>>, Vec<EvalRes>)>,
}

impl<'w> WalkState<'w> {
    fn new(
        miner: &'w TreatmentMiner<'w>,
        subpop: &'w BitSet,
        k: usize,
        dirs: &'w [Direction],
        workers: usize,
        guard: &'w RunGuard,
    ) -> Self {
        WalkState {
            miner,
            subpop,
            k: k.max(1),
            dirs,
            workers,
            guard,
            contexts: ContextCache::new(),
            local: None,
            min_cate: miner.opts.min_abs_cate_frac * miner.outcome_std,
            dir_idx: 0,
            fresh: true,
            stopped: false,
            level: Vec::new(),
            level_no: 0,
            best: Vec::new(),
            evaluated: 0,
            downdates: 0,
            regathers: 0,
            max_levels: 0,
            outputs: Vec::new(),
            level1: None,
        }
    }

    /// Does the walk cache aux (confounder key + optional moments) on
    /// kept nodes? Requires the regression backend — IPW has no cached
    /// moments to downdate.
    fn store_aux(&self) -> bool {
        self.miner.opts.cate_opts.backend == EstimatorBackend::Regression
    }

    /// Does the walk track treatment moments and downdate subset
    /// candidates? Only in FastV1: FP subtraction cannot replay the Exact
    /// contract's fold order, so Exact always regathers.
    fn track_moments(&self) -> bool {
        self.store_aux() && self.miner.opts.cate_opts.numeric_mode == NumericMode::FastV1
    }

    /// Serially decide, per candidate, whether its treatment blocks come
    /// from a parent downdate or a full gather, and count the choices.
    /// Runs once per level in both the fanned and the serial path (before
    /// any evaluation), so plans and counters depend only on the walk
    /// structure — never on worker count.
    fn plan_level(&mut self, cands: &[Cand], keys: &[Vec<usize>]) -> Vec<Option<DowndatePlan>> {
        if !self.store_aux() {
            return Vec::new();
        }
        let mut plans = Vec::with_capacity(cands.len());
        for (cand, key) in cands.iter().zip(keys) {
            let plan = cand.parent.and_then(|pi| {
                let parent = &self.level[pi as usize];
                let aux = parent.aux.as_ref()?;
                // The parent's moments are tᵀZ over *its* confounder
                // key's design columns — only a child adjusting for the
                // identical set can reuse them.
                if aux.key != *key {
                    return None;
                }
                // Size guard: when the child dropped more rows than it
                // kept, a direct gather is cheaper than the subtraction
                // (and accumulates less downdate rounding).
                let removed = parent.count.checked_sub(cand.count)?;
                if removed > cand.count {
                    return None;
                }
                aux.moments.as_ref()?;
                Some(DowndatePlan {
                    parent: Arc::clone(aux),
                    removed: parent.mask.difference(&cand.mask),
                })
            });
            match (&plan, cand.parent) {
                (Some(_), _) => self.downdates += 1,
                (None, Some(_)) => self.regathers += 1,
                (None, None) => {}
            }
            plans.push(plan);
        }
        plans
    }

    /// The subpopulation-local atom projection, built on first use and
    /// shared across levels and directions (and with in-flight batches).
    fn space(&mut self) -> Arc<LocalSpace> {
        let (subpop, atoms) = (self.subpop, &self.miner.atoms);
        Arc::clone(
            self.local
                .get_or_insert_with(|| Arc::new(LocalSpace::new(subpop, atoms))),
        )
    }

    /// Drive the walk forward until it either needs a level estimated
    /// (returns the prepared batch to fan out) or has finished every
    /// direction (returns `None`; call `finalize`).
    fn pump(&mut self) -> Option<Arc<LevelBatch>> {
        let cands = self.next_cands()?;
        Some(self.prepare_batch(cands))
    }

    /// The serial core of `pump`: generate the next level's candidates
    /// (Apriori joins, direction switches). Levels with no candidates
    /// are absorbed inline — `evaluate` of an empty level is the
    /// identity — so direction switches never round-trip through the
    /// scheduler. `None` when every direction has finished. The serial
    /// fast path calls this directly and evaluates the candidates
    /// inline, skipping `prepare_batch`'s fan-out freezing entirely.
    fn next_cands(&mut self) -> Option<Vec<Cand>> {
        while self.dir_idx < self.dirs.len() {
            let cands = if self.fresh {
                let cands = self.level1_cands();
                if let Some((keys, results)) = self.level1.take() {
                    // A later direction: level 1 was estimated by the
                    // first one.
                    self.absorb(&cands, &keys, results);
                    continue;
                }
                cands
            } else if !self.stopped
                && !self.level.is_empty()
                && self.level_no < self.miner.opts.max_level
            {
                self.join_cands()
            } else {
                self.finish_dir();
                continue;
            };
            if cands.is_empty() {
                self.absorb(&[], &[], Vec::new());
                continue;
            }
            return Some(cands);
        }
        None
    }

    /// The 1-based lattice level the next evaluation belongs to.
    fn pending_level(&self) -> usize {
        if self.fresh {
            1
        } else {
            self.level_no + 1
        }
    }

    /// Serial-fast-path evaluation of one level: confounder lookups,
    /// context builds and estimates interleave per candidate, in
    /// candidate order — the same order `prepare_batch` + `eval_chunk`
    /// produce, so results, memo walks and `builds()` accounting are
    /// bit-identical to the fanned-out path. Guard checks and fault
    /// injection fire at the chunk boundaries a one-worker fan-out
    /// would have used.
    fn eval_level_inline(
        &mut self,
        cands: &[Cand],
        pattern: usize,
        injector: Option<&FaultInjector>,
    ) -> Result<(Vec<Vec<usize>>, Vec<EvalRes>), MineError> {
        let miner = self.miner;
        let level = self.pending_level();
        // Keys and downdate plans derive serially up front, in candidate
        // order — the identical sequence of memo lookups (and counter
        // increments) `prepare_batch` performs for the fanned path.
        let keys: Vec<Vec<usize>> = cands
            .iter()
            .map(|c| {
                let attrs: Vec<usize> = c
                    .atoms
                    .iter()
                    .map(|&x| miner.atoms[x as usize].attr)
                    .collect();
                miner.confounders_for(&attrs)
            })
            .collect();
        let plans = self.plan_level(cands, &keys);
        let track = self.track_moments();
        let ranges = sched::chunk_ranges(cands.len(), 1, MIN_CHUNK);
        let mut results = Vec::with_capacity(cands.len());
        for (chunk, range) in ranges.iter().enumerate() {
            if let Some(inj) = injector {
                inj.at(
                    FaultSite {
                        pattern,
                        level,
                        chunk,
                    },
                    self.guard,
                    || {},
                );
            }
            if let Err(trip) = self.guard.check() {
                return Err(trip_error(trip, self.guard.progress()));
            }
            for i in range.clone() {
                let r = self
                    .contexts
                    .get_or_build(
                        miner.table,
                        Some(self.subpop),
                        miner.outcome,
                        keys[i].clone(),
                        &miner.opts.cate_opts,
                    )
                    .and_then(|ctx| {
                        eval_cached(ctx, &cands[i], plans.get(i).and_then(|p| p.as_ref()), track)
                    });
                results.push(r);
            }
        }
        Ok((keys, results))
    }

    /// Level 1: all atoms (GenChildren, lines 2–4). Overlap precheck on
    /// local popcounts before paying for a regression.
    fn level1_cands(&mut self) -> Vec<Cand> {
        let space = self.space();
        let sub_n = space.projector.len();
        let min_arm = self.miner.opts.cate_opts.min_arm;
        space
            .atoms_local
            .iter()
            .enumerate()
            .filter_map(|(ai, local_mask)| {
                let treated_in_sub = local_mask.count();
                if treated_in_sub < min_arm || sub_n - treated_in_sub < min_arm {
                    return None;
                }
                Some(Cand {
                    atoms: vec![ai as u16],
                    mask: local_mask.clone(),
                    count: treated_in_sub,
                    parent: None,
                })
            })
            .collect()
    }

    /// Levels 2..: expand only children whose parents all survived. The
    /// joins, dedup, parent checks and overlap prechecks are serial per
    /// pattern (they mutate the frontier), exactly as in the reference
    /// walk.
    fn join_cands(&mut self) -> Vec<Cand> {
        let miner = self.miner;
        let space = self.space();
        let sub_n = space.projector.len();
        let min_arm = miner.opts.cate_opts.min_arm;
        let level = &self.level;
        let kept: HashSet<Vec<u16>> = level.iter().map(|n| n.atoms.clone()).collect();
        let mut seen: HashSet<Vec<u16>> = HashSet::new();
        let lvl = self.level_no;
        let mut cands: Vec<Cand> = Vec::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                let (a, b) = (&level[i], &level[j]);
                if a.atoms[..lvl - 1] != b.atoms[..lvl - 1] {
                    continue;
                }
                let (la, lb) = (a.atoms[lvl - 1], b.atoms[lvl - 1]);
                if !miner.atoms_compatible(la as usize, lb as usize) {
                    continue;
                }
                let mut cand = a.atoms.clone();
                cand.push(lb);
                cand.sort_unstable();
                if !seen.insert(cand.clone()) {
                    continue;
                }
                // All parents (drop-one subsets) must have been kept.
                if !all_parents_kept(&cand, &kept) {
                    continue;
                }
                let mut mask = a.mask.clone();
                mask.intersect_with(&b.mask);
                let treated_in_sub = mask.count();
                if treated_in_sub < min_arm || sub_n - treated_in_sub < min_arm {
                    continue;
                }
                // The child's rowset is a subset of both join parents;
                // record the smaller one — fewer removed rows to subtract
                // if the level gets downdated.
                let parent = if a.count <= b.count { i } else { j } as u32;
                cands.push(Cand {
                    atoms: cand,
                    mask,
                    count: treated_in_sub,
                    parent: Some(parent),
                });
            }
        }
        cands
    }

    /// Freeze one level for fan-out: memoized backdoor lookups and
    /// context builds run here, serially and in candidate order, so
    /// `builds()` accounting and memo walks are identical to the serial
    /// path; chunk tasks then only read.
    fn prepare_batch(&mut self, cands: Vec<Cand>) -> Arc<LevelBatch> {
        let miner = self.miner;
        let level = self.pending_level();
        let keys: Vec<Vec<usize>> = cands
            .iter()
            .map(|c| {
                let attrs: Vec<usize> = c
                    .atoms
                    .iter()
                    .map(|&x| miner.atoms[x as usize].attr)
                    .collect();
                miner.confounders_for(&attrs)
            })
            .collect();
        let ctx: Vec<Option<Arc<EstimationContext>>> = keys
            .iter()
            .map(|key| {
                let _ = self.contexts.get_or_build(
                    miner.table,
                    Some(self.subpop),
                    miner.outcome,
                    key.clone(),
                    &miner.opts.cate_opts,
                );
                self.contexts.get_shared(key)
            })
            .collect();
        let plans = self.plan_level(&cands, &keys);
        let ranges = sched::chunk_ranges(cands.len(), self.workers, MIN_CHUNK);
        let slots = sched::ChunkSlots::new(ranges.len());
        Arc::new(LevelBatch {
            level,
            cands,
            keys,
            ctx,
            plans,
            track: self.track_moments(),
            ranges,
            slots,
        })
    }

    /// Replay the serial post-level logic on index-merged results: the
    /// direction/near-zero filter in candidate order, the work counters
    /// (every candidate counts — failed estimates are work), per-level
    /// retention, best-k updates and the lines-10–13 termination test.
    fn absorb(&mut self, cands: &[Cand], keys: &[Vec<usize>], results: Vec<EvalRes>) {
        debug_assert_eq!(cands.len(), results.len());
        debug_assert_eq!(cands.len(), keys.len());
        if self.fresh && self.dir_idx == 0 && self.dirs.len() > 1 {
            self.level1 = Some((keys.to_vec(), results.clone()));
        }
        let dir = self.dirs[self.dir_idx];
        let opts = &self.miner.opts;
        let store_aux = self.store_aux();
        self.evaluated += cands.len();
        // Progress diagnostics for guard trips: evaluations and levels
        // aggregate across all pattern walks of the query.
        self.guard.add_evaluations(cands.len());
        self.guard.level_completed();
        let mut nodes: Vec<Node> = cands
            .iter()
            .zip(keys)
            .zip(results)
            .filter_map(|((cand, key), r)| {
                let (r, moments) = r?;
                if !dir.matches(r.cate) || r.cate.abs() < self.min_cate {
                    return None;
                }
                Some(Node {
                    atoms: cand.atoms.clone(),
                    mask: cand.mask.clone(),
                    count: cand.count,
                    cate: r.cate,
                    p: r.p,
                    n_treated: r.n_treated,
                    n_control: r.n_control,
                    aux: store_aux.then(|| {
                        Arc::new(NodeAux {
                            key: key.clone(),
                            moments,
                        })
                    }),
                })
            })
            .collect();
        retain_top(&mut nodes, dir, opts.top_frac, opts.min_keep, |n| n.cate);
        if self.fresh {
            self.fresh = false;
            self.level_no = 1;
            // Level 1 seeds the best list; improvement is not yet a
            // termination signal.
            for i in 0..nodes.len() {
                self.update_best(&nodes[i]);
            }
            self.level = nodes;
        } else {
            if nodes.is_empty() {
                self.stopped = true;
                return;
            }
            self.level_no += 1;
            let mut improved = false;
            for i in 0..nodes.len() {
                improved |= self.update_best(&nodes[i]);
            }
            self.level = nodes;
            // Lines 10–13: stop at the first level that does not improve
            // on the recorded maximum.
            if !improved {
                self.stopped = true;
            }
        }
    }

    /// Offer `node` to the current direction's best-k list (see
    /// [`insert_best`]); returns whether it became the new top entry.
    fn update_best(&mut self, node: &Node) -> bool {
        let dir = self.dirs[self.dir_idx];
        let contexts = &self.contexts;
        insert_best(
            &mut self.best,
            self.k,
            dir,
            self.miner.opts.max_p_value,
            node,
            |n| n.p_value(contexts),
        )
    }

    /// Close out the current direction: materialize its best-k patterns,
    /// fold its level count into the paired maximum, and reset the
    /// frontier for the next direction (which restarts at level 1 over
    /// the same shared cache).
    fn finish_dir(&mut self) {
        let miner = self.miner;
        let result: Vec<TreatmentResult> = self
            .best
            .drain(..)
            .map(|b| TreatmentResult {
                pattern: miner.pattern_of(&b.atoms),
                cate: b.cate,
                p_value: b.p_value(&self.contexts),
                n_treated: b.n_treated,
                n_control: b.n_control,
            })
            .collect();
        self.outputs.push(result);
        self.max_levels = self.max_levels.max(self.level_no);
        self.dir_idx += 1;
        self.fresh = true;
        self.stopped = false;
        self.level.clear();
        self.level_no = 0;
    }

    /// Assemble the paired summary; `contexts_built` is attributed once,
    /// after both directions, exactly like the old shared-cache walk.
    fn finalize(&mut self) -> PairedTreatments {
        debug_assert_eq!(self.outputs.len(), self.dirs.len());
        let mut positive = Vec::new();
        let mut negative = Vec::new();
        for (dir, out) in self.dirs.iter().zip(self.outputs.drain(..)) {
            match dir {
                Direction::Positive => positive = out,
                Direction::Negative => negative = out,
            }
        }
        PairedTreatments {
            positive,
            negative,
            stats: LatticeStats {
                evaluated: self.evaluated,
                levels: self.max_levels,
                contexts_built: self.contexts.builds(),
                downdates: self.downdates,
                regathers: self.regathers,
            },
        }
    }
}

/// Algorithm 2's best-k bookkeeping: insert `node` into the best-first
/// list `best` (at most `k ≥ 1` entries) when it ranks within the top `k`
/// and is significant (`p <= max_p`, so a NaN p-value never is). Returns
/// whether the *top* entry improved — the termination criterion of lines
/// 10–13 watches only the recorded maximum.
///
/// `p_value` runs only for a node that would land within the top `k`. A
/// node that would not cannot beat the top entry either (`k ≥ 1`), so
/// reading its p-value first — the rule this replaces — reaches the same
/// list and the same return value. Entries are stored with their p-value
/// known.
fn insert_best(
    best: &mut Vec<Node>,
    k: usize,
    dir: Direction,
    max_p: f64,
    node: &Node,
    p_value: impl FnOnce(&Node) -> f64,
) -> bool {
    let pos = best
        .iter()
        .position(|b| dir.better(node.cate, b.cate))
        .unwrap_or(best.len());
    if pos >= k {
        return false;
    }
    let p = p_value(node);
    if p <= max_p {
        let mut entry = node.clone();
        entry.p = PValue::Known(p);
        best.insert(pos, entry);
        best.truncate(k);
        pos == 0
    } else {
        false
    }
}

fn all_parents_kept(cand: &[u16], kept: &HashSet<Vec<u16>>) -> bool {
    for drop in 0..cand.len() {
        let mut sub = cand.to_vec();
        sub.remove(drop);
        if !kept.contains(&sub) {
            return false;
        }
    }
    true
}

/// Keep the top `frac` of nodes by CATE in the requested direction, but at
/// least `min_keep` (so small levels still feed the next join).
fn retain_top<N>(
    level: &mut Vec<N>,
    dir: Direction,
    frac: f64,
    min_keep: usize,
    cate: impl Fn(&N) -> f64,
) {
    if level.is_empty() {
        return;
    }
    // `total_cmp` instead of `partial_cmp().unwrap()`: NaN/zero CATEs are
    // filtered out before this sort (`Direction::matches` rejects both),
    // so the orderings coincide — but a NaN slipping through must not
    // panic the walk.
    match dir {
        Direction::Positive => level.sort_by(|a, b| cate(b).total_cmp(&cate(a))),
        Direction::Negative => level.sort_by(|a, b| cate(a).total_cmp(&cate(b))),
    }
    let keep = ((level.len() as f64 * frac).ceil() as usize).max(min_keep.max(1));
    level.truncate(keep.min(level.len()));
}

/// Build the atomic predicate space over the effective treatment attrs.
fn build_atoms(table: &Table, attrs: &[usize], opts: &LatticeOptions) -> Vec<Atom> {
    let mut atoms = Vec::new();
    for &attr in attrs {
        match table.column(attr) {
            Column::Cat { codes, dict } => {
                // Most frequent levels first, capped.
                let mut freq = vec![0usize; dict.len()];
                for &c in codes {
                    freq[c as usize] += 1;
                }
                let mut levels: Vec<usize> = (0..dict.len()).collect();
                levels.sort_by_key(|&l| std::cmp::Reverse(freq[l]));
                for &l in levels.iter().take(opts.max_atoms_per_attr) {
                    if freq[l] == 0 {
                        continue;
                    }
                    let mut mask = BitSet::new(table.nrows());
                    for (row, &c) in codes.iter().enumerate() {
                        if c as usize == l {
                            mask.insert(row);
                        }
                    }
                    atoms.push(Atom {
                        pred: Pred::eq(attr, dict.value(l as u32)),
                        attr,
                        kind: AtomKind::Eq,
                        mask,
                    });
                }
            }
            col @ (Column::Int(_) | Column::Float(_)) => {
                let vals: Vec<f64> = (0..table.nrows()).map(|r| col.get_f64(r)).collect();
                let distinct = col.n_distinct();
                if distinct <= opts.numeric_bins.max(6) {
                    // Small integer-like domain: equality atoms.
                    let mut uniq: Vec<f64> = vals.clone();
                    // NaN-total sort: ingest pre-validates numeric cells,
                    // but a NaN must not abort the whole query.
                    uniq.sort_by(|a, b| a.total_cmp(b));
                    uniq.dedup();
                    for v in uniq.into_iter().take(opts.max_atoms_per_attr) {
                        let mut mask = BitSet::new(table.nrows());
                        for (row, &x) in vals.iter().enumerate() {
                            if x == v {
                                mask.insert(row);
                            }
                        }
                        let value = match col {
                            Column::Int(_) => Scalar::Int(v as i64),
                            _ => Scalar::Float(v),
                        };
                        atoms.push(Atom {
                            pred: Pred {
                                attr,
                                op: Op::Eq,
                                value,
                            },
                            attr,
                            kind: AtomKind::Eq,
                            mask,
                        });
                    }
                } else {
                    // Quantile thresholds: attr < q (Upper) and attr ≥ q
                    // (Lower) per internal cut point.
                    let mut sorted = vals.clone();
                    sorted.sort_by(|a, b| a.total_cmp(b));
                    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
                    let mut cuts: Vec<f64> = (1..opts.numeric_bins)
                        .map(|i| {
                            let idx = i * sorted.len() / opts.numeric_bins;
                            sorted[idx.min(sorted.len() - 1)]
                        })
                        .filter(|&q| q > lo) // cut at the min is degenerate
                        .collect();
                    cuts.dedup();
                    if cuts.is_empty() && lo < hi {
                        // Zero-inflated / heavily skewed column: every
                        // quantile collapsed onto the minimum. Split at
                        // the mean instead.
                        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                        if mean > lo && mean <= hi {
                            cuts.push(mean);
                        }
                    }
                    for q in cuts {
                        let value = match col {
                            Column::Int(_) => Scalar::Int(q as i64),
                            _ => Scalar::Float(q),
                        };
                        let mut lower = BitSet::new(table.nrows());
                        let mut upper = BitSet::new(table.nrows());
                        for (row, &x) in vals.iter().enumerate() {
                            if x >= q {
                                lower.insert(row);
                            } else {
                                upper.insert(row);
                            }
                        }
                        atoms.push(Atom {
                            pred: Pred {
                                attr,
                                op: Op::Ge,
                                value: value.clone(),
                            },
                            attr,
                            kind: AtomKind::Lower,
                            mask: lower,
                        });
                        atoms.push(Atom {
                            pred: Pred {
                                attr,
                                op: Op::Lt,
                                value,
                            },
                            attr,
                            kind: AtomKind::Upper,
                            mask: upper,
                        });
                    }
                }
            }
        }
    }
    atoms
}

fn column_std(col: &Column) -> f64 {
    let n = col.len();
    if n < 2 {
        return 0.0;
    }
    let vals: Vec<f64> = (0..n).map(|r| col.get_f64(r)).collect();
    let mean = vals.iter().sum::<f64>() / n as f64;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use table::TableBuilder;

    /// Synthetic data in the spirit of the paper's accuracy study:
    /// O = 10·[T1=hi] − 8·[T2=hi] + noise; attrs T3 is pure noise.
    fn synth(n: usize, seed: u64) -> (Table, Dag) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        let mut t3 = Vec::new();
        let mut o = Vec::new();
        for _ in 0..n {
            let a = if rng.gen_bool(0.5) { "hi" } else { "lo" };
            let b = if rng.gen_bool(0.5) { "hi" } else { "lo" };
            let c = if rng.gen_bool(0.5) { "x" } else { "y" };
            let noise: f64 = rng.gen_range(-0.5..0.5);
            o.push(10.0 * (a == "hi") as i64 as f64 - 8.0 * (b == "hi") as i64 as f64 + noise);
            t1.push(a.to_string());
            t2.push(b.to_string());
            t3.push(c.to_string());
        }
        let table = TableBuilder::new()
            .cat_owned("t1", t1)
            .unwrap()
            .cat_owned("t2", t2)
            .unwrap()
            .cat_owned("t3", t3)
            .unwrap()
            .float("o", o)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(&["t1", "t2", "t3", "o"], &[("t1", "o"), ("t2", "o")]).unwrap();
        (table, dag)
    }

    /// One serial single-direction walk: the best `k` treatments of
    /// `subpop` in direction `dir`, with the walk's counters.
    fn walk(
        miner: &TreatmentMiner<'_>,
        subpop: &BitSet,
        dir: Direction,
        k: usize,
    ) -> (Vec<TreatmentResult>, LatticeStats) {
        let mut out = miner
            .mine_walks(&[subpop], k, &[dir], 1, &RunGuard::unlimited())
            .expect("an unguarded walk without faults succeeds");
        let paired = out.pop().expect("one subpopulation in, one result out");
        let list = match dir {
            Direction::Positive => paired.positive,
            Direction::Negative => paired.negative,
        };
        (list, paired.stats)
    }

    /// The single best treatment of `subpop` in direction `dir`.
    fn top(
        miner: &TreatmentMiner<'_>,
        subpop: &BitSet,
        dir: Direction,
    ) -> (Option<TreatmentResult>, LatticeStats) {
        let (mut list, stats) = walk(miner, subpop, dir, 1);
        (list.pop(), stats)
    }

    /// The paired walk through the public entry point.
    fn mine_paired(
        miner: &TreatmentMiner<'_>,
        subpop: &BitSet,
        k: usize,
        mine_negative: bool,
        threads: usize,
    ) -> PairedTreatments {
        miner
            .mine_paired_many_guarded(&[subpop], k, mine_negative, threads, &RunGuard::unlimited())
            .expect("an unguarded walk without faults succeeds")
            .pop()
            .expect("one subpopulation in, one result out")
    }

    #[test]
    fn finds_best_positive_and_negative_atoms() {
        let (table, dag) = synth(2000, 42);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], LatticeOptions::default());
        let subpop = BitSet::full(table.nrows());
        let (pos, _) = top(&miner, &subpop, Direction::Positive);
        let pos = pos.expect("positive treatment must exist");
        assert!(
            pos.pattern.display(&table).contains("t1 = hi"),
            "got {}",
            pos.pattern.display(&table)
        );
        assert!(pos.cate > 8.0, "cate = {}", pos.cate);

        // The most negative treatment is t1 = lo (CATE ≈ −10), possibly
        // strengthened by conjunction with t2 = hi.
        let (neg, _) = top(&miner, &subpop, Direction::Negative);
        let neg = neg.expect("negative treatment must exist");
        assert!(
            neg.pattern.display(&table).contains("t1 = lo"),
            "got {}",
            neg.pattern.display(&table)
        );
        assert!(neg.cate < -8.0);
    }

    #[test]
    fn dag_pruning_drops_noncausal_attr() {
        let (table, dag) = synth(500, 7);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], LatticeOptions::default());
        let attrs = miner.effective_attrs();
        assert!(
            !attrs.contains(&2),
            "t3 has no path to o and must be pruned"
        );
        assert_eq!(attrs, vec![0, 1]);
    }

    #[test]
    fn compound_treatment_found_at_level_two() {
        // O = 5 only when t1=hi AND t2=hi (interaction), plus small noise.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 3000;
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        let mut o = Vec::new();
        for _ in 0..n {
            let a = rng.gen_bool(0.5);
            let b = rng.gen_bool(0.5);
            let noise: f64 = rng.gen_range(-0.2..0.2);
            t1.push(if a { "hi" } else { "lo" }.to_string());
            t2.push(if b { "hi" } else { "lo" }.to_string());
            // Both single treatments have positive marginal effect, the
            // conjunction has the largest.
            o.push(
                1.5 * a as i64 as f64
                    + 1.5 * b as i64 as f64
                    + 5.0 * (a && b) as i64 as f64
                    + noise,
            );
        }
        let table = TableBuilder::new()
            .cat_owned("t1", t1)
            .unwrap()
            .cat_owned("t2", t2)
            .unwrap()
            .float("o", o)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(&["t1", "t2", "o"], &[("t1", "o"), ("t2", "o")]).unwrap();
        let miner = TreatmentMiner::new(&table, &dag, 2, &[0, 1], LatticeOptions::default());
        let subpop = BitSet::full(n);
        let (best, stats) = top(&miner, &subpop, Direction::Positive);
        let best = best.unwrap();
        assert_eq!(
            best.pattern.len(),
            2,
            "got {}",
            best.pattern.display(&table)
        );
        assert!(stats.levels >= 2);
    }

    #[test]
    fn numeric_threshold_atoms() {
        // O jumps when age < 35.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let age: Vec<i64> = (0..n).map(|_| rng.gen_range(18..70)).collect();
        let o: Vec<f64> = age
            .iter()
            .map(|&a| if a < 35 { 10.0 } else { 0.0 } + rng.gen_range(-0.5..0.5))
            .collect();
        let table = TableBuilder::new()
            .int("age", age)
            .unwrap()
            .float("o", o)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(&["age", "o"], &[("age", "o")]).unwrap();
        let opts = LatticeOptions {
            numeric_bins: 6,
            ..Default::default()
        };
        let miner = TreatmentMiner::new(&table, &dag, 1, &[0], opts);
        assert!(miner.num_atoms() > 0);
        let subpop = BitSet::full(n);
        let (best, _) = top(&miner, &subpop, Direction::Positive);
        let best = best.unwrap();
        let disp = best.pattern.display(&table);
        assert!(disp.contains("age <"), "got {disp}");
        assert!(best.cate > 5.0);
    }

    #[test]
    fn subpopulation_changes_answer() {
        // Effect of t1 is positive in stratum A, negative in stratum B.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4000;
        let mut grp = Vec::new();
        let mut t1 = Vec::new();
        let mut o = Vec::new();
        for i in 0..n {
            let in_a = i % 2 == 0;
            let t = rng.gen_bool(0.5);
            grp.push(if in_a { "A" } else { "B" }.to_string());
            t1.push(if t { "yes" } else { "no" }.to_string());
            let eff = if in_a { 6.0 } else { -6.0 };
            o.push(eff * t as i64 as f64 + rng.gen_range(-0.3..0.3));
        }
        let table = TableBuilder::new()
            .cat_owned("grp", grp)
            .unwrap()
            .cat_owned("t1", t1)
            .unwrap()
            .float("o", o)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(&["grp", "t1", "o"], &[("grp", "o"), ("t1", "o")]).unwrap();
        let miner = TreatmentMiner::new(&table, &dag, 2, &[1], LatticeOptions::default());
        let sub_a = BitSet::from_mask(&(0..n).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let sub_b = BitSet::from_mask(&(0..n).map(|i| i % 2 == 1).collect::<Vec<_>>());
        let (pa, _) = top(&miner, &sub_a, Direction::Positive);
        let (pb, _) = top(&miner, &sub_b, Direction::Negative);
        let pa = pa.unwrap();
        let pb = pb.unwrap();
        assert!(pa.cate > 4.0 && pa.pattern.display(&table).contains("t1 = yes"));
        assert!(pb.cate < -4.0 && pb.pattern.display(&table).contains("t1 = yes"));
    }

    #[test]
    fn brute_force_superset_of_greedy_best() {
        let (table, dag) = synth(1500, 13);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], LatticeOptions::default());
        let subpop = BitSet::full(table.nrows());
        let all = miner.all_treatments(&subpop, 2);
        assert!(!all.is_empty());
        let brute_best = all
            .iter()
            .max_by(|a, b| a.cate.partial_cmp(&b.cate).unwrap())
            .unwrap();
        let (greedy, _) = top(&miner, &subpop, Direction::Positive);
        let greedy = greedy.unwrap();
        // Greedy may be suboptimal but on this easy instance should match.
        assert!((brute_best.cate - greedy.cate).abs() < 1.0);
    }

    #[test]
    fn top_k_sorted_and_distinct() {
        let (table, dag) = synth(2000, 42);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], LatticeOptions::default());
        let subpop = BitSet::full(table.nrows());
        let (top3, _) = walk(&miner, &subpop, Direction::Positive, 3);
        assert!(top3.len() >= 2, "multiple positive treatments exist");
        for w in top3.windows(2) {
            assert!(w[0].cate >= w[1].cate, "must be sorted best-first");
        }
        let keys: std::collections::HashSet<String> =
            top3.iter().map(|t| t.pattern.key()).collect();
        assert_eq!(keys.len(), top3.len(), "patterns must be distinct");
        // #1 of top-k equals the single top treatment.
        let (single, _) = top(&miner, &subpop, Direction::Positive);
        assert_eq!(single.unwrap().pattern.key(), top3[0].pattern.key());
    }

    /// The paired walk must return exactly what two independent directed
    /// walks return — the negative direction absorbs the positive one's
    /// level-1 estimates instead of re-running them — on every estimate
    /// path (Exact, FastV1 with downdating, IPW) and on both the serial
    /// and the fanned scheduler path, while building each estimation
    /// context only once.
    #[test]
    fn paired_walk_matches_independent_walks() {
        let (table, dag) = synth(2000, 42);
        let subpop = BitSet::full(table.nrows());
        let with_cate = |cate_opts: CateOptions| LatticeOptions {
            cate_opts,
            ..LatticeOptions::default()
        };
        let cases = [
            ("exact", LatticeOptions::default()),
            (
                "fast_v1",
                with_cate(CateOptions {
                    numeric_mode: NumericMode::FastV1,
                    ..CateOptions::default()
                }),
            ),
            (
                "ipw",
                with_cate(CateOptions {
                    backend: EstimatorBackend::Ipw,
                    ..CateOptions::default()
                }),
            ),
        ];
        let bits = |ts: &[TreatmentResult]| -> Vec<(String, u64, u64, usize, usize)> {
            ts.iter()
                .map(|t| {
                    (
                        t.pattern.key(),
                        t.cate.to_bits(),
                        t.p_value.to_bits(),
                        t.n_treated,
                        t.n_control,
                    )
                })
                .collect()
        };
        for (name, opts) in cases {
            let fast = opts.cate_opts.numeric_mode == NumericMode::FastV1;
            let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], opts);
            let (pos, s_pos) = walk(&miner, &subpop, Direction::Positive, 3);
            let (neg, s_neg) = walk(&miner, &subpop, Direction::Negative, 3);
            assert!(
                !pos.is_empty() && !neg.is_empty(),
                "{name}: both directions find treatments"
            );
            assert!(
                s_pos.levels >= 2,
                "{name}: the walk gets past the shared level 1"
            );
            if fast {
                assert!(
                    s_pos.downdates + s_neg.downdates > 0,
                    "{name}: downdates exercised"
                );
            }
            for threads in [1, 4] {
                let case = format!("{name}, {threads} threads");
                let paired = mine_paired(&miner, &subpop, 3, true, threads);
                assert_eq!(bits(&paired.positive), bits(&pos), "{case}: positive");
                assert_eq!(bits(&paired.negative), bits(&neg), "{case}: negative");
                let st = paired.stats;
                assert_eq!(st.evaluated, s_pos.evaluated + s_neg.evaluated, "{case}");
                assert_eq!(st.levels, s_pos.levels.max(s_neg.levels), "{case}");
                assert_eq!(st.downdates, s_pos.downdates + s_neg.downdates, "{case}");
                assert_eq!(st.regathers, s_pos.regathers + s_neg.regathers, "{case}");
                // Shared contexts: strictly fewer builds than the two
                // independent walks combined (both directions touch the
                // same backdoor sets on this data).
                assert!(
                    st.contexts_built >= 1
                        && st.contexts_built < s_pos.contexts_built + s_neg.contexts_built,
                    "{case}: paired {} vs {} + {}",
                    st.contexts_built,
                    s_pos.contexts_built,
                    s_neg.contexts_built
                );
            }
        }
    }

    #[test]
    fn paired_walk_without_negative() {
        let (table, dag) = synth(1000, 8);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1, 2], LatticeOptions::default());
        let subpop = BitSet::full(table.nrows());
        let paired = mine_paired(&miner, &subpop, 1, false, 1);
        assert!(!paired.positive.is_empty());
        assert!(paired.negative.is_empty());
    }

    /// Two miners sharing one memo: the second miner's walks are all hits.
    #[test]
    fn shared_backdoor_memo_walks_once() {
        let (table, dag) = synth(800, 5);
        let memo = Arc::new(BackdoorMemo::new());
        let a = TreatmentMiner::with_memo(
            &table,
            &dag,
            3,
            &[0, 1, 2],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
        let _ = a.confounders_for(&[0]);
        let _ = a.confounders_for(&[0, 1]);
        let walks = memo.walks();
        assert_eq!(walks, 2);
        let b = TreatmentMiner::with_memo(
            &table,
            &dag,
            3,
            &[0, 1, 2],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
        assert_eq!(b.confounders_for(&[0]), a.confounders_for(&[0]));
        assert_eq!(memo.walks(), walks, "second miner hits the shared memo");
        // A different outcome is a different key — it must re-walk.
        let c = TreatmentMiner::with_memo(
            &table,
            &dag,
            2,
            &[0, 1],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
        let _ = c.confounders_for(&[0]);
        assert_eq!(memo.walks(), walks + 1);
    }

    #[test]
    #[should_panic(expected = "BackdoorMemo shared across different DAGs")]
    fn shared_memo_rejects_foreign_dag() {
        let (table, dag) = synth(200, 2);
        let other = Dag::new(&["t1", "t2", "t3", "o"], &[("t2", "o")]).unwrap();
        let memo = Arc::new(BackdoorMemo::new());
        let _a = TreatmentMiner::with_memo(
            &table,
            &dag,
            3,
            &[0, 1],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
        let _b = TreatmentMiner::with_memo(
            &table,
            &other,
            3,
            &[0, 1],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
    }

    /// A bare node with a known p-value, for the best-list tests.
    fn scored(cate: f64, p: f64) -> Node {
        Node {
            atoms: Vec::new(),
            mask: BitSet::new(0),
            count: 0,
            cate,
            p: PValue::Known(p),
            n_treated: 0,
            n_control: 0,
            aux: None,
        }
    }

    fn known_p(n: &Node) -> f64 {
        match n.p {
            PValue::Known(p) => p,
            PValue::Deferred(_) => panic!("test nodes carry known p-values"),
        }
    }

    /// A NaN p-value (df ≤ 0 or a zero standard error) is not
    /// significant: the node stays out of the best list, exactly as the
    /// brute-force path's `p_value <= max_p_value` filter drops it.
    #[test]
    fn nan_p_value_is_not_significant() {
        let mut best = Vec::new();
        let dir = Direction::Positive;
        assert!(!insert_best(
            &mut best,
            3,
            dir,
            0.05,
            &scored(4.0, f64::NAN),
            known_p
        ));
        assert!(best.is_empty());
        assert!(insert_best(
            &mut best,
            3,
            dir,
            0.05,
            &scored(2.0, 0.01),
            known_p
        ));
        assert!(!insert_best(
            &mut best,
            3,
            dir,
            0.05,
            &scored(5.0, f64::NAN),
            known_p
        ));
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].cate, 2.0);
        // The bound itself is significant.
        assert!(insert_best(
            &mut best,
            3,
            dir,
            0.05,
            &scored(6.0, 0.05),
            known_p
        ));
        assert_eq!(best.len(), 2);
    }

    /// `insert_best` reads p only for a node that can enter the best list.
    /// Run it beside the rule it replaced, which reads p first (with the
    /// NaN fix applied), over random `(cate, p)` sequences with ties and
    /// NaN: the best lists and the improvement flags must be identical.
    #[test]
    fn insert_best_matches_p_first_rule() {
        fn p_first(
            best: &mut Vec<(f64, f64)>,
            k: usize,
            dir: Direction,
            max_p: f64,
            (cate, p): (f64, f64),
        ) -> bool {
            if p.is_nan() || p > max_p {
                return false;
            }
            let improved_top = best.first().is_none_or(|b| dir.better(cate, b.0));
            let pos = best
                .iter()
                .position(|b| dir.better(cate, b.0))
                .unwrap_or(best.len());
            if pos < k {
                best.insert(pos, (cate, p));
                best.truncate(k);
            }
            improved_top
        }
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|(c, p)| (c.to_bits(), p.to_bits())).collect()
        };
        let cates = [-2.0, -1.0, 1.0, 2.0, 2.0, 3.0, f64::NAN];
        let ps = [0.0, 0.01, 0.05, 0.05, 0.5, f64::NAN];
        let max_p = 0.05;
        let mut rng = StdRng::seed_from_u64(14);
        let (mut offered, mut read) = (0usize, 0usize);
        for _ in 0..2_000 {
            let k = rng.gen_range(1usize..5);
            let dir = if rng.gen_bool(0.5) {
                Direction::Positive
            } else {
                Direction::Negative
            };
            let (mut old, mut new): (Vec<(f64, f64)>, Vec<Node>) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(0usize..24) {
                let cate = cates[rng.gen_range(0..cates.len())];
                let p = ps[rng.gen_range(0..ps.len())];
                let rank = new
                    .iter()
                    .position(|b| dir.better(cate, b.cate))
                    .unwrap_or(new.len());
                let want = p_first(&mut old, k, dir, max_p, (cate, p));
                let mut reads = 0;
                let got = insert_best(&mut new, k, dir, max_p, &scored(cate, p), |n| {
                    reads += 1;
                    known_p(n)
                });
                assert_eq!(got, want, "improvement flag for ({cate}, {p})");
                let new_list: Vec<(f64, f64)> = new.iter().map(|n| (n.cate, known_p(n))).collect();
                assert_eq!(bits(&new_list), bits(&old), "best list after ({cate}, {p})");
                assert!(reads <= 1);
                offered += 1;
                read += reads;
                if rank >= k {
                    assert_eq!(reads, 0, "p read for a node ranked below k");
                }
            }
        }
        assert!(read < offered, "no node was skipped: {read} of {offered}");
    }

    #[test]
    fn empty_subpop_yields_none() {
        let (table, dag) = synth(200, 1);
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1], LatticeOptions::default());
        let subpop = BitSet::new(table.nrows());
        let (r, _) = top(&miner, &subpop, Direction::Positive);
        assert!(r.is_none());
    }
}
