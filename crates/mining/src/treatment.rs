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
use std::ops::{Deref, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use causal::backdoor::{attrs_affecting_outcome, backdoor_set};
use causal::context::{
    ConfounderKey, ContextCache, EstimationContext, RegressionFit, SampleMemo, TreatmentMoments,
};
use causal::dag::Dag;
use causal::estimate::{CateOptions, CateResult};
use causal::NumericMode;
use table::bitset::BitSet;
use table::pattern::{Op, Pattern, Pred};
use table::{Column, Scalar, Table};

use crate::apriori::{apriori, FrequentPattern};
use crate::sched;
use crate::sched::faults::FaultSite;
use crate::sched::guard::{MineError, RunGuard};
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
}

impl Default for LatticeOptions {
    fn default() -> Self {
        LatticeOptions {
            max_level: 3,
            top_frac: 0.5,
            min_abs_cate_frac: 0.01,
            max_p_value: 0.05,
            cate_opts: CateOptions::default(),
            numeric_bins: 4,
            max_atoms_per_attr: 16,
            prune_by_dag: true,
        }
    }
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

/// One level-1 candidate as [`TreatmentMiner::level1_estimates`] reports
/// it.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Level1Estimate {
    /// The atom's predicate.
    pub pattern: Pattern,
    /// The atom's rows in the subpopulation: the overlap gate's count.
    pub treated_in_sub: usize,
    /// The backdoor set the estimate adjusts for.
    pub confounders: Vec<usize>,
    /// The fit, where the estimate exists.
    pub fit: Option<RegressionFit>,
    /// The fit's moments, which the walk keeps in `FastV1` only.
    pub moments: Option<TreatmentMoments>,
    /// The treated set the estimate read: the atom's local mask for an
    /// unsampled context, its rows of the sample for a sampled one (empty
    /// when the context failed to build).
    pub treated: BitSet,
    /// The deferred p-value on `treated`, where the estimate exists.
    pub p_value: Option<f64>,
}

/// Work counters, reported by the figure-14 style breakdowns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeStats {
    /// Lattice candidates evaluated, counted per direction. A paired walk
    /// estimates level 1 once for both directions, and that level still
    /// counts in each, so this is the number of candidates each
    /// direction's walk evaluated, not the number of fits run.
    pub evaluated: usize,
    /// Lattice levels materialized: the deepest level at which a
    /// direction kept a node (at least 1), maximized over directions.
    pub levels: usize,
    /// [`causal::context::EstimationContext`]s built — one per distinct
    /// backdoor set touched by the walk(s) sharing the cache.
    pub contexts_built: usize,
    /// Subset candidates whose treatment blocks were derived by
    /// incremental Gram downdating from the parent's cached moments
    /// (FastV1 mode only; always 0 in `Exact` mode, see
    /// [`causal::context::EstimationContext::fit_downdated`]).
    pub downdates: usize,
    /// Subset candidates that were *eligible* for downdating (a kept
    /// parent on the previous level) but took the full-regather fallback
    /// instead — every such candidate in `Exact` mode, plus
    /// key-mismatch/size-guard fallbacks in FastV1.
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
    /// Combined work counters of both directions.
    pub stats: LatticeStats,
}

/// What every miner over one table and DAG shares, whatever its query:
/// the column ↔ DAG-node maps, each outcome's DAG ancestors (built on
/// first use), the interned backdoor sets, per column its standard
/// deviation and its atom blocks (predicates, slots and full-table masks)
/// under each set of atom options, the §5.2(d) sample ranks per `(seed,
/// subpopulation size, cap)` ([`SampleMemo`]), and Apriori's frequent
/// itemsets per grouping-attribute set. A session builds one memo over
/// its table and DAG ([`MinerMemo::new`]) and hands it to every miner it
/// builds ([`TreatmentMiner::with_memo`]), so a miner computes only what
/// no earlier miner over the memo did: a session walks the DAG once per
/// outcome and once per distinct backdoor key, builds at most one block
/// per column and option set, ever, draws each sample once per size, and
/// runs Apriori once per grouping-attribute set, support and length.
///
/// Backdoor sets are keyed by `[outcome, sorted treatment attribute
/// ids…]` and interned: equal sets share one dense id and one
/// `Arc<[usize]>`, as a [`ConfounderKey`], and a walk's [`ContextCache`]
/// is indexed by that id. Lookups read under a shared lock; a miss looks
/// again and computes under the write lock, so concurrent misses on one
/// key compute once between them. `walks`, `blocks_built`,
/// `samples_drawn` and `itemsets_mined` count the misses, which is what
/// session diagnostics report.
///
/// Two of the tables are bounded by constants rather than by the schema:
/// the samples by [`SampleMemo::MAX_RANKS`] ranks, and the itemsets by one
/// entry per grouping-attribute set, replaced when a lookup asks for
/// another support or length.
#[derive(Debug)]
pub struct MinerMemo {
    /// The identity of the memo's table and DAG ([`identity`]).
    identity: Box<[usize]>,
    /// Table attribute → DAG node, matched by name.
    attr_to_dag: Box<[Option<usize>]>,
    /// DAG node → table attribute.
    dag_to_attr: Box<[Option<usize>]>,
    /// One entry per column.
    columns: Box<[ColumnMemo]>,
    backdoor: RwLock<Interned>,
    walks: AtomicUsize,
    built: AtomicUsize,
    /// The sample ranks every walk's panels read; shared (`Arc`) with
    /// each walk's [`ContextCache`].
    samples: Arc<SampleMemo>,
    /// Grouping-attribute set, in the order given → its frequent
    /// itemsets.
    itemsets: RwLock<HashMap<Box<[usize]>, Itemsets>>,
    mined: AtomicUsize,
}

/// Apriori's frequent itemsets over one grouping-attribute set, with the
/// support and length they were mined at.
#[derive(Debug)]
struct Itemsets {
    min_support: usize,
    max_len: usize,
    frequent: Arc<[FrequentPattern]>,
}

/// The memo's backdoor tables.
#[derive(Debug, Default)]
struct Interned {
    /// `[outcome, sorted attribute ids…]` → id of its backdoor set.
    keys: HashMap<Box<[usize]>, usize>,
    /// Backdoor set → its id.
    ids: HashMap<Arc<[usize]>, usize>,
    /// The interned sets, by id.
    sets: Vec<ConfounderKey>,
}

/// The [`LatticeOptions`] fields building an attribute's atoms reads: with
/// the attribute, the key of its block in a [`MinerMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AtomOpts {
    max_atoms_per_attr: usize,
    numeric_bins: usize,
}

impl AtomOpts {
    fn of(opts: &LatticeOptions) -> Self {
        AtomOpts {
            max_atoms_per_attr: opts.max_atoms_per_attr,
            numeric_bins: opts.numeric_bins,
        }
    }
}

/// One column's entry of a [`MinerMemo`].
#[derive(Debug, Default)]
struct ColumnMemo {
    /// The column's standard deviation, for a walk with it as outcome.
    std: OnceLock<f64>,
    /// For a walk with this column as outcome: per column, whether its
    /// DAG node is an ancestor of the outcome's. `None` when the DAG does
    /// not name the outcome.
    ancestors: OnceLock<Option<Box<[bool]>>>,
    /// The column's blocks, one per set of atom options looked up (`None`
    /// when the column yields no atom under them).
    blocks: RwLock<Vec<(AtomOpts, Option<Arc<AttrBlock>>)>>,
}

impl MinerMemo {
    /// An empty memo over `table` and `dag`, with the column ↔ DAG-node
    /// maps built.
    pub fn new(table: &Table, dag: &Dag) -> Self {
        let attr_to_dag: Box<[Option<usize>]> = (0..table.ncols())
            .map(|a| dag.index_of(&table.schema().field(a).name))
            .collect();
        let mut dag_to_attr = vec![None; dag.len()];
        for (attr, d) in attr_to_dag.iter().enumerate() {
            if let Some(d) = d {
                dag_to_attr[*d] = Some(attr);
            }
        }
        MinerMemo {
            identity: identity(table, dag).collect(),
            attr_to_dag,
            dag_to_attr: dag_to_attr.into(),
            columns: (0..table.ncols()).map(|_| ColumnMemo::default()).collect(),
            backdoor: RwLock::default(),
            walks: AtomicUsize::new(0),
            built: AtomicUsize::new(0),
            samples: Arc::default(),
            itemsets: RwLock::default(),
            mined: AtomicUsize::new(0),
        }
    }

    /// Number of backdoor DAG walks performed (memo misses) so far.
    pub fn walks(&self) -> usize {
        self.walks.load(Ordering::Relaxed)
    }

    /// Number of attribute blocks built (memo misses) so far.
    pub fn blocks_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Number of §5.2(d) samples drawn (memo misses) so far.
    pub fn samples_drawn(&self) -> usize {
        self.samples.drawn()
    }

    /// Number of Apriori runs (memo misses) so far.
    pub fn itemsets_mined(&self) -> usize {
        self.mined.load(Ordering::Relaxed)
    }

    /// [`apriori`]`(table, attrs, min_support, max_len)`, mined on the
    /// first lookup of `attrs` at that support and length; a lookup at
    /// another support or length mines again and replaces the entry.
    ///
    /// # Panics
    ///
    /// When `table` is not the memo's own.
    pub fn frequent_itemsets(
        &self,
        table: &Table,
        attrs: &[usize],
        min_support: usize,
        max_len: usize,
    ) -> Arc<[FrequentPattern]> {
        self.check_table(table);
        let find = |memo: &HashMap<Box<[usize]>, Itemsets>| {
            memo.get(attrs)
                .filter(|e| e.min_support == min_support && e.max_len == max_len)
                .map(|e| Arc::clone(&e.frequent))
        };
        find_or_insert(&self.itemsets, find, |memo| {
            self.mined.fetch_add(1, Ordering::Relaxed);
            let frequent: Arc<[FrequentPattern]> =
                apriori(table, attrs, min_support, max_len).into();
            let entry = Itemsets {
                min_support,
                max_len,
                frequent: Arc::clone(&frequent),
            };
            memo.insert(attrs.into(), entry);
            frequent
        })
    }

    /// Panic unless `table` and `dag` are the ones the memo was built
    /// over: its maps, ancestors, backdoor sets and atoms describe those.
    fn check(&self, table: &Table, dag: &Dag) {
        assert!(
            self.identity.iter().copied().eq(identity(table, dag)),
            "MinerMemo used with a table or DAG other than its own — atoms and confounder sets would silently come from the wrong data"
        );
    }

    /// [`MinerMemo::check`] for a lookup that reads the table alone.
    fn check_table(&self, table: &Table) {
        assert!(
            self.identity[DAG_IDENTITY..]
                .iter()
                .copied()
                .eq(table_identity(table)),
            "MinerMemo used with a table other than its own — itemsets would silently come from the wrong data"
        );
    }

    /// The attributes of `attrs` with a causal path to `outcome` in `dag`,
    /// in their order (optimization (a)). The outcome's ancestors are
    /// walked on its first lookup. Falls back to all of `attrs` when the
    /// DAG does not name the outcome or would prune every attribute, as a
    /// discovered graph with a parentless outcome does, rather than
    /// silently producing no explanations.
    fn pruned(&self, dag: &Dag, outcome: usize, attrs: &[usize]) -> Vec<usize> {
        let ancestors = self.columns[outcome].ancestors.get_or_init(|| {
            let anc = attrs_affecting_outcome(dag, self.attr_to_dag[outcome]?);
            let of = |d: &Option<usize>| d.is_some_and(|d| anc.binary_search(&d).is_ok());
            Some(self.attr_to_dag.iter().map(of).collect())
        });
        let kept: Vec<usize> = match ancestors {
            Some(anc) => attrs.iter().copied().filter(|&a| anc[a]).collect(),
            None => Vec::new(),
        };
        if kept.is_empty() {
            attrs.to_vec()
        } else {
            kept
        }
    }

    /// The interned backdoor set of `key` (`[outcome, sorted attribute
    /// ids…]`), walking `dag` on a miss.
    fn confounders(&self, dag: &Dag, key: &[usize]) -> ConfounderKey {
        let find = |memo: &Interned| memo.keys.get(key).map(|&id| memo.sets[id].clone());
        find_or_insert(&self.backdoor, find, |memo| {
            self.walks.fetch_add(1, Ordering::Relaxed);
            let set: Arc<[usize]> = self.backdoor_set(dag, key[0], &key[1..]).into();
            let id = match memo.ids.get(&set) {
                Some(&id) => id,
                None => {
                    let id = memo.sets.len();
                    memo.sets.push(ConfounderKey::new(id, Arc::clone(&set)));
                    memo.ids.insert(set, id);
                    id
                }
            };
            memo.keys.insert(key.into(), id);
            memo.sets[id].clone()
        })
    }

    /// The backdoor set of a treatment over `attrs` on `outcome`, as table
    /// attributes: empty when the DAG names neither the outcome nor any of
    /// `attrs`.
    fn backdoor_set(&self, dag: &Dag, outcome: usize, attrs: &[usize]) -> Vec<usize> {
        let Some(y) = self.attr_to_dag[outcome] else {
            return Vec::new();
        };
        let ts: Vec<usize> = attrs.iter().filter_map(|&a| self.attr_to_dag[a]).collect();
        if ts.is_empty() {
            return Vec::new();
        }
        backdoor_set(dag, &ts, y)
            .into_iter()
            .filter_map(|d| self.dag_to_attr[d])
            .filter(|&a| a != outcome)
            .collect()
    }

    /// The block of `attr` under `opts`, built on the first lookup.
    fn block(&self, table: &Table, attr: usize, opts: AtomOpts) -> Option<Arc<AttrBlock>> {
        let find = |built: &Vec<(AtomOpts, Option<Arc<AttrBlock>>)>| {
            built
                .iter()
                .find(|(o, _)| *o == opts)
                .map(|(_, b)| b.clone())
        };
        find_or_insert(&self.columns[attr].blocks, find, |built| {
            self.built.fetch_add(1, Ordering::Relaxed);
            let block = build_block(table, attr, opts).map(Arc::new);
            built.push((opts, block.clone()));
            block
        })
    }

    /// The standard deviation of `attr`'s column.
    fn std(&self, table: &Table, attr: usize) -> f64 {
        *self.columns[attr]
            .std
            .get_or_init(|| column_std(table.column(attr)))
    }
}

/// What `find` reads in `memo` under the shared lock, or on a miss what
/// `insert` adds under the write lock. A miss looks again first, so
/// concurrent misses on one entry insert it once between them.
fn find_or_insert<T, R>(
    memo: &RwLock<T>,
    find: impl Fn(&T) -> Option<R>,
    insert: impl FnOnce(&mut T) -> R,
) -> R {
    if let Some(hit) = find(&sched::read_recovered(memo)) {
        return hit;
    }
    let mut memo = sched::write_recovered(memo);
    match find(&memo) {
        Some(hit) => hit,
        None => insert(&mut memo),
    }
}

/// What tells one (table, DAG) pair from another for [`MinerMemo::check`]:
/// the DAG's node count and the address of its name list (the first
/// [`DAG_IDENTITY`] entries), then the table's row count and the address
/// of every column's buffer — buffers a table or DAG keeps when it moves
/// and no two live ones share.
fn identity<'t>(table: &'t Table, dag: &'t Dag) -> impl Iterator<Item = usize> + 't {
    [dag.len(), dag.names().as_ptr() as usize]
        .into_iter()
        .chain(table_identity(table))
}

/// Entries of [`identity`] that the DAG contributes.
const DAG_IDENTITY: usize = 2;

/// The table's part of [`identity`].
fn table_identity(table: &Table) -> impl Iterator<Item = usize> + '_ {
    let buffer = |col: &Column| match col {
        Column::Cat { codes, .. } => codes.as_ptr() as usize,
        Column::Int(v) => v.as_ptr() as usize,
        Column::Float(v) => v.as_ptr() as usize,
    };
    let columns = (0..table.ncols()).map(move |c| buffer(table.column(c)));
    std::iter::once(table.nrows()).chain(columns)
}

/// Deepest lattice level the walk supports: the capacity of the inline
/// atom sets its nodes are keyed by. `CausumxConfig::validate` rejects a
/// deeper `max_level`, and so does [`TreatmentMiner::new`].
pub const MAX_LEVEL: usize = 7;

/// A lattice node's atoms, ascending, inline: a `Copy` key that compares
/// and hashes without touching the heap. Slots past `len` hold 0, so the
/// derived equality and hash see the atoms only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct AtomSet {
    ids: [u16; MAX_LEVEL],
    len: u16,
}

impl AtomSet {
    /// `self ∪ {a}` for an atom `a` not in `self`, kept ascending. Panics
    /// when the set is full, which a walk to a validated `max_level`
    /// never reaches.
    fn with(self, a: u16) -> Self {
        let len = self.len as usize;
        let at = self.partition_point(|&x| x < a);
        let mut s = self;
        s.ids.copy_within(at..len, at + 1);
        s.ids[at] = a;
        s.len += 1;
        s
    }

    /// `self` without its `i`-th atom.
    fn without(self, i: usize) -> Self {
        let len = self.len as usize;
        let mut s = self;
        s.ids.copy_within(i + 1..len, i);
        s.ids[len - 1] = 0;
        s.len -= 1;
        s
    }
}

impl Deref for AtomSet {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        &self.ids[..self.len as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomKind {
    Eq,    // attr = v: a categorical level or a small-domain value
    Lower, // attr ≥ v
    Upper, // attr < v
}

/// One atom of an [`AttrBlock`].
#[derive(Debug)]
struct Atom {
    pred: Pred,
    kind: AtomKind,
    /// Rows of the *full table* satisfying the atom.
    mask: BitSet,
}

/// A miner's atomic predicate space: the blocks of its treatment
/// attributes, in attribute order. Atom ids run through the blocks in
/// that order. The blocks come from a [`MinerMemo`] and are shared with
/// every space over the same table and atom options; only the id → block
/// map is the space's own.
#[derive(Debug)]
struct AtomSpace {
    blocks: Vec<Arc<AttrBlock>>,
    /// Atom id → (index of its block in `blocks`, position in the block).
    ids: Vec<(usize, usize)>,
}

impl AtomSpace {
    /// The space of `attrs`, in that order, from `memo`'s blocks (built
    /// on first use). An attribute without atoms adds no block.
    fn new(memo: &MinerMemo, table: &Table, attrs: &[usize], opts: AtomOpts) -> Self {
        let mut space = AtomSpace {
            blocks: Vec::new(),
            ids: Vec::new(),
        };
        for &attr in attrs {
            if let Some(block) = memo.block(table, attr, opts) {
                let b = space.blocks.len();
                space.ids.extend((0..block.atoms.len()).map(|i| (b, i)));
                space.blocks.push(block);
            }
        }
        space
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn atom(&self, a: usize) -> &Atom {
        let (b, i) = self.ids[a];
        &self.blocks[b].atoms[i]
    }

    fn attr(&self, a: usize) -> usize {
        self.blocks[self.ids[a].0].attr
    }

    /// Every atom, in id order.
    fn atoms(&self) -> impl Iterator<Item = &Atom> {
        self.blocks.iter().flat_map(|b| b.atoms.iter())
    }
}

/// One treatment attribute's run of adjacent atoms, and how a row's value
/// picks the atoms that contain it. Every row falls in one slot, and each
/// atom holds the rows of the slots it covers ([`AttrBlock::covers`]). So
/// one pass over a row list, looking each row's slot up, sorts the rows
/// of every atom of the block at once ([`AttrBlock::partition`]): the
/// full-table masks when the block is built, level 1's treated rows over
/// each context's rows ([`WalkState::sort_level1`]), and local masks on
/// demand ([`WalkState::fill_masks`]). The slot metadata is a few values
/// per attribute, never a column per row.
#[derive(Debug)]
struct AttrBlock {
    attr: usize,
    atoms: Vec<Atom>,
    slots: Slots,
}

/// How an [`AttrBlock`]'s rows map to slots.
#[derive(Debug)]
enum Slots {
    /// A categorical attribute's code → slot table: the block's `i`-th
    /// atom is the level of slot `i`, and every code without an atom maps
    /// to one spare last slot.
    Codes(Vec<usize>),
    /// A small numeric domain, ascending: a row's slot is the number of
    /// values below its own ([`domain_slot`]), and the `i`-th atom is
    /// `= values[i]`.
    Domain(Vec<f64>),
    /// Quantile cuts, ascending: a row's slot is its band, the number of
    /// cuts at or below its value ([`band`]). Atoms `2j` and `2j + 1` are
    /// `≥ cuts[j]` (the bands above `j`) and `< cuts[j]` (the others).
    Cuts(Vec<f64>),
}

/// The number of `values` below `x`: a small-domain row's slot.
fn domain_slot(values: &[f64], x: f64) -> usize {
    values.iter().map(|&u| usize::from(u < x)).sum()
}

/// An Int domain's slots by offset from its least value: `slot[v - lo]`
/// is `domain_slot(values, v)` for every domain value `v`. `None` when
/// the domain spans 256 values or more, or holds a value `f64` cannot
/// represent exactly.
fn offset_slots(values: &[f64]) -> Option<(i64, Vec<usize>)> {
    const EXACT: f64 = (1u64 << 53) as f64;
    let (&lo, &hi) = (values.first()?, values.last()?);
    if lo <= -EXACT || hi >= EXACT || hi - lo >= 256.0 {
        return None;
    }
    let mut slot = vec![0; (hi - lo) as usize + 1];
    for (s, &v) in values.iter().enumerate() {
        slot[(v - lo) as usize] = s;
    }
    Some((lo as i64, slot))
}

/// The number of `cuts` at or below `x`: a row's band. The cuts increase
/// strictly, so the band is above `j` iff `x ≥ cuts[j]`.
fn band(cuts: &[f64], x: f64) -> usize {
    cuts.iter().map(|&q| usize::from(x >= q)).sum()
}

impl AttrBlock {
    fn num_slots(&self) -> usize {
        match &self.slots {
            Slots::Codes(_) => self.atoms.len() + 1,
            Slots::Domain(values) => values.len(),
            Slots::Cuts(cuts) => cuts.len() + 1,
        }
    }

    /// Does the block's `i`-th atom contain the rows of slot `s`?
    fn covers(&self, i: usize, s: usize) -> bool {
        match self.slots {
            Slots::Codes(_) | Slots::Domain(_) => i == s,
            Slots::Cuts(_) => i.is_multiple_of(2) == (s > i / 2),
        }
    }

    /// Sort `rows`, `len` ascending table rows, by slot in one pass: set
    /// `s` of the result holds the positions (bit `i` is the `i`-th of
    /// `rows`) of the rows in slot `s` ([`BitSet::partition`]). Each
    /// column kind gets its own loop, with no per-row dispatch.
    fn partition(
        &self,
        table: &Table,
        len: usize,
        rows: impl Iterator<Item = usize>,
    ) -> Vec<BitSet> {
        let n = self.num_slots();
        match (&self.slots, table.column(self.attr)) {
            (Slots::Codes(slot), Column::Cat { codes, .. }) => {
                BitSet::partition(len, n, rows.map(|r| slot[codes[r] as usize]))
            }
            (Slots::Domain(values), Column::Int(x)) => match offset_slots(values) {
                // Every row holds a domain value: look its slot up by offset.
                Some((lo, slot)) => {
                    BitSet::partition(len, n, rows.map(|r| slot[(x[r] - lo) as usize]))
                }
                None => BitSet::partition(len, n, rows.map(|r| domain_slot(values, x[r] as f64))),
            },
            (Slots::Domain(values), Column::Float(x)) => {
                BitSet::partition(len, n, rows.map(|r| domain_slot(values, x[r])))
            }
            (Slots::Cuts(cuts), Column::Int(x)) => {
                BitSet::partition(len, n, rows.map(|r| band(cuts, x[r] as f64)))
            }
            (Slots::Cuts(cuts), Column::Float(x)) => {
                BitSet::partition(len, n, rows.map(|r| band(cuts, x[r])))
            }
            _ => {
                unreachable!("a level block's attribute is categorical, any other block's numeric")
            }
        }
    }

    /// The masks of the block's atoms at positions `wanted`, over the rows
    /// of `universe` in its local coordinates (bit `l` is the `l`-th row
    /// of `universe`): one pass over `universe` sorts its rows by slot,
    /// and each mask is the union of the slots its atom covers.
    fn masks(
        &self,
        table: &Table,
        universe: &BitSet,
        wanted: impl IntoIterator<Item = usize>,
    ) -> Vec<BitSet> {
        let by_slot = self.partition(table, universe.count(), universe.iter());
        wanted
            .into_iter()
            .map(|i| self.union(i, &by_slot))
            .collect()
    }

    /// The rows of the block's `i`-th atom: the union of the sets of
    /// `by_slot` (one per slot) that the atom covers.
    fn union(&self, i: usize, by_slot: &[BitSet]) -> BitSet {
        let mut covered = (0..by_slot.len()).filter(|&s| self.covers(i, s));
        let mut rows = by_slot[covered.next().expect("every atom covers a slot")].clone();
        for s in covered {
            rows.union_with(&by_slot[s]);
        }
        rows
    }
}

/// The treatment-pattern miner: holds the atomic predicates of its
/// treatment attributes with their row masks, then mines the top
/// treatments of many grouping patterns per
/// [`TreatmentMiner::mine_paired_many_guarded`] call (these calls are
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
    space: AtomSpace,
    /// |outcome std| for the near-zero pruning threshold.
    outcome_std: f64,
    /// The memo of the table and DAG: backdoor sets, atoms and the DAG
    /// maps. Shared (`Arc`) so a session can hand the same memo to every
    /// miner it builds; its interior locks keep the miner `Sync` for
    /// optimization (c)'s cross-pattern parallelism.
    memo: Arc<MinerMemo>,
}

impl<'a> TreatmentMiner<'a> {
    /// Build a miner over `treat_attrs` (the non-FD side of the attribute
    /// split), with a memo of its own: every atom is built here. Applies
    /// optimization (a): attributes with no causal path to the outcome in
    /// `dag` are dropped up front.
    ///
    /// # Panics
    ///
    /// Panics when `opts.max_level` exceeds [`MAX_LEVEL`]; a deeper walk
    /// is rejected, never truncated.
    pub fn new(
        table: &'a Table,
        dag: &'a Dag,
        outcome: usize,
        treat_attrs: &[usize],
        opts: LatticeOptions,
    ) -> Self {
        let memo = Arc::new(MinerMemo::new(table, dag));
        Self::with_memo(table, dag, outcome, treat_attrs, opts, memo)
    }

    /// Like [`TreatmentMiner::new`] but over a shared [`MinerMemo`] of
    /// `table` and `dag`: the miner computes only the ancestors, backdoor
    /// sets and atoms no earlier miner over the memo computed. The pruned
    /// attributes, the atoms and their ids are those
    /// [`TreatmentMiner::new`] would build.
    ///
    /// # Panics
    ///
    /// As [`TreatmentMiner::new`], and when `memo` was built over another
    /// table or DAG.
    pub fn with_memo(
        table: &'a Table,
        dag: &'a Dag,
        outcome: usize,
        treat_attrs: &[usize],
        opts: LatticeOptions,
        memo: Arc<MinerMemo>,
    ) -> Self {
        check_max_level(&opts);
        memo.check(table, dag);
        let effective = if opts.prune_by_dag {
            memo.pruned(dag, outcome, treat_attrs)
        } else {
            treat_attrs.to_vec()
        };
        let space = AtomSpace::new(&memo, table, &effective, AtomOpts::of(&opts));
        let outcome_std = memo.std(table, outcome);
        TreatmentMiner {
            table,
            dag,
            outcome,
            opts,
            space,
            outcome_std,
            memo,
        }
    }

    /// Number of atomic treatment predicates under consideration.
    pub fn num_atoms(&self) -> usize {
        self.space.len()
    }

    /// Attributes that survived the optimization-(a) pruning.
    pub fn effective_attrs(&self) -> Vec<usize> {
        let mut a: Vec<usize> = self.space.blocks.iter().map(|b| b.attr).collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Confounder attributes (backdoor set) for a treatment over `attrs`.
    /// Memoized per attribute set: the DAG walk runs once, every further
    /// estimate over the same attributes is a hash lookup — across *all*
    /// miners sharing this memo (see [`TreatmentMiner::with_memo`]).
    pub fn confounders_for(&self, attrs: &[usize]) -> Vec<usize> {
        self.attrs_key(attrs).set().to_vec()
    }

    /// The interned backdoor set of `attrs`, in any order. The memo key
    /// `[outcome, sorted distinct attrs…]` is built on the stack for a
    /// lattice node's attributes.
    fn attrs_key(&self, attrs: &[usize]) -> ConfounderKey {
        let mut stack = [0usize; MAX_LEVEL + 1];
        let mut heap = Vec::new();
        let key = if attrs.len() <= MAX_LEVEL {
            &mut stack[..=attrs.len()]
        } else {
            heap.resize(attrs.len() + 1, 0);
            &mut heap[..]
        };
        key[0] = self.outcome;
        key[1..].copy_from_slice(attrs);
        key[1..].sort_unstable();
        let mut len = 1;
        for r in 1..key.len() {
            if len == 1 || key[r] != key[len - 1] {
                key[len] = key[r];
                len += 1;
            }
        }
        self.memo.confounders(self.dag, &key[..len])
    }

    /// The interned backdoor set of a lattice node's attributes.
    fn key_of(&self, atoms: &AtomSet) -> ConfounderKey {
        let mut attrs = [0usize; MAX_LEVEL];
        for (attr, &a) in attrs.iter_mut().zip(atoms.iter()) {
            *attr = self.space.attr(a as usize);
        }
        self.attrs_key(&attrs[..atoms.len()])
    }

    /// Evaluate the CATE of an arbitrary treatment pattern within `subpop`.
    pub fn eval_pattern(&self, subpop: &BitSet, pattern: &Pattern) -> Option<TreatmentResult> {
        let treated = BitSet::from_mask(&pattern.eval(self.table).ok()?);
        let mut contexts = self.contexts();
        let r = self.estimate(&mut contexts, subpop, &treated, &pattern.attrs())?;
        Some(TreatmentResult {
            pattern: pattern.clone(),
            cate: r.cate,
            p_value: r.p_value,
            n_treated: r.n_treated,
            n_control: r.n_control,
        })
    }

    /// Level 1 of the walk over `subpop`, estimated as the walk estimates
    /// it at `workers` workers — the same candidates, contexts, row sorts
    /// and chunks — with every candidate's p-value completed as the walk
    /// completes it for a best-k entrant. A hook for the tests that hold
    /// level 1 to per-atom gathers on projected masks.
    #[doc(hidden)]
    pub fn level1_estimates(&self, subpop: &BitSet, workers: usize) -> Vec<Level1Estimate> {
        let guard = RunGuard::unlimited();
        let mut walk = WalkState::new(self, subpop, 1, &[Direction::Positive], workers, &guard);
        let cands = walk.level1_cands();
        if cands.is_empty() {
            return Vec::new();
        }
        let batch = walk.prepare_batch(cands);
        let results = batch
            .ranges
            .iter()
            .flat_map(|r| Self::eval_chunk(&batch, r.clone()));
        batch
            .cands
            .iter()
            .zip(&batch.keys)
            .zip(results)
            .map(|((cand, key), r)| {
                let (fit, moments) = r.unzip();
                let node = fit
                    .clone()
                    .map(|fit| Node::new(cand.clone(), key, fit, None));
                Level1Estimate {
                    pattern: self.pattern_of(&cand.atoms),
                    treated_in_sub: cand.count,
                    confounders: key.set().to_vec(),
                    fit,
                    moments: moments.flatten(),
                    treated: cand.treated.clone(),
                    p_value: node.map(|n| n.p_value(&walk.contexts)),
                }
            })
            .collect()
    }

    /// An empty context cache for one subpopulation, whose panel reads its
    /// §5.2(d) sample from the memo.
    fn contexts(&self) -> ContextCache {
        ContextCache::with_samples(Arc::clone(&self.memo.samples))
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
                &self.attrs_key(attrs),
                &self.opts.cate_opts,
            )?
            .estimate(treated)
    }

    /// Algorithm 2 for many subpopulations: the top-`k` positive and
    /// (when `mine_negative`) negative treatments of each, sorted
    /// best-first, every entry passing the significance gate. The returned
    /// vector is index-aligned with `subpops`.
    ///
    /// The two directions of one subpopulation walk its lattice in step,
    /// one level at a time, and share its estimation contexts — they touch
    /// the same backdoor sets, so each
    /// [`causal::context::EstimationContext`] is built once. Level 1
    /// (every overlap-passing atom, whatever the direction) is estimated
    /// once for both; each later level estimates every live direction's
    /// joins together. Results equal two independent single-direction
    /// walks.
    ///
    /// All subpopulations run on one work-stealing scheduler of `threads`
    /// workers (`0` = one per core, `1` = inline on the caller): every
    /// (pattern × lattice level × candidate chunk) becomes a task, so
    /// workers finishing a small pattern steal candidate chunks from
    /// whichever pattern still has work, and at most one walk per worker
    /// is live at a time. Per-pattern state (the [`ContextCache`]
    /// with its confounder panel, the walk frontier and its masks) is
    /// sharded — one mutex-guarded walk per subpopulation —
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
    /// for any direction sequence and at every worker count: each
    /// subpopulation's walk is a resumable state machine ([`WalkState`])
    /// advanced by [`sched::run_graph`] tasks. A `Start` task pumps the
    /// walk until it has a level of candidates to estimate (the serial
    /// part: Apriori joins, memoized backdoor lookups, in-order context
    /// builds), then fans the level out as [`sched::ChunkSlots`] chunk
    /// tasks; the worker completing a level's last chunk re-locks that
    /// pattern's state, merges results in candidate order, and pumps
    /// again. One worker runs the same tasks inline, in FIFO order.
    ///
    /// Walks are admitted in pattern order, one per worker: the first
    /// `workers` patterns start at once, and each walk that finalizes or
    /// fails starts the next pattern and drops its own state (contexts,
    /// panel, frontier). One worker therefore walks the patterns
    /// one at a time in index order, and N workers keep at most N walks
    /// live.
    ///
    /// Failure model: every task body is caught with `catch_unwind`
    /// while the pattern/level/chunk identity is still known, so a panic
    /// fails only its owning pattern's result slot ([`MineError::Worker`])
    /// and sibling patterns keep mining. Guard trips (cancel, deadline,
    /// memory budget) are query-wide: the first one wins a shared
    /// failure slot, every remaining task drains as a no-op, and no
    /// further walk is admitted.
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
        let workers = sched::workers_for(threads);
        let patterns: Vec<PatternSlot<'_>> = subpops
            .iter()
            .map(|&s| PatternSlot {
                state: Mutex::new(Some(WalkState::new(self, s, k, dirs, workers, guard))),
                out: OnceLock::new(),
            })
            .collect();
        let admitted = workers.min(patterns.len());
        // The next pattern to admit when a live walk finishes. `Relaxed`
        // suffices: it only hands out indices, and the spawn that carries
        // one goes through the scheduler's queue.
        let next_start = AtomicUsize::new(admitted);
        // First guard trip wins; set once, every later task short-circuits.
        let failure: OnceLock<MineError> = OnceLock::new();
        // Record pattern `p`'s outcome, free its walk and admit the next
        // pattern in its place.
        let finish = |p: usize,
                      result: Result<PairedTreatments, MineError>,
                      spawn: &sched::Spawner<'_, WalkTask>| {
            if patterns[p].out.set(result).is_err() {
                return;
            }
            drop(sched::lock_recovered(&patterns[p].state).take());
            let next = next_start.fetch_add(1, Ordering::Relaxed);
            if next < patterns.len() {
                spawn.spawn(WalkTask::Start(next));
            }
        };
        let fail = |p: usize,
                    task: String,
                    payload: &(dyn Any + Send),
                    spawn: &sched::Spawner<'_, WalkTask>| {
            let payload = payload_string(payload);
            finish(p, Err(MineError::Worker { task, payload }), spawn);
        };
        let advance =
            |p: usize, done: Option<Arc<LevelBatch>>, spawn: &sched::Spawner<'_, WalkTask>| {
                if failure.get().is_some() {
                    return;
                }
                let mut state = sched::lock_recovered(&patterns[p].state);
                // `None` once the walk has finished or failed.
                let Some(st) = state.as_mut() else {
                    return;
                };
                if let Some(batch) = done {
                    let results = batch.slots.merged();
                    st.absorb(batch, results);
                    // Level-merge checkpoint.
                    if let Err(e) = guard.check() {
                        let _ = failure.set(e);
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
                        let walk = state.take().expect("the walk was live above");
                        drop(state);
                        finish(p, Ok(walk.finalize()), spawn);
                    }
                }
            };
        let initial: Vec<WalkTask> = (0..admitted).map(WalkTask::Start).collect();
        sched::run_graph(threads, initial, |task, spawn| {
            if failure.get().is_some() {
                return;
            }
            match task {
                WalkTask::Start(p) => {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| advance(p, None, spawn)))
                    {
                        fail(p, format!("pattern {p} start"), payload.as_ref(), spawn);
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
                    let level = batch.level;
                    // Chunk-boundary checkpoint: the guard's armed faults
                    // fire first (they may cancel or panic), then its
                    // limits.
                    let evaluated = catch_unwind(AssertUnwindSafe(|| {
                        let site = FaultSite {
                            pattern,
                            level,
                            chunk,
                        };
                        guard.fire_faults(site, || spawn.poke());
                        if let Err(e) = guard.check() {
                            let _ = failure.set(e);
                            return None;
                        }
                        Some(Self::eval_chunk(&batch, batch.ranges[chunk].clone()))
                    }));
                    match evaluated {
                        Ok(Some(out)) => {
                            if batch.slots.complete(chunk, out) {
                                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                                    advance(pattern, Some(batch), spawn)
                                })) {
                                    let task = format!("pattern {pattern} level {level} merge");
                                    fail(pattern, task, payload.as_ref(), spawn);
                                }
                            }
                        }
                        // Guard tripped: the query is failing, leave the
                        // chunk incomplete.
                        Ok(None) => {}
                        Err(payload) => {
                            let task = format!("pattern {pattern} level {level} chunk {chunk}");
                            fail(pattern, task, payload.as_ref(), spawn);
                        }
                    }
                }
            }
        });
        if let Some(err) = failure.into_inner() {
            return Err(err);
        }
        patterns
            .into_iter()
            .enumerate()
            .map(|(p, slot)| {
                // `None` is unreachable unless a walk stalled without
                // recording a failure; report rather than unwrap so the
                // pool survives even a bookkeeping bug here.
                slot.out.into_inner().unwrap_or_else(|| {
                    Err(MineError::Worker {
                        task: format!("pattern {p}"),
                        payload: "walk did not run to completion".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Estimate one contiguous candidate chunk of a prepared level. Runs
    /// lock-free on any scheduler worker: it reads the pre-built
    /// `Arc<EstimationContext>` pinned into the batch per candidate.
    fn eval_chunk(batch: &LevelBatch, range: Range<usize>) -> Vec<EvalRes> {
        range
            .map(|i| -> EvalRes {
                eval_cached(
                    batch.ctx[i].as_ref()?,
                    &batch.cands[i].treated,
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
        let mut contexts = self.contexts();
        let sub_n = sub_bits.count();
        let mut out = Vec::new();
        // Ids of current-frontier patterns; expand depth-first by index
        // ordering so each combination is generated once.
        let space = &self.space;
        let mut frontier: Vec<(Vec<u16>, BitSet)> = Vec::new();
        for (ai, atom) in space.atoms().enumerate() {
            frontier.push((vec![ai as u16], atom.mask.clone()));
        }
        let mut level = 1;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (pattern, mask) in &frontier {
                if self.overlap_ok(mask.intersection_count(sub_bits), sub_n) {
                    let attrs: Vec<usize> =
                        pattern.iter().map(|&x| space.attr(x as usize)).collect();
                    if let Some(r) = self.estimate(&mut contexts, sub_bits, mask, &attrs) {
                        out.push(TreatmentResult {
                            pattern: self.pattern_of(pattern),
                            cate: r.cate,
                            p_value: r.p_value,
                            n_treated: r.n_treated,
                            n_control: r.n_control,
                        });
                    }
                }
                if level < max_len {
                    let last = *pattern.last().expect("frontier patterns are non-empty") as usize;
                    for nxt in last + 1..space.len() {
                        if !self.atoms_compatible_with_all(pattern, nxt) {
                            continue;
                        }
                        let mut m = mask.clone();
                        m.intersect_with(&space.atom(nxt).mask);
                        if m.is_empty() {
                            continue;
                        }
                        let mut a = pattern.clone();
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
                .map(|&a| self.space.atom(a as usize).pred.clone())
                .collect(),
        )
    }

    /// Two atoms may co-occur when they are on different attributes, or
    /// form a (lower, upper) range on the same numeric attribute.
    fn atoms_compatible(&self, a: usize, b: usize) -> bool {
        let space = &self.space;
        if space.attr(a) != space.attr(b) {
            return true;
        }
        matches!(
            (space.atom(a).kind, space.atom(b).kind),
            (AtomKind::Lower, AtomKind::Upper) | (AtomKind::Upper, AtomKind::Lower)
        )
    }

    fn atoms_compatible_with_all(&self, atoms: &[u16], cand: usize) -> bool {
        atoms
            .iter()
            .all(|&a| self.atoms_compatible(a as usize, cand))
    }

    /// The overlap precheck (Eq. 4) of a candidate with `count` treated
    /// rows in a subpopulation of `sub_n`: both arms must reach `min_arm`
    /// before a regression is paid for.
    fn overlap_ok(&self, count: usize, sub_n: usize) -> bool {
        let min_arm = self.opts.cate_opts.min_arm;
        count >= min_arm && sub_n - count >= min_arm
    }
}

/// A node's p-value. The walk ranks, prunes and stops on CATE alone, so a
/// node keeps only its fit and runs the inference half (the residual pass
/// and the Student-t tail) when [`insert_best`] needs the p-value; a
/// best-list entry keeps the known value.
#[derive(Clone)]
enum PValue {
    Known(f64),
    Deferred(RegressionFit),
}

/// A lattice node that survived estimation.
#[derive(Clone)]
struct Node {
    atoms: AtomSet,
    /// The candidate's treated set (see [`Cand::treated`]). A level-1 node
    /// of a sampled context trades its rows of the sample for its local
    /// mask when a join or a downdate plan will read it
    /// ([`WalkState::fill_masks`]).
    treated: BitSet,
    /// Treated rows in the subpopulation (before sampling), reused for
    /// the children's downdate size guard.
    count: usize,
    cate: f64,
    p: PValue,
    n_treated: usize,
    n_control: usize,
    /// Id of the confounder set the node was estimated under: the context
    /// a deferred p-value runs on, and the set a child must share to
    /// downdate from the node.
    key: usize,
    /// The node's treatment-block moments, which a subset child with the
    /// same key derives its own from by downdating (`FastV1` only).
    moments: Option<Arc<TreatmentMoments>>,
}

impl Node {
    /// The node candidate `cand` becomes when its fit (made on the context
    /// of confounder key `key`) is kept.
    fn new(
        cand: Cand,
        key: &ConfounderKey,
        fit: RegressionFit,
        moments: Option<TreatmentMoments>,
    ) -> Node {
        Node {
            atoms: cand.atoms,
            treated: cand.treated,
            count: cand.count,
            cate: fit.cate(),
            n_treated: fit.n_treated(),
            n_control: fit.n_control(),
            p: PValue::Deferred(fit),
            key: key.id(),
            moments: moments.map(Arc::new),
        }
    }

    /// The node's p-value, running the deferred inference on the context
    /// the fit came from, on the node's treated set, when only the fit is
    /// held.
    fn p_value(&self, contexts: &ContextCache) -> f64 {
        match &self.p {
            PValue::Known(p) => *p,
            PValue::Deferred(fit) => contexts
                .get(self.key)
                .expect("a deferred fit's context stays cached under its key")
                .p_value(fit, &self.treated),
        }
    }
}

/// A generated-but-unestimated lattice candidate.
#[derive(Clone, Default)]
struct Cand {
    atoms: AtomSet,
    /// The treated rows, in the coordinates its width names (see
    /// [`EstimationContext::fit`]). A join child's is its local mask. A
    /// level-1 atom's comes from its attribute's pass over its context's
    /// rows when the level is prepared ([`WalkState::sort_level1`]): the
    /// local mask without sampling, the atom's rows of the sample under
    /// it, and empty where the context failed to build.
    treated: BitSet,
    /// Treated rows in the subpopulation (computed by the overlap
    /// precheck anyway).
    count: usize,
    /// Index into the walk's directions ([`WalkState::dirs`]) of the one
    /// whose frontier the candidate was joined from. Level 1 belongs to
    /// every direction and leaves it 0.
    dir: usize,
    /// Index into that frontier of the join parent whose treated rowset
    /// is the smaller superset of `treated` — the cheaper downdate source.
    /// `None` at level 1.
    parent: Option<u32>,
}

/// A prepared downdate for one candidate: the parent's cached moments
/// plus the rows the child dropped. Computed serially at
/// level-preparation time, so chunk evaluations stay lock-free and the
/// `downdates`/`regathers` counters are scheduler-independent.
struct DowndatePlan {
    parent: Arc<TreatmentMoments>,
    removed: BitSet,
}

/// One candidate's evaluation: the fit (if solvable) plus, in
/// moments-tracking mode, the treatment blocks cached for downdating.
type EvalRes = Option<(RegressionFit, Option<TreatmentMoments>)>;

/// Evaluation of one candidate with treated set `treated`: downdate when
/// a plan is present, otherwise gather — with moments when the walk
/// tracks them, and without touching the heap when it does not
/// ([`EstimationContext::fit_untracked`]). Returns the fit alone; its
/// p-value is deferred.
fn eval_cached(
    ctx: &EstimationContext,
    treated: &BitSet,
    plan: Option<&DowndatePlan>,
    track: bool,
) -> EvalRes {
    if let Some(p) = plan {
        return ctx
            .fit_downdated(&p.parent, &p.removed)
            .map(|(fit, mm)| (fit, Some(mm)));
    }
    if track {
        ctx.fit(treated).map(|(fit, m)| (fit, Some(m)))
    } else {
        ctx.fit_untracked(treated).map(|fit| (fit, None))
    }
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
/// (serial per pattern) lock it. The state is taken (and dropped) when
/// the walk finalizes or fails; a set `Err` marks the walk dead, and its
/// remaining tasks drain without evaluating.
struct PatternSlot<'w> {
    state: Mutex<Option<WalkState<'w>>>,
    out: OnceLock<Result<PairedTreatments, MineError>>,
}

/// One lattice level of every direction still walking, frozen for
/// lock-free fan-out: the candidates, their interned confounder keys, the
/// pre-built estimation context per candidate, and the index-addressed
/// result slots the chunks complete into. Level 1 is every direction's;
/// from level 2 on each candidate names the direction that joined it
/// ([`Cand::dir`]). Everything is `Arc`-shared so an `Eval` task needs no
/// access to the walk state.
struct LevelBatch {
    /// 1-based lattice level these candidates belong to — the `level`
    /// coordinate of guard checkpoints and fault sites.
    level: usize,
    cands: Vec<Cand>,
    keys: Vec<ConfounderKey>,
    /// Per-candidate pre-built context (`None` where the build failed).
    ctx: Vec<Option<Arc<EstimationContext>>>,
    /// Per-candidate downdate plan (`None` entries regather).
    plans: Vec<Option<DowndatePlan>>,
    /// Chunks return moments alongside each estimate (FastV1).
    track: bool,
    ranges: Vec<Range<usize>>,
    slots: sched::ChunkSlots<EvalRes>,
}

/// One direction's part of a walk: its frontier, its best-k list and its
/// depth.
struct DirWalk {
    dir: Direction,
    /// The nodes the direction kept at the walk's current level, which the
    /// next level joins. Empty once the direction has stopped: on an empty
    /// level, or on one that does not improve (Algorithm 2 lines 10–13).
    frontier: Vec<Node>,
    /// Best-first, at most `k` entries, each with its p-value known.
    best: Vec<Node>,
    /// The deepest level at which the direction kept a node; level 1
    /// always counts.
    levels: usize,
}

/// The resumable Algorithm-2 walk of one subpopulation. Every requested
/// direction (positive, and optionally negative) steps through one level
/// sequence over the subpopulation's shared contexts: level 1 is
/// estimated once for all of them, and each later level joins every live
/// direction's frontier into one batch. `pump` drives the serial parts
/// (candidate generation, in-order context builds) until a level is
/// ready to fan out; `absorb` runs the post-level logic on the
/// index-merged results, so the walk's decisions — and counters — are
/// the same at every worker count. `finalize` consumes it.
struct WalkState<'w> {
    miner: &'w TreatmentMiner<'w>,
    subpop: &'w BitSet,
    k: usize,
    workers: usize,
    /// The query's lifeguard: progress counters plus the limits checked
    /// at chunk boundaries and level merges.
    guard: &'w RunGuard,
    /// The subpopulation's estimation contexts, shared by every
    /// direction.
    contexts: ContextCache,
    /// Rows in the subpopulation.
    sub_n: usize,
    min_cate: f64,
    /// Lattice level of the last absorbed batch (0 before level 1); every
    /// live frontier holds nodes of this level.
    level: usize,
    /// Per-direction state, in the requested direction order.
    dirs: Vec<DirWalk>,
    evaluated: usize,
    /// Subset candidates evaluated via incremental Gram downdating.
    downdates: usize,
    /// Downdate-eligible candidates that took the full-regather fallback.
    regathers: usize,
}

impl<'w> WalkState<'w> {
    fn new(
        miner: &'w TreatmentMiner<'w>,
        subpop: &'w BitSet,
        k: usize,
        dirs: &[Direction],
        workers: usize,
        guard: &'w RunGuard,
    ) -> Self {
        WalkState {
            miner,
            subpop,
            k: k.max(1),
            workers,
            guard,
            contexts: miner.contexts(),
            sub_n: subpop.count(),
            min_cate: miner.opts.min_abs_cate_frac * miner.outcome_std,
            level: 0,
            dirs: dirs
                .iter()
                .map(|&dir| DirWalk {
                    dir,
                    frontier: Vec::new(),
                    best: Vec::new(),
                    levels: 1,
                })
                .collect(),
            evaluated: 0,
            downdates: 0,
            regathers: 0,
        }
    }

    /// Does the walk track treatment moments and downdate subset
    /// candidates? Only in FastV1: FP subtraction cannot replay the Exact
    /// contract's fold order, so Exact always regathers.
    fn track_moments(&self) -> bool {
        self.miner.opts.cate_opts.numeric_mode == NumericMode::FastV1
    }

    /// Serially decide, per candidate, whether its treatment blocks come
    /// from a parent downdate or a full gather, and count the choices.
    /// Runs once per level, before any evaluation, so plans and counters
    /// depend only on the walk structure — never on worker count.
    fn plan_level(&mut self, cands: &[Cand], keys: &[ConfounderKey]) -> Vec<Option<DowndatePlan>> {
        let mut plans = Vec::with_capacity(cands.len());
        for (cand, key) in cands.iter().zip(keys) {
            let plan = cand.parent.and_then(|pi| {
                let parent = &self.dirs[cand.dir].frontier[pi as usize];
                // The parent's moments are tᵀZ over *its* confounder
                // key's design columns — only a child adjusting for the
                // identical set can reuse them.
                if parent.key != key.id() {
                    return None;
                }
                // Size guard: when the child dropped more rows than it
                // kept, a direct gather is cheaper than the subtraction
                // (and accumulates less downdate rounding).
                let removed = parent.count.checked_sub(cand.count)?;
                if removed > cand.count {
                    return None;
                }
                // Both sets are local masks: a join child's always is, and
                // `absorb` gives every kept level-1 node its own.
                Some(DowndatePlan {
                    parent: Arc::clone(parent.moments.as_ref()?),
                    removed: parent.treated.difference(&cand.treated),
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

    /// Drive the walk forward until it either needs a level estimated
    /// (returns the prepared batch to fan out) or has finished every
    /// direction (returns `None`; call `finalize`). Candidate generation
    /// (the atoms, then the Apriori joins of every live frontier) runs
    /// here, serially. A level without candidates ends the walk: every
    /// direction has stopped, or has no children left to join.
    fn pump(&mut self) -> Option<Arc<LevelBatch>> {
        let cands = if self.level == 0 {
            self.level1_cands()
        } else if self.level < self.miner.opts.max_level {
            self.join_cands()
        } else {
            return None;
        };
        (!cands.is_empty()).then(|| self.prepare_batch(cands))
    }

    /// Level 1: all atoms (GenChildren, lines 2–4). The overlap precheck
    /// is a full-width popcount of each atom's mask within the
    /// subpopulation, before paying for a regression; no atom is
    /// projected. [`WalkState::sort_level1`] gives the candidates their
    /// rows when the level is prepared.
    fn level1_cands(&self) -> Vec<Cand> {
        self.miner
            .space
            .atoms()
            .enumerate()
            .filter_map(|(ai, atom)| {
                let treated_in_sub = atom.mask.intersection_count(self.subpop);
                if !self.miner.overlap_ok(treated_in_sub, self.sub_n) {
                    return None;
                }
                Some(Cand {
                    atoms: AtomSet::default().with(ai as u16),
                    count: treated_in_sub,
                    ..Cand::default()
                })
            })
            .collect()
    }

    /// Give every level-1 entry of `entries` (`(atom, treated set)`) whose
    /// set is not a local mask — its rows of a sampled context's sample —
    /// its local mask instead: one pass over the subpopulation per
    /// attribute block with such an entry ([`AttrBlock::masks`]). The
    /// node's p-value reads the same rows from either set.
    fn fill_masks<'m>(&self, entries: impl IntoIterator<Item = (u16, &'m mut BitSet)>) {
        let space = &self.miner.space;
        let mut missing: Vec<(u16, &mut BitSet)> = entries
            .into_iter()
            .filter(|(_, m)| m.capacity() != self.sub_n)
            .collect();
        missing.sort_unstable_by_key(|&(a, _)| a);
        let block_of = |a: u16| space.ids[a as usize].0;
        for run in missing.chunk_by_mut(|x, y| block_of(x.0) == block_of(y.0)) {
            let block = &space.blocks[block_of(run[0].0)];
            let wanted = run.iter().map(|(a, _)| space.ids[*a as usize].1);
            let masks = block.masks(self.miner.table, self.subpop, wanted);
            for ((_, slot), mask) in run.iter_mut().zip(masks) {
                **slot = mask;
            }
        }
    }

    /// Levels 2..: expand, direction by direction, only children whose
    /// parents all survived in that direction's frontier. The joins,
    /// dedup, parent checks and overlap prechecks are serial per pattern,
    /// exactly as in the reference walk. Atom sets are inline keys, so a
    /// frontier's two hash sets are its only allocations besides the
    /// children's own masks, and a mask is copied only for a child that
    /// passes the overlap precheck.
    fn join_cands(&self) -> Vec<Cand> {
        let miner = self.miner;
        let lvl = self.level;
        let mut cands: Vec<Cand> = Vec::new();
        for (dir, walk) in self.dirs.iter().enumerate() {
            let frontier = &walk.frontier;
            let kept: HashSet<AtomSet> = frontier.iter().map(|n| n.atoms).collect();
            let mut seen: HashSet<AtomSet> = HashSet::new();
            for i in 0..frontier.len() {
                for j in i + 1..frontier.len() {
                    let (a, b) = (&frontier[i], &frontier[j]);
                    if a.atoms[..lvl - 1] != b.atoms[..lvl - 1] {
                        continue;
                    }
                    let (la, lb) = (a.atoms[lvl - 1], b.atoms[lvl - 1]);
                    if !miner.atoms_compatible(la as usize, lb as usize) {
                        continue;
                    }
                    let cand = a.atoms.with(lb);
                    if !seen.insert(cand) {
                        continue;
                    }
                    // All parents (drop-one subsets) must have been kept.
                    if !(0..cand.len()).all(|d| kept.contains(&cand.without(d))) {
                        continue;
                    }
                    let treated_in_sub = a.treated.intersection_count(&b.treated);
                    if !miner.overlap_ok(treated_in_sub, self.sub_n) {
                        continue;
                    }
                    let mut treated = a.treated.clone();
                    treated.intersect_with(&b.treated);
                    // The child's rowset is a subset of both join parents;
                    // record the smaller one — fewer removed rows to
                    // subtract if the level gets downdated.
                    let parent = if a.count <= b.count { i } else { j } as u32;
                    cands.push(Cand {
                        atoms: cand,
                        treated,
                        count: treated_in_sub,
                        dir,
                        parent: Some(parent),
                    });
                }
            }
        }
        cands
    }

    /// Freeze the next level for fan-out: memoized backdoor lookups and
    /// context builds run here, serially and in candidate order, so
    /// `builds()` accounting and memo walks do not depend on the worker
    /// count; chunk tasks then only read.
    fn prepare_batch(&mut self, mut cands: Vec<Cand>) -> Arc<LevelBatch> {
        let miner = self.miner;
        let level = self.level + 1;
        let mut keys = Vec::with_capacity(cands.len());
        let mut ctx = Vec::with_capacity(cands.len());
        for c in &cands {
            let key = miner.key_of(&c.atoms);
            ctx.push(
                self.contexts
                    .get_or_build(
                        miner.table,
                        Some(self.subpop),
                        miner.outcome,
                        &key,
                        &miner.opts.cate_opts,
                    )
                    .cloned(),
            );
            keys.push(key);
        }
        if level == 1 {
            self.sort_level1(&mut cands, &ctx);
        }
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

    /// Give each level-1 candidate its treated rows, one pass over its
    /// context's rows per attribute block ([`AttrBlock::partition`]): an
    /// atom's rows are the union of the slots it covers. The atoms of a
    /// block share one backdoor set and so one context. Without sampling
    /// the context's rows are the subpopulation's, and the rows are the
    /// candidate's local mask; under sampling they cover only the sample,
    /// and a node that needs its mask builds it later
    /// ([`WalkState::fill_masks`]). Either way the set's width tells the
    /// context which rows it names.
    fn sort_level1(&self, cands: &mut [Cand], ctx: &[Option<Arc<EstimationContext>>]) {
        let space = &self.miner.space;
        let block_of = |c: &Cand| space.ids[c.atoms[0] as usize].0;
        let mut first = 0;
        for run in cands.chunk_by_mut(|a, b| block_of(a) == block_of(b)) {
            let ctx = &ctx[first];
            first += run.len();
            let Some(ctx) = ctx else {
                continue;
            };
            let block = &space.blocks[block_of(&run[0])];
            let by_slot = block.partition(self.miner.table, ctx.n(), ctx.rows().iter().copied());
            for cand in run {
                cand.treated = block.union(space.ids[cand.atoms[0] as usize].1, &by_slot);
            }
        }
    }

    /// Run the post-level logic on a batch's index-merged results. First
    /// the work counters: every candidate counts (failed estimates are
    /// work), and level 1 counts once per direction. Then each direction
    /// puts its candidates — all of level 1, its own joins after that —
    /// through the sign/near-zero filter in candidate order, per-level
    /// retention, best-k updates and the lines-10–13 termination test.
    /// [`Direction::matches`] is sign-exclusive, so a kept candidate
    /// belongs to exactly one direction and moves into its node.
    fn absorb(&mut self, batch: Arc<LevelBatch>, mut results: Vec<EvalRes>) {
        let level = batch.level;
        let (mut cands, keys) = match Arc::try_unwrap(batch) {
            Ok(batch) => (batch.cands, batch.keys),
            // A sibling chunk task has not yet dropped its handle.
            Err(batch) => (batch.cands.clone(), batch.keys.clone()),
        };
        debug_assert_eq!(cands.len(), results.len());
        let n = if level == 1 {
            cands.len() * self.dirs.len()
        } else {
            cands.len()
        };
        self.evaluated += n;
        // Progress diagnostics for guard trips: evaluations and levels
        // aggregate across all pattern walks of the query.
        self.guard.add_evaluations(n);
        self.guard.level_completed();
        let opts = &self.miner.opts;
        let cate = |r: &EvalRes| r.as_ref().map_or(f64::NAN, |(fit, _)| fit.cate());
        let mut kept: Vec<Vec<Node>> = Vec::with_capacity(self.dirs.len());
        for (d, walk) in self.dirs.iter().enumerate() {
            let dir = walk.dir;
            let mut own: Vec<usize> = (0..cands.len())
                .filter(|&i| level == 1 || cands[i].dir == d)
                .filter(|&i| {
                    let c = cate(&results[i]);
                    dir.matches(c) && c.abs() >= self.min_cate
                })
                .collect();
            retain_top(&mut own, dir, opts.top_frac, |&i| cate(&results[i]));
            let nodes = own.into_iter().map(|i| {
                let (fit, moments) = results[i].take().expect("a kept estimate");
                Node::new(std::mem::take(&mut cands[i]), &keys[i], fit, moments)
            });
            kept.push(nodes.collect());
        }
        if level == 1 && opts.max_level > 1 {
            // The next level joins these nodes and plans downdates from
            // them.
            self.fill_masks(
                kept.iter_mut()
                    .flatten()
                    .map(|n| (n.atoms[0], &mut n.treated)),
            );
        }
        let contexts = &self.contexts;
        for (walk, nodes) in self.dirs.iter_mut().zip(kept) {
            let mut improved = false;
            for node in &nodes {
                improved |= insert_best(
                    &mut walk.best,
                    self.k,
                    walk.dir,
                    opts.max_p_value,
                    node,
                    |n| n.p_value(contexts),
                );
            }
            if !nodes.is_empty() {
                walk.levels = level;
            }
            // Level 1 seeds the best list; from level 2 on, a direction
            // stops at the first level that does not improve on its
            // recorded maximum.
            walk.frontier = if level == 1 || improved {
                nodes
            } else {
                Vec::new()
            };
        }
        self.level = level;
    }

    /// Assemble the paired summary: each direction's best-k patterns, and
    /// the walk's counters with `contexts_built` counted once for the
    /// shared cache. Consumes the walk, so its contexts, panel and masks
    /// are freed as soon as the summary exists.
    fn finalize(self) -> PairedTreatments {
        let mut paired = PairedTreatments {
            positive: Vec::new(),
            negative: Vec::new(),
            stats: LatticeStats {
                evaluated: self.evaluated,
                levels: self.dirs.iter().map(|d| d.levels).max().unwrap_or(0),
                contexts_built: self.contexts.builds(),
                downdates: self.downdates,
                regathers: self.regathers,
            },
        };
        for walk in &self.dirs {
            let best = walk.best.iter().map(|b| TreatmentResult {
                pattern: self.miner.pattern_of(&b.atoms),
                cate: b.cate,
                p_value: b.p_value(&self.contexts),
                n_treated: b.n_treated,
                n_control: b.n_control,
            });
            match walk.dir {
                Direction::Positive => paired.positive = best.collect(),
                Direction::Negative => paired.negative = best.collect(),
            }
        }
        paired
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

/// Floor on nodes kept per level, so the join stage always has pairs to
/// work with even when a level is small.
const MIN_KEEP: usize = 8;

/// Keep the top `frac` of nodes by CATE in the requested direction, but at
/// least [`MIN_KEEP`] (so small levels still feed the next join).
fn retain_top<N>(level: &mut Vec<N>, dir: Direction, frac: f64, cate: impl Fn(&N) -> f64) {
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
    let keep = ((level.len() as f64 * frac).ceil() as usize).max(MIN_KEEP);
    level.truncate(keep.min(level.len()));
}

/// Reject a lattice deeper than an [`AtomSet`] holds.
fn check_max_level(opts: &LatticeOptions) {
    assert!(
        opts.max_level <= MAX_LEVEL,
        "max_level {} exceeds the deepest supported lattice level {MAX_LEVEL}",
        opts.max_level
    );
}

/// Build the [`AttrBlock`] of `attr` under `opts`, or `None` when the
/// attribute yields no atom. The atoms' predicates and slots come from a
/// frequency pass (categorical), a domain scan or one sort (numeric), and
/// every mask of the block from one pass over the column
/// ([`AttrBlock::partition`]).
fn build_block(table: &Table, attr: usize, opts: AtomOpts) -> Option<AttrBlock> {
    let n = table.nrows();
    let (preds, slots): (Vec<(Pred, AtomKind)>, Slots) = match table.column(attr) {
        Column::Cat { codes, dict } => {
            // Most frequent levels first, capped.
            let mut freq = vec![0usize; dict.len()];
            for &c in codes {
                freq[c as usize] += 1;
            }
            let mut levels: Vec<usize> = (0..dict.len()).collect();
            levels.sort_by_key(|&l| std::cmp::Reverse(freq[l]));
            let levels: Vec<u32> = levels
                .into_iter()
                .take(opts.max_atoms_per_attr)
                .filter(|&l| freq[l] > 0)
                .map(|l| l as u32)
                .collect();
            let mut slot = vec![levels.len(); dict.len()];
            for (i, &l) in levels.iter().enumerate() {
                slot[l as usize] = i;
            }
            let preds = levels
                .iter()
                .map(|&l| (Pred::eq(attr, dict.value(l)), AtomKind::Eq))
                .collect();
            (preds, Slots::Codes(slot))
        }
        col @ (Column::Int(_) | Column::Float(_)) => {
            let pred = |op: Op, v: f64| Pred {
                attr,
                op,
                value: match col {
                    Column::Int(_) => Scalar::Int(v as i64),
                    _ => Scalar::Float(v),
                },
            };
            if let Some(mut values) = small_domain(col, opts.numeric_bins.max(6)) {
                // Small integer-like domain: equality atoms. NaN-total
                // sort: ingest pre-validates numeric cells, but a NaN
                // must not abort the whole query.
                values.sort_by(|a, b| a.total_cmp(b));
                values.dedup();
                let preds = values
                    .iter()
                    .take(opts.max_atoms_per_attr)
                    .map(|&v| (pred(Op::Eq, v), AtomKind::Eq))
                    .collect();
                (preds, Slots::Domain(values))
            } else {
                // Quantile thresholds: attr ≥ q (Lower) and attr < q
                // (Upper) per internal cut point. `total_cmp` is a
                // total order, so the unstable sort gives the same
                // array as a stable one.
                let vals: Vec<f64> = (0..n).map(|r| col.get_f64(r)).collect();
                let mut sorted = vals.clone();
                sorted.sort_unstable_by(|a, b| a.total_cmp(b));
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
                    // the mean instead — for an Int column at ⌈mean⌉:
                    // `x ≥ mean ⟺ x ≥ ⌈mean⌉` for integers, so the
                    // predicate shows the constant the mask tests.
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    if mean > lo && mean <= hi {
                        cuts.push(match col {
                            Column::Int(_) => mean.ceil(),
                            _ => mean,
                        });
                    }
                }
                let preds = cuts
                    .iter()
                    .flat_map(|&q| {
                        [
                            (pred(Op::Ge, q), AtomKind::Lower),
                            (pred(Op::Lt, q), AtomKind::Upper),
                        ]
                    })
                    .collect();
                (preds, Slots::Cuts(cuts))
            }
        }
    };
    if preds.is_empty() {
        return None;
    }
    let mut block = AttrBlock {
        attr,
        atoms: preds
            .into_iter()
            .map(|(pred, kind)| Atom {
                pred,
                kind,
                mask: BitSet::default(),
            })
            .collect(),
        slots,
    };
    let by_slot = block.partition(table, n, 0..n);
    for i in 0..block.atoms.len() {
        block.atoms[i].mask = block.union(i, &by_slot);
    }
    Some(block)
}

/// The distinct values of a numeric column when it has at most `cap` of
/// them, under [`Column::n_distinct`]'s equality (`i64` for Int, the bit
/// pattern for Float); `None` as soon as the scan meets a `cap + 1`-th.
fn small_domain(col: &Column, cap: usize) -> Option<Vec<f64>> {
    fn scan<T: Copy + PartialEq>(vals: impl Iterator<Item = T>, cap: usize) -> Option<Vec<T>> {
        let mut seen: Vec<T> = Vec::with_capacity(cap + 1);
        for v in vals {
            // No early exit: the per-row test stays free of data-dependent
            // branches; only a new value (at most `cap + 1` times) branches.
            if !seen.iter().fold(false, |hit, &s| hit | (s == v)) {
                if seen.len() == cap {
                    return None;
                }
                seen.push(v);
            }
        }
        Some(seen)
    }
    match col {
        Column::Int(v) => {
            scan(v.iter().copied(), cap).map(|d| d.into_iter().map(|x| x as f64).collect())
        }
        Column::Float(v) => scan(v.iter().map(|x| x.to_bits()), cap)
            .map(|d| d.into_iter().map(f64::from_bits).collect()),
        Column::Cat { .. } => None,
    }
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
    use table::bitset::Projector;
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

    /// One single-worker, single-direction walk: the best `k` treatments of
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
    /// walks return — both directions step through one level sequence,
    /// level 1 is estimated once for both, and one `fill_masks` call gives
    /// both directions' kept level-1 nodes their masks — on every estimate
    /// path (Exact, FastV1 with downdating, and Exact and FastV1 under a
    /// sample cap) and at one and four workers, while building
    /// each estimation context only once.
    #[test]
    fn paired_walk_matches_independent_walks() {
        let (table, dag) = synth(2000, 42);
        let subpop = BitSet::full(table.nrows());
        let with_cate = |cate_opts: CateOptions| LatticeOptions {
            cate_opts,
            ..LatticeOptions::default()
        };
        // Below the 2,000-row subpopulation: level 1 estimates on the
        // sample, and only the kept nodes get their local masks.
        let sampled = |numeric_mode: NumericMode| CateOptions {
            sample_cap: Some(500),
            numeric_mode,
            ..CateOptions::default()
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
            ("exact_sampled", with_cate(sampled(NumericMode::Exact))),
            ("fast_v1_sampled", with_cate(sampled(NumericMode::FastV1))),
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
        let memo = Arc::new(MinerMemo::new(&table, &dag));
        let opts = LatticeOptions::default;
        let a = TreatmentMiner::with_memo(&table, &dag, 3, &[0, 1, 2], opts(), Arc::clone(&memo));
        let _ = a.confounders_for(&[0]);
        let _ = a.confounders_for(&[0, 1]);
        let walks = memo.walks();
        assert_eq!(walks, 2);
        let b = TreatmentMiner::with_memo(&table, &dag, 3, &[0, 1, 2], opts(), Arc::clone(&memo));
        assert_eq!(b.confounders_for(&[0]), a.confounders_for(&[0]));
        assert_eq!(memo.walks(), walks, "second miner hits the shared memo");
        // A different outcome is a different key — it must re-walk.
        let c = TreatmentMiner::with_memo(&table, &dag, 2, &[0, 1], opts(), Arc::clone(&memo));
        let _ = c.confounders_for(&[0]);
        assert_eq!(memo.walks(), walks + 1);
    }

    /// Concurrent misses on one key walk the DAG once between them, so
    /// `walks()` counts distinct keys whatever the timing.
    #[test]
    fn concurrent_memo_misses_walk_once() {
        let (table, dag) = synth(200, 3);
        for round in 0..300 {
            let memo = Arc::new(MinerMemo::new(&table, &dag));
            let opts = LatticeOptions::default();
            let miner =
                TreatmentMiner::with_memo(&table, &dag, 3, &[0, 1], opts, Arc::clone(&memo));
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        barrier.wait();
                        miner.confounders_for(&[1])
                    });
                }
            });
            assert_eq!(memo.walks(), 1, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "MinerMemo used with a table or DAG other than its own")]
    fn shared_memo_rejects_foreign_dag() {
        let (table, dag) = synth(200, 2);
        let other = Dag::new(&["t1", "t2", "t3", "o"], &[("t2", "o")]).unwrap();
        let memo = Arc::new(MinerMemo::new(&table, &dag));
        let opts = LatticeOptions::default;
        let _a = TreatmentMiner::with_memo(&table, &dag, 3, &[0, 1], opts(), Arc::clone(&memo));
        let _b = TreatmentMiner::with_memo(&table, &other, 3, &[0, 1], opts(), memo);
    }

    /// Miners over one memo build each (attribute, atom options) block
    /// once and share it, whatever attribute subsets they ask for and
    /// however the table has moved since; their atoms equal those of
    /// miners with memos of their own.
    #[test]
    fn shared_atom_memo_builds_each_block_once() {
        let (table, dag) = atom_space_table(600, 9);
        let memo = Arc::new(MinerMemo::new(&table, &dag));
        let first = TreatmentMiner::with_memo(
            &table,
            &dag,
            7,
            &[0, 1, 2],
            LatticeOptions::default(),
            Arc::clone(&memo),
        );
        let block = Arc::clone(&first.space.blocks[0]);
        assert_eq!(memo.blocks_built(), 3);
        drop(first);
        // Moving the table keeps its column buffers, and so the memo's
        // binding.
        let table = Box::new(table);
        let wide = LatticeOptions {
            numeric_bins: 8,
            ..Default::default()
        };
        let cases: [(&[usize], &LatticeOptions, usize); 4] = [
            (&[0, 1, 2, 3], &LatticeOptions::default(), 4),
            (&[3, 0], &LatticeOptions::default(), 4),
            (&[0, 3, 4], &wide, 7),
            (&[4, 0], &wide, 7),
        ];
        for (attrs, opts, built) in cases {
            let shared =
                TreatmentMiner::with_memo(&table, &dag, 7, attrs, opts.clone(), Arc::clone(&memo));
            assert_eq!(memo.blocks_built(), built, "{attrs:?}");
            let own = TreatmentMiner::new(&table, &dag, 7, attrs, opts.clone());
            assert_eq!(shared.num_atoms(), own.num_atoms());
            for (a, b) in shared.space.atoms().zip(own.space.atoms()) {
                assert_eq!((&a.pred, a.kind), (&b.pred, b.kind));
                assert_eq!(a.mask, b.mask, "{}", a.pred.display(&table));
            }
            assert_eq!(shared.outcome_std.to_bits(), own.outcome_std.to_bits());
            let zero = shared.space.blocks.iter().find(|b| b.attr == 0).unwrap();
            assert_eq!(Arc::ptr_eq(zero, &block), opts.numeric_bins == 4);
        }
    }

    #[test]
    #[should_panic(expected = "MinerMemo used with a table or DAG other than its own")]
    fn atom_memo_rejects_foreign_table() {
        let (table, dag) = synth(200, 2);
        let copy = table.clone();
        let memo = Arc::new(MinerMemo::new(&table, &dag));
        let opts = LatticeOptions::default();
        let _a = TreatmentMiner::with_memo(&table, &dag, 3, &[0], opts.clone(), memo.clone());
        let _b = TreatmentMiner::with_memo(&copy, &dag, 3, &[0], opts, memo);
    }

    #[test]
    #[should_panic(expected = "MinerMemo used with a table other than its own")]
    fn itemset_memo_rejects_foreign_table() {
        let (table, dag) = synth(200, 2);
        let copy = table.clone();
        let memo = MinerMemo::new(&table, &dag);
        memo.frequent_itemsets(&table, &[0], 1, 2);
        memo.frequent_itemsets(&copy, &[0], 1, 2);
    }

    /// Miners over one shared memo prune, build atoms and read the
    /// outcome's spread exactly as miners with memos of their own, in any
    /// order of outcomes: an outcome whose ancestors prune some
    /// attributes, a second outcome whose ancestors prune every attribute
    /// (the full-set fallback), and an outcome the DAG does not name. The
    /// memo looks each outcome's ancestors up once.
    #[test]
    fn memo_miners_match_miners_of_their_own() {
        let (table, _) = atom_space_table(600, 5);
        // `o` (7) has ancestors `cat` (0) and `small_int` (1); `wide_float`
        // (4) has none; the DAG names neither `small_float` (2) nor
        // `zero_float` (6).
        let dag = Dag::new(
            &["cat", "small_int", "wide_int", "wide_float", "o"],
            &[("cat", "o"), ("small_int", "o"), ("o", "wide_int")],
        )
        .unwrap();
        let memo = Arc::new(MinerMemo::new(&table, &dag));
        let cases: [(usize, &[usize], &[usize]); 4] = [
            (7, &[0, 1, 2, 3], &[0, 1]),
            (4, &[0, 3], &[0, 3]),
            (6, &[1, 3], &[1, 3]),
            (7, &[3, 2, 1, 0], &[0, 1]),
        ];
        let atoms = |m: &TreatmentMiner<'_>| -> Vec<(Pred, AtomKind, BitSet)> {
            let atoms = m.space.atoms();
            atoms
                .map(|a| (a.pred.clone(), a.kind, a.mask.clone()))
                .collect()
        };
        for pass in 0..2 {
            for (outcome, attrs, kept) in cases {
                let opts = LatticeOptions::default;
                let shared =
                    TreatmentMiner::with_memo(&table, &dag, outcome, attrs, opts(), memo.clone());
                let own = TreatmentMiner::new(&table, &dag, outcome, attrs, opts());
                let case = format!("pass {pass}, outcome {outcome}, {attrs:?}");
                assert_eq!(shared.effective_attrs(), kept, "{case}");
                assert_eq!(own.effective_attrs(), kept, "{case}");
                assert_eq!(atoms(&shared), atoms(&own), "{case}");
                let std = |m: &TreatmentMiner<'_>| m.outcome_std.to_bits();
                assert_eq!(std(&shared), std(&own), "{case}");
            }
        }
        let looked_up = memo.columns.iter().filter(|c| c.ancestors.get().is_some());
        assert_eq!(looked_up.count(), 3, "one ancestor lookup per outcome");
    }

    /// A bare node with a known p-value, for the best-list tests.
    fn scored(cate: f64, p: f64) -> Node {
        Node {
            atoms: AtomSet::default(),
            treated: BitSet::default(),
            count: 0,
            cate,
            p: PValue::Known(p),
            n_treated: 0,
            n_control: 0,
            key: 0,
            moments: None,
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

    /// A table whose treatment columns reach every branch of
    /// `build_block`: a categorical column with more levels than the atom
    /// cap (some of them absent after a filter), small-domain Int and
    /// Float columns, wide ones, and zero-inflated ones whose quantile
    /// cuts all collapse onto the minimum (the mean fallback).
    fn atom_space_table(n: usize, seed: u64) -> (Table, Dag) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = n + n / 4;
        let cat: Vec<String> = (0..m)
            .map(|_| format!("c{}", rng.gen_range(0..24)))
            .collect();
        let small_int: Vec<i64> = (0..m).map(|_| rng.gen_range(-2..3)).collect();
        let small_float: Vec<f64> = (0..m)
            .map(|_| [-1.5, 0.0, 2.25, 7.0][rng.gen_range(0..4)])
            .collect();
        let wide_int: Vec<i64> = (0..m).map(|_| rng.gen_range(-500..1000)).collect();
        let wide_float: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let zero_int: Vec<i64> = (0..m)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    0
                } else {
                    rng.gen_range(1..=10)
                }
            })
            .collect();
        let zero_float: Vec<f64> = (0..m)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    0.0
                } else {
                    rng.gen_range(0.5..40.0)
                }
            })
            .collect();
        let o: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let full = TableBuilder::new()
            .cat_owned("cat", cat)
            .unwrap()
            .int("small_int", small_int)
            .unwrap()
            .float("small_float", small_float)
            .unwrap()
            .int("wide_int", wide_int)
            .unwrap()
            .float("wide_float", wide_float)
            .unwrap()
            .int("zero_int", zero_int)
            .unwrap()
            .float("zero_float", zero_float)
            .unwrap()
            .float("o", o)
            .unwrap()
            .build()
            .unwrap();
        // Dropping the rows of three levels keeps them in the dictionary
        // with no rows left.
        let codes = full.column(0).codes().unwrap();
        let keep: Vec<bool> = (0..m).map(|r| codes[r] % 8 != 3).collect();
        let table = full.filter(&keep);
        let names = [
            "cat",
            "small_int",
            "small_float",
            "wide_int",
            "wide_float",
            "zero_int",
            "zero_float",
            "o",
        ];
        let edges: Vec<(&str, &str)> = names[..7].iter().map(|&a| (a, "o")).collect();
        (table, Dag::new(&names, &edges).unwrap())
    }

    /// Every atom's mask is the row set its own predicate selects, and
    /// every subpopulation-local mask a block builds is that mask
    /// projected — both come from one pass per attribute through the
    /// block's slots.
    #[test]
    fn atom_masks_match_their_predicates_and_projections() {
        for (seed, max_atoms, bins) in [(1, 16, 4), (2, 5, 4), (3, 3, 8), (4, 16, 2)] {
            let (table, dag) = atom_space_table(1200, seed);
            let opts = LatticeOptions {
                max_atoms_per_attr: max_atoms,
                numeric_bins: bins,
                ..Default::default()
            };
            let miner = TreatmentMiner::new(&table, &dag, 7, &[0, 1, 2, 3, 4, 5, 6], opts);
            assert_eq!(miner.effective_attrs(), vec![0, 1, 2, 3, 4, 5, 6]);
            for atom in miner.space.atoms() {
                let selected = Pattern::single(atom.pred.clone()).eval(&table).unwrap();
                assert_eq!(
                    atom.mask,
                    BitSet::from_mask(&selected),
                    "seed {seed}: atom {}",
                    atom.pred.display(&table)
                );
            }
            // With at most four bins every quantile of the zero-inflated
            // columns is 0, so they take the mean fallback: one cut.
            if bins <= 4 {
                for attr in [5, 6] {
                    let cuts = miner.space.blocks.iter().filter(|b| b.attr == attr);
                    let cuts: usize = cuts.map(|b| b.atoms.len()).sum();
                    assert_eq!(cuts, 2, "seed {seed}: attr {attr}");
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let n = table.nrows();
            let subpops = [
                BitSet::new(n),
                BitSet::full(n),
                BitSet::from_mask(&(0..n).map(|_| rng.gen_bool(0.3)).collect::<Vec<_>>()),
                BitSet::from_mask(&(0..n).map(|r| r % 64 < 5).collect::<Vec<_>>()),
            ];
            // An attribute listed twice puts two blocks of the same level
            // atoms side by side.
            let twice = TreatmentMiner::new(&table, &dag, 7, &[0, 0, 5], miner.opts.clone());
            for subpop in &subpops {
                let projector = Projector::new(subpop);
                for m in [&miner, &twice] {
                    let mut seen = 0;
                    for block in &m.space.blocks {
                        let masks = block.masks(&table, subpop, 0..block.atoms.len());
                        for (atom, local) in block.atoms.iter().zip(&masks) {
                            assert_eq!(
                                *local,
                                projector.project(&atom.mask),
                                "seed {seed}: atom {} on {} rows",
                                atom.pred.display(&table),
                                subpop.count()
                            );
                        }
                        seen += masks.len();
                    }
                    assert_eq!(seen, m.space.len());
                }
            }
        }
    }

    /// Level 1 without projection: each candidate's count is the popcount
    /// of its projected mask, and the overlap gate keeps exactly the atoms
    /// the projected popcounts pass. The rows a level's preparation sorts
    /// out are the projected mask without sampling, and the atom's rows
    /// among the context's rows under it. The masks `fill_masks` swaps in
    /// on demand — for any subset of the candidates, in any order, as
    /// `absorb` asks for the kept nodes' — equal `Projector::project`, and
    /// the sets left out keep their rows.
    #[test]
    fn level1_counts_and_on_demand_masks_match_projections() {
        let (mut sorted_masks, mut sorted_rows) = (0, 0);
        for (seed, max_atoms, bins, cap) in [(5, 16, 4, None), (6, 3, 8, Some(40))] {
            let (table, dag) = atom_space_table(900, seed);
            let opts = LatticeOptions {
                max_atoms_per_attr: max_atoms,
                numeric_bins: bins,
                cate_opts: CateOptions {
                    sample_cap: cap,
                    ..CateOptions::default()
                },
                ..Default::default()
            };
            let min_arm = opts.cate_opts.min_arm;
            let attrs = [0, 0, 1, 2, 3, 4, 5, 6];
            let miner = TreatmentMiner::new(&table, &dag, 7, &attrs, opts);
            let n = table.nrows();
            let mut rng = StdRng::seed_from_u64(seed);
            let subpops = [
                BitSet::new(n),
                BitSet::full(n),
                BitSet::from_mask(&(0..n).map(|_| rng.gen_bool(0.4)).collect::<Vec<_>>()),
                BitSet::from_mask(&(0..n).map(|r| r % 97 < 2 * min_arm).collect::<Vec<_>>()),
            ];
            let guard = RunGuard::unlimited();
            for subpop in &subpops {
                let projector = Projector::new(subpop);
                let sub_n = subpop.count();
                let projected: Vec<BitSet> = miner
                    .space
                    .atoms()
                    .map(|a| projector.project(&a.mask))
                    .collect();
                let want: Vec<(u16, usize)> = projected
                    .iter()
                    .enumerate()
                    .map(|(a, m)| (a as u16, m.count()))
                    .filter(|&(_, c)| c >= min_arm && sub_n - c >= min_arm)
                    .collect();
                let mut walk = WalkState::new(&miner, subpop, 3, &[Direction::Positive], 1, &guard);
                let cands = walk.level1_cands();
                let got: Vec<(u16, usize)> = cands.iter().map(|c| (c.atoms[0], c.count)).collect();
                assert_eq!(got, want, "seed {seed}, {sub_n} rows");
                assert!(cands.iter().all(|c| c.treated.capacity() == 0));
                if cands.is_empty() {
                    continue;
                }
                let batch = walk.prepare_batch(cands);
                for (c, ctx) in batch.cands.iter().zip(&batch.ctx) {
                    let ctx = ctx
                        .as_ref()
                        .expect("a numeric outcome builds every context");
                    let atom = miner.space.atom(c.atoms[0] as usize);
                    if ctx.n() == sub_n {
                        assert_eq!(c.treated, projected[c.atoms[0] as usize], "seed {seed}");
                        sorted_masks += 1;
                    } else {
                        assert_eq!(c.treated.capacity(), ctx.n(), "seed {seed}: sampled");
                        for (i, &r) in ctx.rows().iter().enumerate() {
                            assert_eq!(c.treated.contains(i), atom.mask.contains(r));
                        }
                        sorted_rows += 1;
                    }
                }
                // Kept nodes arrive sorted by CATE, not by atom.
                let mut cands = batch.cands.clone();
                for i in (1..cands.len()).rev() {
                    cands.swap(i, rng.gen_range(0..=i));
                }
                let sorted: Vec<BitSet> = cands.iter().map(|c| c.treated.clone()).collect();
                let wanted: Vec<bool> = cands.iter().map(|_| rng.gen_bool(0.6)).collect();
                let entries = cands.iter_mut().zip(&wanted).filter(|(_, &w)| w);
                walk.fill_masks(entries.map(|(c, _)| (c.atoms[0], &mut c.treated)));
                for ((c, before), w) in cands.iter().zip(&sorted).zip(wanted) {
                    let want = if w {
                        &projected[c.atoms[0] as usize]
                    } else {
                        before
                    };
                    assert_eq!(c.treated, *want, "seed {seed}");
                }
            }
        }
        assert!(sorted_masks > 0 && sorted_rows > 0);
    }

    /// An Int column whose quartile cuts all sit on the minimum is split
    /// at its mean, 1.1 here. The rendered predicate must select the rows
    /// the walk estimated on: `X >= 2`, not the truncated `X >= 1`, which
    /// also selects the twenty rows with `X = 1`.
    #[test]
    fn int_mean_cut_predicate_selects_the_estimated_rows() {
        let x: Vec<i64> = (0..1000)
            .map(|i| if i < 800 { 0 } else { (i - 800) % 10 + 1 })
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        let o: Vec<f64> = x
            .iter()
            .map(|&v| 2.0 * v as f64 + rng.gen_range(-1.0..1.0))
            .collect();
        let table = TableBuilder::new()
            .int("X", x)
            .unwrap()
            .float("O", o)
            .unwrap()
            .build()
            .unwrap();
        let dag = Dag::new(&["X", "O"], &[("X", "O")]).unwrap();
        let miner = TreatmentMiner::new(&table, &dag, 1, &[0], LatticeOptions::default());
        let subpop = BitSet::full(table.nrows());
        let all = miner.all_treatments(&subpop, 1);
        let shown: Vec<String> = all.iter().map(|t| t.pattern.display(&table)).collect();
        assert_eq!(shown, vec!["X >= 2", "X < 2"]);
        for t in &all {
            let again = miner.eval_pattern(&subpop, &t.pattern).unwrap();
            assert_eq!(
                (again.n_treated, again.n_control, again.cate.to_bits()),
                (t.n_treated, t.n_control, t.cate.to_bits()),
                "{}",
                t.pattern.display(&table)
            );
        }
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
