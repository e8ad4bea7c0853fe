//! Subpopulation-scoped estimation cache.
//!
//! Within one grouping pattern the CATE estimations of *all* candidate
//! treatments share the same subpopulation, outcome and confounder set —
//! only the binary treatment column differs. The naive
//! [`crate::estimate::estimate_cate`] treats each of the thousands of
//! estimations per query (§5.2) as a cold start: it rescans the full table
//! to rebuild the subpopulation row list, re-gathers the outcome, re-derives
//! the confounder one-hot encoding and re-accumulates full normal equations
//! in `O(n·p²)`.
//!
//! [`EstimationContext`] hoists everything treatment-independent out of the
//! loop. Built once per `(subpopulation, confounder set)` pair, it caches
//! the (sampled) row-index list, the gathered outcome vector `y`, the
//! confounder design `Z`, and the fixed blocks of the Gram matrix of the
//! design `X = [1, T, Z]`:
//!
//! ```text
//!       ⎡  n      Σt     1ᵀZ  ⎤            ⎡ Σy  ⎤
//! XᵀX = ⎢  Σt     Σt     tᵀZ  ⎥ ,    Xᵀy = ⎢ tᵀy ⎥
//!       ⎣ Zᵀ1    Zᵀt    ZᵀZ   ⎦            ⎣ Zᵀy ⎦
//! ```
//!
//! Per candidate treatment only the `t`-blocks are accumulated and the
//! solve runs through [`stats::ols::BorderedBlocks::fit_at`]; the `O(n·p²)` Gram
//! pass, the full-table row scan and the one-hot re-encoding disappear
//! from the hot loop. All block sums accumulate in ascending row order
//! with the same skip-exact-zero semantics as
//! [`stats::matrix::Matrix::gram`], so the fit — CATE, standard errors,
//! p-values — is bit-identical to the naive path, not merely close.
//!
//! [`EstimationContext::estimate`] takes the treated rows as a set over
//! the *full table* and scans the cached row list testing membership
//! (`O(n)` probes). Every other entry point — [`EstimationContext::fit`],
//! [`EstimationContext::fit_downdated`] and [`EstimationContext::p_value`]
//! — reads the width of the set it is given to name its coordinates:
//!
//! * [`EstimationContext::local_width`] bits index the subpopulation's
//!   rows (bit `i` = the `i`-th subpopulation row, see
//!   [`table::bitset::Projector`]);
//! * [`EstimationContext::n`] bits index the context's own rows (bit `i`
//!   = [`EstimationContext::rows`]`[i]`, after sampling), which a caller
//!   can sort out in one pass over those rows without projecting
//!   anything onto the subpopulation — the lattice walk's level 1 does,
//!   one pass per treatment attribute.
//!
//! The two widths are equal exactly when the §5.2(d) sampling dropped no
//! row, and then the two coordinate systems are one. Either way the
//! `t`-blocks are gathered sparsely by walking only the set bits
//! (`O(|T|·k)` for `k` confounder attributes, see [Level
//! codes](self#level-codes)). Ascending bit order visits the identical
//! rows in the identical order as the dense scan, so every entry point
//! produces bit-identical fits.
//!
//! # The row walker
//!
//! Every per-candidate row pass — the `tᵀy`/`tᵀZ` gather, the `FastV1`
//! downdate of a parent's moments, and the residual's `t·β₁` term — reads
//! the treated rows through one word-level walker (`TreatedRows`). It
//! yields the *sampled positions* of the treated rows in ascending order.
//! A set over the context's rows already holds them. When the §5.2(d)
//! sampling dropped rows, the context keeps the sampled local indices as
//! a bitset with per-word rank prefixes (a [`table::bitset::Projector`]
//! over them), and the walker ANDs each word of a local mask with the
//! sampled word before visiting any bit; a visited bit's position is its
//! rank among the sampled indices. So a treated row the sample left out
//! is never visited: a sampled estimate reads only the rows it uses, not
//! every treated row of the subpopulation. Without sampling a local index
//! is its position. The
//! passes read the design's dense columns and level codes as slices
//! hoisted out of the row loop, in a layout each context fixes once when
//! it is built. Each accumulator sees its rows in ascending order, so
//! every fold — `Exact`'s serial sum, `FastV1`'s lane = visitation rank
//! `& 7` — has the bits of a per-row pass over the same positions.
//!
//! # The per-subpopulation confounder panel
//!
//! One lattice walk touches several *distinct* backdoor sets, and those
//! sets overlap: `{Age}`, `{Age, Gender}` and `{Age, Country}` share the
//! subpopulation row list, the outcome gather, `Σy`, the encoded `Age`
//! column and the `Age×Age` Gram block. Building each
//! [`EstimationContext`] cold repeats all of that per set.
//!
//! [`SubpopPanel`] hoists the sharing one level up: built once per
//! subpopulation, it holds the subpopulation's scope — the sampled row
//! list, `y`, `Σy`, `yᵀy` and the estimator settings, built once and
//! shared with every context it assembles — and materializes lazily, on
//! first use, each confounder attribute's design block with its `1ᵀZ_a` /
//! `Z_aᵀy` vectors, plus every requested pairwise cross-Gram block
//! `Z_aᵀZ_b` (including `a = b`). [`SubpopPanel::assemble`] then builds
//! the context for a concrete confounder set by *stitching* the relevant
//! blocks — `O(q²)` placement instead of the `O(n·q²)` accumulation pass
//! — and sharing the scope and design buffers via [`Arc`].
//!
//! ## Level codes
//!
//! In the panel a numeric confounder is one dense column, but a
//! categorical one with `d` kept dummies is not `d` dense 0/1 columns: it
//! is one level code per sampled row. Codes `0..d` are the kept dummies;
//! code `d` covers the reference level and every level past
//! `CateOptions::max_onehot_levels`. The levels come from the same helper
//! the dense encoding calls, so the two can never pick different ones.
//! Every Gram entry that the dense columns would give becomes a count or
//! a per-level sum (the AC/DC and LMFAO way of computing such entries
//! without one-hot columns):
//!
//! * `1ᵀZ_a`, the diagonal block `Z_aᵀZ_a` and a categorical×categorical
//!   block are integer counts, the last from one contingency pass;
//! * `Z_aᵀy` and a numeric×categorical block are per-level sums of `y` or
//!   of the numeric column, from [`stats::numeric::group_sums`], which
//!   replays the dense dot's fold: one serial accumulator per level in
//!   `Exact`, eight lanes per level (lane = position `& 7`) in `FastV1`.
//!
//! The per-row passes read the codes too: the `tᵀZ_a` gather is a level
//! histogram of the walked rows, the `FastV1` downdate subtracts the
//! removed rows' histogram, and the residual adds `β` looked up by level
//! through a table whose reference slot holds `+0.0`. The cold
//! [`EstimationContext::new`] build keeps the dense one-hot columns: with
//! the naive estimators it is the oracle the codes are tested against.
//!
//! ## Why the bits hold
//!
//! Every block is an independent ascending-row-order accumulation, so an
//! entry stitched from the panel is the sum a cold build forms (for
//! `a > b` pairs the stored block is read transposed — `z_i·z_j` and
//! `z_j·z_i` are the same f64 product). Where the panel reads codes
//! instead of dense columns:
//!
//! * every product of two 0/1 columns is 0 or 1, so the entry is an
//!   integer count, which `f64` sums exactly in any order — the counts,
//!   the gather's histogram and the downdate's subtraction alike;
//! * the products a per-level sum skips are `0·x = ±0`, and for finite
//!   data without `−0.0` — which [`table::Table::new`] guarantees — they
//!   cannot change the sum, since every kept level has a row (see
//!   [`stats::numeric::group_sums`]);
//! * the residual's skipped `0·β` terms can at most flip the sign of a
//!   zero ŷ, which the squared residual erases.
//!
//! So an assembled context gives the cold build's Gram entries, `β`,
//! CATEs and p-values bit for bit in both numeric modes; the property
//! tests in `tests/confounder_panel.rs` pin this.
//!
//! [`ContextCache`] owns the panel and builds every context through it;
//! the cold [`EstimationContext::new`] build is the dense one-hot oracle
//! that tests hold it to.
//!
//! # Deferred inference
//!
//! A regression estimate has two halves. The **fit** — gather, overlap
//! gate, Gram, Cholesky, `β` and the treatment coefficient's `(XᵀX)⁻¹`
//! diagonal — decides the CATE and whether the estimate exists at all.
//! The **inference** — the residual pass, `s²` and the Student-t tail —
//! turns the fit into a p-value; in `Exact` mode its residual pass is an
//! `O(n·q)` serial fold, the most expensive step of an estimate.
//!
//! [`EstimationContext::fit`] and [`EstimationContext::fit_downdated`]
//! return the fit as a [`RegressionFit`] with the gathered
//! [`TreatmentMoments`]; [`EstimationContext::p_value`] runs the
//! inference later, on the same context and treated set, given in either
//! width. The eager `estimate` is simply fit then inference, so a
//! deferred p-value has the eager one's bits. The lattice walk ranks,
//! prunes and stops on CATE alone and reads a p-value only for a node
//! that can enter its best-k list, so it holds the fit and runs the
//! inference for those few nodes only. Every estimate path shares one
//! residual routine, which adds the `t·β₁` term at the treated positions
//! only.
//!
//! # Numeric modes
//!
//! Every reduction above dispatches on [`stats::numeric::NumericMode`]
//! (carried by `CateOptions::numeric_mode`):
//!
//! * `Exact` (default) keeps the ascending-order serial accumulation
//!   described throughout this file — the historical bit-replay contract.
//! * `FastV1` swaps the kernels for 8-lane strided partial sums folded in
//!   the pinned order of [`stats::numeric::fold8`]. The sparse gathers
//!   assign lanes by *visitation rank* ([`stats::numeric::LaneAcc`]), so
//!   the dense membership scan, the local sparse gather and the sampled
//!   gather still agree bit-for-bit with each other — the mode has its own
//!   internal determinism contract, it is just not bit-identical to
//!   `Exact`.
//!
//! `FastV1` additionally enables incremental Gram *downdating*
//! ([`EstimationContext::fit_downdated`]): when a lattice candidate's
//! treated rowset is a subset of its parent's, the `tᵀy`/`tᵀZ` moments are
//! derived by subtracting the removed rows' contributions from the
//! parent's cached [`TreatmentMoments`] instead of re-gathering `O(|T|·q)`.
//! FP subtraction cannot replay a fold order, so downdating is never used
//! in `Exact` mode — the walk falls back to a full regather there, keeping
//! the contract intact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use stats::matrix::Matrix;
use stats::numeric::{self, LaneAcc, NumericMode};
use stats::ols::{BorderedBlocks, GramFit, INLINE_COEFS};
use table::bitset::{BitSet, Projector};
use table::{Column, Table};

use crate::estimate::{append_confounder, onehot_levels, CateOptions, CateResult};

/// One candidate's treated rows as every per-candidate row pass reads
/// them, resolved from a treated set of either width by [`Scope::walk`]:
/// the gather, the `FastV1` downdate and the residual's `t·β₁` term all
/// walk the rows through [`TreatedRows::for_each`].
#[derive(Clone, Copy)]
struct TreatedRows<'a> {
    mask: &'a BitSet,
    /// `Some`: `mask` is in local coordinates and these are the sampled
    /// local indices. `None`: bit `i` of `mask` already is sampled
    /// position `i`.
    sampled: Option<&'a Projector>,
}

impl TreatedRows<'_> {
    /// The row walker: calls `visit` with the sampled position of every
    /// treated row, in ascending order. Under sampling each word of the
    /// mask is ANDed with the sampled word first, so an unsampled row is
    /// never visited, let alone read.
    #[inline]
    fn for_each(self, visit: impl FnMut(usize)) {
        match self.sampled {
            None => self.mask.for_each_set(visit),
            Some(s) => s.for_each_local(self.mask, visit),
        }
    }

    /// How many rows [`TreatedRows::for_each`] visits.
    fn count(self) -> usize {
        match self.sampled {
            None => self.mask.count(),
            Some(s) => self.mask.intersection_count(s.universe()),
        }
    }
}

/// The treatment- *and* confounder-independent scope of one
/// `(subpopulation, outcome, opts)` triple: the estimator settings, the
/// sampled row list and local indices, the outcome gather and its sums.
/// Built by exactly one function ([`Scope::build`]) and shared: a
/// [`SubpopPanel`] and every context it assembles hold one `Arc` of it,
/// and the cold [`EstimationContext::new`] builds its own the same way —
/// the bit-identity contract requires both paths to sample, gather and
/// accumulate identically.
///
/// The §5.2(d) sample is the sorted local ranks [`draw_sample`] keeps: a
/// function of the seed, the subpopulation's size and the cap alone, so a
/// [`SampleMemo`] holds it once per session per size. Given the ranks,
/// the build reads the sampled rows off the subpopulation's words by
/// popcount ([`BitSet::select`]) in `O(cap + words)`; only a memo miss,
/// or a build without a memo, replays the shuffle.
struct Scope {
    min_arm: usize,
    /// Which reduction kernels every estimate runs (see the module docs).
    mode: NumericMode,
    /// Subpopulation row ids (after the §5.2(d) sampling), ascending.
    rows: Vec<usize>,
    /// Local coordinate width: subpopulation size before sampling (=
    /// table width when unscoped).
    sub_n: usize,
    /// The sampled local indices, present only when the §5.2(d) sampling
    /// dropped rows; `None` = local index `i` is sampled position `i`.
    /// A sampled local index's position is its rank among them (see the
    /// [row walker](self#the-row-walker)).
    sampled: Option<Projector>,
    /// Outcome gathered over `rows`.
    y: Vec<f64>,
    /// `Σy` over `rows`.
    sum_y: f64,
    /// `yᵀy` over `rows` — the constant term of the `FastV1` RSS shortcut
    /// (see `EstimationContext::rss`). Mode-dispatched through the shared
    /// dot kernel so cold builds and panel assemblies agree bit for bit.
    sum_y_sq: f64,
}

impl Scope {
    /// `None` when the outcome attribute is categorical: every estimate
    /// would be `None`. The sample's ranks come from `samples` when given,
    /// and are drawn afresh otherwise; either way they are the same.
    fn build(
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        opts: &CateOptions,
        samples: Option<&SampleMemo>,
    ) -> Option<Self> {
        let ycol = table.column(outcome);
        if matches!(ycol, Column::Cat { .. }) {
            return None;
        }
        let nrows = table.nrows();
        debug_assert!(nrows < u32::MAX as usize, "row ids must fit u32");
        debug_assert!(subpop.is_none_or(|bits| bits.capacity() == nrows));
        let sub_n = subpop.map_or(nrows, BitSet::count);
        let (rows, sampled) = match opts.sample_cap {
            Some(cap) if sub_n > cap => {
                let (held, drawn);
                let ranks: &[u32] = match samples {
                    Some(memo) => {
                        held = memo.ranks(opts.seed, sub_n, cap);
                        &held
                    }
                    None => {
                        drawn = draw_sample(opts.seed, sub_n, cap);
                        &drawn
                    }
                };
                // Rows and local ranks ascend together, so sampled
                // position `i` holds the `i`-th smallest sampled rank.
                let rows = match subpop {
                    Some(bits) => bits.select(ranks),
                    None => ranks.iter().map(|&l| l as usize).collect(),
                };
                let mut kept = BitSet::new(sub_n);
                for &l in ranks {
                    kept.insert(l as usize);
                }
                (rows, Some(Projector::new(&kept)))
            }
            _ => {
                let rows = match subpop {
                    Some(bits) => {
                        let mut rows = Vec::with_capacity(sub_n);
                        bits.for_each_set(|r| rows.push(r));
                        rows
                    }
                    None => (0..nrows).collect(),
                };
                (rows, None)
            }
        };

        let y: Vec<f64> = rows.iter().map(|&r| ycol.get_f64(r)).collect();
        let sum_y = numeric::sum(opts.numeric_mode, &y);
        let sum_y_sq = numeric::dot(opts.numeric_mode, &y, &y);

        Some(Scope {
            min_arm: opts.min_arm,
            mode: opts.numeric_mode,
            rows,
            sub_n,
            sampled,
            y,
            sum_y,
            sum_y_sq,
        })
    }

    /// `treated` as the row walker reads it. Its width names its
    /// coordinates: `sub_n` bits are local, `rows.len()` bits are
    /// positions in the sample. The widths differ exactly when `sampled`
    /// is set, so only a local set under sampling walks through it.
    fn walk<'a>(&'a self, treated: &'a BitSet) -> TreatedRows<'a> {
        let width = treated.capacity();
        assert!(
            width == self.sub_n || width == self.rows.len(),
            "a treated set of {width} bits, neither the local width {} nor the {} rows",
            self.sub_n,
            self.rows.len()
        );
        TreatedRows {
            mask: treated,
            sampled: self.sampled.as_ref().filter(|_| width == self.sub_n),
        }
    }

    /// Does a split of the rows into `n_treated` treated units and the
    /// rest meet the overlap requirement (Eq. 4)?
    fn overlap_ok(&self, n_treated: usize) -> bool {
        n_treated >= self.min_arm && self.rows.len() - n_treated >= self.min_arm
    }
}

/// The §5.2(d) sample of a subpopulation of `n` rows under `(seed, cap)`:
/// the local ranks (a row's index among the subpopulation's rows, in
/// ascending order) that a Fisher–Yates shuffle of `0..n` seeded with
/// `seed` puts in its first `cap` places, sorted. The shuffle consumes the
/// RNG exactly as the naive estimator's shuffle of the bare row list does
/// (same length, same positional swaps), so the sampled rows are the same.
fn draw_sample(seed: u64, n: usize, cap: usize) -> Vec<u32> {
    let mut ranks: Vec<u32> = (0..n as u32).collect();
    ranks.shuffle(&mut StdRng::seed_from_u64(seed));
    ranks.truncate(cap);
    ranks.sort_unstable();
    ranks
}

/// The §5.2(d) samples of a session, keyed by `(seed, subpopulation size,
/// cap)`: a sample depends on nothing else, so each is drawn once and
/// read by every later scope of that size, whatever its rows. The memo
/// holds at most [`SampleMemo::MAX_RANKS`] ranks in all and empties
/// itself before an insert would pass that; a sample larger than the
/// bound is drawn on every lookup and never held. Lookups read under a
/// shared lock; a miss looks again and draws under the write lock, so
/// concurrent misses on one key draw once between them, and
/// [`SampleMemo::drawn`] counts the draws.
///
/// ```
/// use causal::context::SampleMemo;
///
/// let memo = SampleMemo::new();
/// let a = memo.ranks(7, 1_000, 40);
/// assert_eq!(a.len(), 40);
/// assert!(a.windows(2).all(|w| w[0] < w[1]) && a[39] < 1_000);
/// // The same key is a hit: no second draw, the same ranks.
/// assert_eq!(memo.ranks(7, 1_000, 40), a);
/// assert_eq!(memo.drawn(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SampleMemo {
    held: RwLock<HeldSamples>,
    drawn: AtomicUsize,
}

/// The samples a [`SampleMemo`] holds.
#[derive(Debug, Default)]
struct HeldSamples {
    by_key: HashMap<(u64, usize, usize), Arc<[u32]>>,
    /// Ranks held, summed over `by_key`.
    ranks: usize,
}

impl SampleMemo {
    /// Ranks the memo holds at most, summed over its samples.
    pub const MAX_RANKS: usize = 1 << 20;

    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted local ranks of the sample of a subpopulation of `n` rows
    /// under `(seed, cap)` — `0..n` when `n ≤ cap` — drawn on the first
    /// lookup of the key.
    pub fn ranks(&self, seed: u64, n: usize, cap: usize) -> Arc<[u32]> {
        let key = (seed, n, cap);
        let find = |held: &HeldSamples| held.by_key.get(&key).cloned();
        if let Some(hit) = find(&self.held.read().unwrap_or_else(PoisonError::into_inner)) {
            return hit;
        }
        let mut held = self.held.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = find(&held) {
            return hit;
        }
        self.drawn.fetch_add(1, Ordering::Relaxed);
        let ranks: Arc<[u32]> = draw_sample(seed, n, cap).into();
        if ranks.len() <= Self::MAX_RANKS {
            if held.ranks + ranks.len() > Self::MAX_RANKS {
                *held = HeldSamples::default();
            }
            held.by_key.insert(key, Arc::clone(&ranks));
            held.ranks += ranks.len();
        }
        ranks
    }

    /// Samples drawn so far (memo misses).
    pub fn drawn(&self) -> usize {
        self.drawn.load(Ordering::Relaxed)
    }

    /// Ranks held now, summed over the held samples; never more than
    /// [`SampleMemo::MAX_RANKS`].
    pub fn held(&self) -> usize {
        self.held
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .ranks
    }
}

/// Mode-dispatched sum of one design column — the `1ᵀz` Gram border.
/// Shared by the cold build and the panel so the accumulation order can
/// never drift between them. In `Exact` mode this is the serial
/// ascending-order fold; `FastV1` uses the 8-lane strided kernel.
fn col_sum(mode: NumericMode, c: &[f64]) -> f64 {
    numeric::sum(mode, c)
}

/// Mode-dispatched ascending-row dot product of two equal-length columns —
/// the single accumulation every `ZᵀZ` entry and `zᵀy` border goes
/// through, on both construction paths. In `Exact` mode it folds from
/// `0.0` in index order — the exact per-entry addition sequence of
/// [`stats::matrix::Matrix::gram`] / `tr_mul_vec` over a materialized
/// design; `FastV1` uses the 8-lane strided kernel.
fn col_dot(mode: NumericMode, a: &[f64], b: &[f64]) -> f64 {
    numeric::dot(mode, a, b)
}

/// A categorical confounder as one level code per row instead of `d`
/// dense one-hot columns. Codes `0..d` are the kept dummies — the
/// attribute's design columns, in order — and code `d` covers the
/// reference level and every truncated level, which have no column.
struct LevelCodes {
    codes: Vec<u32>,
    d: usize,
}

/// One confounder attribute's share of a context's design `Z`.
#[derive(Clone)]
enum ZBlock {
    /// One dense design column: a numeric confounder's values or, on the
    /// cold oracle path, one one-hot dummy.
    Dense(Arc<Vec<f64>>),
    /// A categorical confounder's level codes (the panel's encoding).
    Coded(Arc<LevelCodes>),
}

impl ZBlock {
    /// Design columns the block spans.
    fn width(&self) -> usize {
        match self {
            ZBlock::Dense(_) => 1,
            ZBlock::Coded(c) => c.d,
        }
    }
}

/// A context's confounder design, laid out once when the context is
/// built: every block in design-column order (the order the residual
/// adds its terms in), plus the gather's split of the same blocks into
/// dense columns and level histograms.
#[derive(Default)]
struct Design {
    /// `(first design column, block)`, in design-column order. Coded
    /// blocks without a kept level are left out: they span no column.
    blocks: Vec<(usize, ZBlock)>,
    /// Design columns in total (`q`).
    q: usize,
    /// `(design column, values)` of every dense block.
    dense: Vec<(usize, Arc<Vec<f64>>)>,
    /// `(first design column, first histogram slot, codes)` of every coded
    /// block. A coded block owns `d + 1` slots, the last one the
    /// reference's.
    coded: Vec<(usize, usize, Arc<LevelCodes>)>,
    /// Histogram slots in total.
    slots: usize,
}

impl Design {
    fn new(blocks: impl IntoIterator<Item = ZBlock>) -> Self {
        let mut z = Design::default();
        for b in blocks {
            let col = z.q;
            match &b {
                ZBlock::Dense(v) => z.dense.push((col, Arc::clone(v))),
                ZBlock::Coded(c) if c.d == 0 => continue,
                ZBlock::Coded(c) => {
                    z.coded.push((col, z.slots, Arc::clone(c)));
                    z.slots += c.d + 1;
                }
            }
            z.q += b.width();
            z.blocks.push((col, b));
        }
        z
    }

    /// Call `f(design column, count)` for every kept level of every coded
    /// block, reading the counts from a histogram laid out by `coded`.
    fn for_each_count(&self, hist: &[u32], mut f: impl FnMut(usize, f64)) {
        for (col, slot, c) in &self.coded {
            for (l, &k) in hist[*slot..*slot + c.d].iter().enumerate() {
                f(col + l, f64::from(k));
            }
        }
    }
}

/// One design block's `Zβ` term of ŷ (see `EstimationContext::z_terms`).
enum ZTerm<'a> {
    /// A dense column and its coefficient: adds `z·β_j`.
    Dense(&'a [f64], f64),
    /// Level codes and the coefficient of each code (the reference's
    /// `+0.0` last): adds `β[code]`.
    Coded(&'a [u32], Vec<f64>),
}

/// Add the `Zβ` terms to `yhat`, which holds ŷ of the positions from
/// `start` on, term by term in design-column order. Where the dense
/// design adds `β_l` plus `d − 1` products `0·β_j = ±0`, a coded term
/// adds `β_l` alone, or `+0.0` at a reference row. The two ŷ can then
/// differ only in the sign of a zero; later terms keep it that way, and
/// the squared residual erases the sign.
fn add_z_terms(terms: &[ZTerm<'_>], yhat: &mut [f64], start: usize) {
    for term in terms {
        match term {
            ZTerm::Dense(col, b) => {
                for (v, &z) in yhat.iter_mut().zip(&col[start..]) {
                    *v += z * b;
                }
            }
            ZTerm::Coded(codes, lut) => {
                for (v, &c) in yhat.iter_mut().zip(&codes[start..]) {
                    *v += lut[c as usize];
                }
            }
        }
    }
}

/// Columns one walk of the gather/downdate kernel folds at most: `y` and
/// up to three dense columns, then groups of four, each group in a walk
/// of its own.
const FOLD_GROUP: usize = 4;

/// Histogram slots the kernel keeps on the stack; more come from the heap.
const HIST_STACK: usize = 128;

/// One accumulator kind of the gather/downdate kernel
/// ([`EstimationContext::fold_rows`]): how the walked rows' values of one
/// column fold into one scalar.
trait Fold: Clone {
    /// Fold the next walked row's value.
    fn push(&mut self, v: f64);

    /// The folded scalar.
    fn finish(&self) -> f64;
}

/// The `Exact` gather: one serial sum per column, from `+0.0`.
#[derive(Clone, Default)]
struct Serial(f64);

impl Fold for Serial {
    #[inline]
    fn push(&mut self, v: f64) {
        self.0 += v;
    }

    fn finish(&self) -> f64 {
        self.0
    }
}

/// The `FastV1` gather: eight lanes per column, lane = visitation rank.
impl Fold for LaneAcc {
    #[inline]
    fn push(&mut self, v: f64) {
        LaneAcc::push(self, v);
    }

    fn finish(&self) -> f64 {
        LaneAcc::finish(self)
    }
}

/// The downdate: one serial subtraction per column from the parent's
/// value, in ascending row order, whatever the numeric mode.
#[derive(Clone)]
struct Downdate(f64);

impl Fold for Downdate {
    #[inline]
    fn push(&mut self, v: f64) {
        self.0 -= v;
    }

    fn finish(&self) -> f64 {
        self.0
    }
}

/// Walk `rows` once for the `N` columns `cols(0..N)`, folding every
/// walked position's values into `acc[..N]` in ascending order, and call
/// `each` per position. The accumulators are locals for the whole walk, so
/// a serial fold keeps them in registers and its add chain's latency hides
/// the rest of the row's work.
#[inline]
fn fold_group<'c, A: Fold, const N: usize>(
    acc: &mut [A; FOLD_GROUP],
    cols: impl Fn(usize) -> &'c [f64],
    rows: TreatedRows<'_>,
    mut each: impl FnMut(usize),
) {
    let c: [&[f64]; N] = std::array::from_fn(&cols);
    let mut a: [A; N] = std::array::from_fn(|k| acc[k].clone());
    rows.for_each(|i| {
        for k in 0..N {
            a[k].push(c[k][i]);
        }
        each(i);
    });
    acc[..N].clone_from_slice(&a);
}

/// `Z_aᵀZ_b` of two coded attributes, `d_a × d_b` row-major: one pass
/// counting the rows of every level pair. Each entry is the dense dot of
/// two 0/1 columns — an integer count, which `f64` holds exactly.
fn contingency(a: &LevelCodes, b: &LevelCodes) -> Vec<f64> {
    let w = b.d + 1;
    let mut cnt = vec![0u32; (a.d + 1) * w];
    for (&ca, &cb) in a.codes.iter().zip(&b.codes) {
        cnt[ca as usize * w + cb as usize] += 1;
    }
    cnt.chunks_exact(w)
        .take(a.d)
        .flat_map(|row| row[..b.d].iter().map(|&k| f64::from(k)))
        .collect()
}

/// The treatment-block moments of one evaluated candidate — everything a
/// subset child needs to derive its own blocks by *downdating* instead of
/// re-gathering. Cached on kept lattice nodes by the treatment miner
/// (FastV1 mode only; see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct TreatmentMoments {
    /// Treated units among the context's (sampled) rows.
    pub n_treated: usize,
    /// `tᵀy`.
    pub ty: f64,
    /// `tᵀZ` — one entry per cached design column.
    pub tz: Vec<f64>,
}

/// The fit half of one regression estimate (see [Deferred
/// inference](self#deferred-inference)): `β` with the treatment
/// coefficient's `(XᵀX)⁻¹` diagonal, plus the arm counts. It already
/// decides the CATE and whether the estimate exists;
/// [`EstimationContext::p_value`] on the context and treated set it came
/// from adds the p-value.
#[derive(Debug, Clone)]
pub struct RegressionFit {
    fit: GramFit,
    /// `tᵀy` — the one treatment-dependent entry of `Xᵀy`, read by the
    /// `FastV1` RSS shortcut.
    ty: f64,
    n_treated: usize,
    n_control: usize,
}

impl RegressionFit {
    /// Estimated CATE: the treatment coefficient `β₁`.
    pub fn cate(&self) -> f64 {
        self.fit.beta[1]
    }

    /// Treated units among the context's (sampled) rows.
    pub fn n_treated(&self) -> usize {
        self.n_treated
    }

    /// Control units among the context's (sampled) rows.
    pub fn n_control(&self) -> usize {
        self.n_control
    }

    /// The fit half as [`stats::ols`](mod@stats::ols) returns it: `β`, and through
    /// [`GramFit::p_value`] the p-value of a residual sum of squares.
    pub fn gram(&self) -> &GramFit {
        &self.fit
    }
}

/// Treatment-independent state of CATE estimation, cached per
/// `(subpopulation, confounder set)` pair. See the module docs.
///
/// Built either cold by [`EstimationContext::new`] (one `O(n·q²)` pass
/// over dense one-hot columns — the oracle) or assembled from a
/// [`SubpopPanel`]'s precomputed blocks (`O(q²)` stitching, sharing the
/// scope and level codes with every other context of the same
/// subpopulation). Both construction paths yield bit-identical estimates.
pub struct EstimationContext {
    /// The subpopulation's scope: settings, (sampled) rows and outcome.
    /// Shared with the panel, and hence with sibling contexts, when
    /// panel-assembled.
    scope: Arc<Scope>,
    /// The confounder design over the scope's rows: numerics raw,
    /// categoricals as level codes when panel-assembled (shared with the
    /// panel) or as dense one-hot columns when built cold.
    z: Design,
    /// `1ᵀZ` — per-column sums of the design.
    sum_z: Vec<f64>,
    /// `ZᵀZ` — the fixed `q×q` Gram block.
    zz: Matrix,
    /// `Zᵀy`.
    zy: Vec<f64>,
}

impl EstimationContext {
    /// Build the cache for one subpopulation (`None` = whole table) and
    /// confounder set. Returns `None` when the outcome attribute is
    /// categorical — every per-treatment estimate would be `None` anyway.
    ///
    /// Sampling (`opts.sample_cap`) is applied here, once — reproducing
    /// the naive path, which samples the identical row list with the
    /// identical seed on every call.
    ///
    /// Categorical confounders become dense one-hot columns here, as in
    /// the naive estimators; [`SubpopPanel::assemble`] gives the same bits
    /// from level codes.
    pub fn new(
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        confounders: &[usize],
        opts: &CateOptions,
    ) -> Option<Self> {
        let scope = Scope::build(table, subpop, outcome, opts, None)?;

        // The dense one-hot encoding: this cold build is the oracle the
        // panel's level codes are tested against.
        let mut raw: Vec<Vec<f64>> = Vec::new();
        for &z in confounders {
            append_confounder(table, z, &scope.rows, opts.max_onehot_levels, &mut raw);
        }
        let z_cols: Vec<Arc<Vec<f64>>> = raw.into_iter().map(Arc::new).collect();

        let q = z_cols.len();
        let mode = opts.numeric_mode;
        let sum_z: Vec<f64> = z_cols.iter().map(|c| col_sum(mode, c)).collect();
        // ZᵀZ / Zᵀy run through the shared `col_dot` kernel — in Exact
        // mode the same per-entry addition sequence as Matrix::gram /
        // tr_mul_vec over the full design, which is what makes the fits
        // bit-identical.
        let mut zz = Matrix::zeros(q, q);
        for i in 0..q {
            for j in i..q {
                let s = col_dot(mode, &z_cols[i], &z_cols[j]);
                zz[(i, j)] = s;
                zz[(j, i)] = s;
            }
        }
        let zy: Vec<f64> = z_cols.iter().map(|c| col_dot(mode, c, &scope.y)).collect();

        Some(EstimationContext {
            scope: Arc::new(scope),
            z: Design::new(z_cols.into_iter().map(ZBlock::Dense)),
            sum_z,
            zz,
            zy,
        })
    }

    /// Rows used by every estimate from this context (after sampling):
    /// the width of a treated set over [`EstimationContext::rows`].
    pub fn n(&self) -> usize {
        self.scope.rows.len()
    }

    /// The table rows every estimate from this context reads (after
    /// sampling), ascending: bit `i` of a treated set of
    /// [`EstimationContext::n`] bits is row `rows()[i]`.
    pub fn rows(&self) -> &[usize] {
        &self.scope.rows
    }

    /// The subpopulation size before sampling: the width of a treated set
    /// in local coordinates (bit `i` = the `i`-th subpopulation row).
    /// Equal to [`EstimationContext::n`] exactly when sampling dropped no
    /// row.
    pub fn local_width(&self) -> usize {
        self.scope.sub_n
    }

    /// Number of cached confounder design columns.
    pub fn num_design_cols(&self) -> usize {
        self.z.q
    }

    /// Estimate the effect of `treated` (a row set over the *full* table)
    /// eagerly: [`EstimationContext::fit`] then
    /// [`EstimationContext::p_value`]. Equivalent to
    /// [`crate::estimate::estimate_cate`] on the same inputs.
    pub fn estimate(&self, treated: &BitSet) -> Option<CateResult> {
        // The dense membership scan over the row list yields a set over
        // the context's rows; from there the walker and kernels are the
        // sparse path's.
        let mut mask = BitSet::new(self.n());
        for (i, &r) in self.scope.rows.iter().enumerate() {
            if treated.contains(r) {
                mask.insert(i);
            }
        }
        let fit = self.fit_untracked(&mask)?;
        Some(CateResult {
            cate: fit.cate(),
            p_value: self.p_value(&fit, &mask),
            n: self.n(),
            n_treated: fit.n_treated,
            n_control: fit.n_control,
        })
    }

    /// The fit half of a regression estimate (see [Deferred
    /// inference](self#deferred-inference)) of `treated`, in local
    /// coordinates or over the context's rows as its width says: the
    /// sparse gather, the overlap gate, the Gram, Cholesky, `β` and the
    /// treatment coefficient's `(XᵀX)⁻¹` diagonal, plus the gathered
    /// [`TreatmentMoments`]. `None` exactly when the estimate does not
    /// exist; [`EstimationContext::p_value`] on the same rows completes
    /// it. A set of either width naming the same rows gives the same
    /// bits: the sparse walk visits the identical rows in the identical
    /// order as the dense membership scan of
    /// [`EstimationContext::estimate`].
    pub fn fit(&self, treated: &BitSet) -> Option<(RegressionFit, TreatmentMoments)> {
        let rows = self.gated(treated)?;
        let mut tz = vec![0.0; self.z.q];
        let (n_treated, ty) = self.gather(rows, &mut tz);
        let fit = self.fit_regression(n_treated, ty, &tz)?;
        Some((fit, TreatmentMoments { n_treated, ty, tz }))
    }

    /// [`EstimationContext::fit`] without the moments, for a caller that
    /// will not downdate from them: the same fit, bit for bit. The `tᵀZ`
    /// scratch stays on the stack, so for a design of at most
    /// `INLINE_COEFS − 2` columns and 128 level-histogram slots, whose Gram
    /// factors without the ridge fallback, the fit allocates nothing.
    pub fn fit_untracked(&self, treated: &BitSet) -> Option<RegressionFit> {
        const TZ_STACK: usize = INLINE_COEFS - 2;
        let rows = self.gated(treated)?;
        let q = self.z.q;
        let mut small = [0.0; TZ_STACK];
        let mut large = Vec::new();
        let tz: &mut [f64] = if q <= TZ_STACK {
            &mut small[..q]
        } else {
            large.resize(q, 0.0);
            &mut large
        };
        let (n_treated, ty) = self.gather(rows, tz);
        self.fit_regression(n_treated, ty, tz)
    }

    /// `treated`'s rows for the walker, when they pass the overlap gate.
    /// The arm counts are a popcount (of `treated ∧ sampled` under
    /// sampling), so the gate runs before paying for the gather.
    fn gated<'a>(&'a self, treated: &'a BitSet) -> Option<TreatedRows<'a>> {
        let rows = self.scope.walk(treated);
        // Overlap (Eq. 4).
        self.scope.overlap_ok(rows.count()).then_some(rows)
    }

    /// The fit of a candidate whose treated rows are `parent`'s minus
    /// `removed` (either width, as for [`EstimationContext::fit`]): derive
    /// the treatment blocks by subtracting the removed rows'
    /// contributions from the parent's cached moments — `O(|removed|·k)`
    /// for `k` design blocks instead of the `O(|T|·k)` regather — then
    /// solve as usual. Returns the child's own moments for further
    /// downdating; [`EstimationContext::p_value`] on the child's rows
    /// completes it.
    ///
    /// FP subtraction cannot replay a fold order, so the result is within
    /// rounding of (not bit-identical to) the direct gather; the lattice
    /// walk therefore only calls this in `FastV1` mode. The integer
    /// `n_treated` is exact, so the overlap gate and arm counts match the
    /// direct path precisely.
    pub fn fit_downdated(
        &self,
        parent: &TreatmentMoments,
        removed: &BitSet,
    ) -> Option<(RegressionFit, TreatmentMoments)> {
        // Subtract removed rows in ascending order; rows the §5.2(d)
        // sampling dropped never entered the parent's moments, and the
        // walker skips them. A coded block's entries are integer counts,
        // so subtracting the removed rows' level histogram at once has
        // the bits of subtracting 1 row by row.
        let dense = &self.z.dense;
        let mut tz = parent.tz.clone();
        let init = |k: usize| {
            Downdate(match k {
                0 => parent.ty,
                _ => parent.tz[dense[k - 1].0],
            })
        };
        let (removed_rows, ty) =
            self.fold_rows(self.scope.walk(removed), init, &mut tz, |t, count| {
                *t -= count
            });
        let n_treated = parent.n_treated - removed_rows;
        let fit = self.fit_regression(n_treated, ty, &tz)?;
        Some((fit, TreatmentMoments { n_treated, ty, tz }))
    }

    /// The inference half of a fit from [`EstimationContext::fit`] or
    /// [`EstimationContext::fit_downdated`]: the residual pass, `s²` and
    /// the Student-t tail. `treated` is the candidate's rows, in either
    /// width — the rows the fit was made for. The result has the bits of
    /// the eager estimate's p-value.
    pub fn p_value(&self, fit: &RegressionFit, treated: &BitSet) -> f64 {
        fit.fit.p_value(self.rss(fit, treated))
    }

    /// Accumulate the treatment blocks `tᵀy` / `tᵀZ` over the walked rows
    /// (ascending), with the context's numeric kernels: `tᵀZ` into `tz`
    /// (one entry per design column), and the rows walked and `tᵀy`
    /// returned. Sparse: only the treated (sampled) rows are visited, so
    /// the t-blocks cost `O(|T|·k)` for `k` design blocks instead of
    /// `O(n·q)`. In `Exact` mode the sums are the historical serial fold;
    /// in `FastV1` they fold into eight lanes by visitation rank — so the
    /// dense membership scan, the local sparse gather and the sampled
    /// gather all produce identical bits whenever they visit the same
    /// positions in the same order. A coded block's `tᵀZ_a` is a level
    /// histogram: each entry of a dense one-hot gather is a sum of 0/1
    /// values, an integer that every fold order gives exactly.
    fn gather(&self, rows: TreatedRows<'_>, tz: &mut [f64]) -> (usize, f64) {
        let set = |t: &mut f64, count| *t = count;
        match self.scope.mode {
            NumericMode::Exact => self.fold_rows(rows, |_| Serial::default(), tz, set),
            NumericMode::FastV1 => self.fold_rows(rows, |_| LaneAcc::new(), tz, set),
        }
    }

    /// The one gather/downdate kernel. It folds the walked rows into one
    /// accumulator per column of `[y, dense…]` (`init(k)` starts column
    /// `k`), up to [`FOLD_GROUP`] columns per walk, with the accumulators
    /// in registers for the whole walk; a `Vec` accumulator would cost a
    /// load and a store per row. Every accumulator sees its rows in
    /// ascending order, so each fold has the bits of a per-row pass: the
    /// serial sum for `Exact`, lane = visitation rank for `FastV1`, the
    /// serial subtraction for a downdate. The first walk also counts each
    /// coded block's level histogram.
    /// A dense column's folded value lands in its entry of `tz`, and every
    /// coded block's histogram goes through `count(&mut tz[j], c)` with
    /// the walked rows `c` of the kept level behind design column `j`.
    /// Returns the rows walked and `y`'s folded value.
    fn fold_rows<A: Fold>(
        &self,
        rows: TreatedRows<'_>,
        init: impl Fn(usize) -> A,
        tz: &mut [f64],
        count: impl Fn(&mut f64, f64),
    ) -> (usize, f64) {
        let y = self.scope.y.as_slice();
        let cols = |k: usize| -> &[f64] {
            match k {
                0 => y,
                _ => &self.z.dense[k - 1].1,
            }
        };
        let slots = self.z.slots;
        let mut small = [0u32; HIST_STACK];
        let mut large = Vec::new();
        let hist: &mut [u32] = if slots <= HIST_STACK {
            &mut small[..slots]
        } else {
            large.resize(slots, 0);
            &mut large
        };
        let coded = &self.z.coded;
        let (mut walked, mut ty) = (0, 0.0);
        let total = 1 + self.z.dense.len();
        for first in (0..total).step_by(FOLD_GROUP) {
            let n = (total - first).min(FOLD_GROUP);
            // Slots past `n` are padding that no walk folds into.
            let mut acc: [A; FOLD_GROUP] = std::array::from_fn(|k| init(first + k.min(n - 1)));
            let cols = |k: usize| cols(first + k);
            let counting = first == 0;
            let each = |i: usize| {
                if counting {
                    walked += 1;
                    for (_, slot, c) in coded {
                        hist[slot + c.codes[i] as usize] += 1;
                    }
                }
            };
            match n {
                1 => fold_group::<A, 1>(&mut acc, cols, rows, each),
                2 => fold_group::<A, 2>(&mut acc, cols, rows, each),
                3 => fold_group::<A, 3>(&mut acc, cols, rows, each),
                _ => fold_group::<A, 4>(&mut acc, cols, rows, each),
            }
            for (k, a) in acc[..n].iter().enumerate() {
                match first + k {
                    0 => ty = a.finish(),
                    k => tz[self.z.dense[k - 1].0] = a.finish(),
                }
            }
        }
        self.z.for_each_count(hist, |j, c| count(&mut tz[j], c));
        (walked, ty)
    }

    /// The fit half shared by every regression estimate, from the
    /// gathered t-blocks (`n_treated` treated rows, `tᵀy`, `tᵀZ`): overlap
    /// gate, then [`BorderedBlocks::fit_at`] on the cached fixed blocks
    /// plus the t-blocks for the treatment coefficient, in scratch.
    fn fit_regression(&self, n_treated: usize, ty: f64, tz: &[f64]) -> Option<RegressionFit> {
        if !self.scope.overlap_ok(n_treated) {
            return None; // Overlap (Eq. 4) violated.
        }
        let n = self.scope.rows.len();
        // Inference only at index 1 — the treatment coefficient is the
        // only one estimation consumes; its se/p-value come out of the
        // same factor/solve path bit for bit.
        let fit = BorderedBlocks {
            n,
            n_treated,
            sum_y: self.scope.sum_y,
            ty,
            sum_z: &self.sum_z,
            tz,
            zz: &self.zz,
            zy: &self.zy,
        }
        .fit_at(1)?;
        Some(RegressionFit {
            fit,
            ty,
            n_treated,
            n_control: n - n_treated,
        })
    }

    /// ŷ after the naive row-major loop's first two terms, in its order:
    /// `1·β₀` everywhere, then `t·β₁` at the treated positions.
    fn yhat_1t(&self, beta: &[f64], treated: TreatedRows<'_>) -> Vec<f64> {
        let mut yhat = vec![beta[0]; self.scope.rows.len()];
        treated.for_each(|i| yhat[i] += beta[1]);
        yhat
    }

    /// The `Zβ` terms of ŷ, one per design block in design-column order.
    /// A coded block's `β` is looked up by level through a table whose
    /// reference slot holds `+0.0`, with no branch on the level.
    fn z_terms<'s>(&'s self, beta: &[f64]) -> Vec<ZTerm<'s>> {
        self.z
            .blocks
            .iter()
            .map(|(j, b)| match b {
                ZBlock::Dense(col) => ZTerm::Dense(col, beta[2 + j]),
                ZBlock::Coded(c) => {
                    let mut lut = beta[2 + j..2 + j + c.d].to_vec();
                    lut.push(0.0);
                    ZTerm::Coded(&c.codes, lut)
                }
            })
            .collect()
    }

    /// The residual sum of squares of `fit` on `treated`, the rows the fit
    /// was made for — the one residual routine behind every estimate, which
    /// [`EstimationContext::p_value`] reads; public as a hook for the
    /// tests that hold the residual pass to a per-row reference, since the
    /// p-value's square root can hide an ulp. The walker yields the
    /// sampled positions of the treated rows in ascending order, and the
    /// `t·β₁` term is added at those positions only: a skipped
    /// `+ 0.0·β₁` can at most flip the sign of a zero, which the squared
    /// residual erases, so the sum has the bits of a dense pass over every
    /// row. Coded confounders skip their `0·β` terms the same way (see
    /// `add_z_terms`). The `FastV1` shortcut reads the fit's `tᵀy`.
    #[doc(hidden)]
    pub fn rss(&self, fit: &RegressionFit, treated: &BitSet) -> f64 {
        let treated = self.scope.walk(treated);
        let (beta, ty) = (&fit.fit.beta[..], fit.ty);
        if self.scope.mode == NumericMode::FastV1 {
            // Normal-equation identity: for β solving XᵀXβ = Xᵀy,
            // RSS = yᵀy − βᵀ(Xᵀy) — O(p) from the cached yᵀy and
            // the assembled border [Σy, tᵀy, Zᵀy], skipping the
            // O(n·q) data pass entirely. The identity cancels
            // catastrophically when the fit is near-exact
            // (RSS ≪ yᵀy), so it is guarded: anything below
            // RSS_SHORTCUT_GUARD·yᵀy falls back to the data pass,
            // capping the shortcut's relative rounding error
            // around eps/GUARD ≈ 1e-12 — well inside the 1e-9
            // cross-mode tolerance. Both branches are deterministic
            // functions of (β, Xᵀy, data), so FastV1 stays
            // bit-identical across threads and cache layers.
            const RSS_SHORTCUT_GUARD: f64 = 1e-4;
            let mut bxty = 0.0;
            let xty = [self.scope.sum_y, ty]
                .into_iter()
                .chain(self.zy.iter().copied());
            for (b, v) in beta.iter().zip(xty) {
                bxty += b * v;
            }
            let shortcut = self.scope.sum_y_sq - bxty;
            if shortcut > RSS_SHORTCUT_GUARD * self.scope.sum_y_sq {
                return shortcut;
            }
        }
        // Residual pass over virtual rows [1, t, z…], evaluated
        // column-major into a ŷ buffer: each element sees the exact
        // per-term addition sequence of the naive row-major loop (init =
        // 1·β₀, then t·β₁, then z_j·β_{2+j} in column order). The z terms
        // are applied to one L1-resident block of ŷ at a time, which then
        // folds its residuals: serially across blocks in `Exact` (the
        // naive pass's sum, which the algebraic shortcut above cannot
        // replay), into the 8 lanes in `FastV1`. BLOCK is a multiple of 8,
        // so the lane a global index lands in is `index & 7` — identical
        // to one unblocked lane pass (pinned by the blocked-vs-whole-array
        // test in stats::numeric) — while ŷ is touched once per block
        // instead of q+1 times over the whole array.
        const BLOCK: usize = 4096;
        let n = self.scope.rows.len();
        let mut yhat = self.yhat_1t(beta, treated);
        let terms = self.z_terms(beta);
        let mut serial = 0.0;
        let mut lanes = [0.0f64; 8];
        let mut s = 0;
        while s < n {
            let e = (s + BLOCK).min(n);
            add_z_terms(&terms, &mut yhat[s..e], s);
            let (y, yhat) = (&self.scope.y[s..e], &yhat[s..e]);
            match self.scope.mode {
                NumericMode::Exact => {
                    for (&yi, &vh) in y.iter().zip(yhat) {
                        let d = yi - vh;
                        serial += d * d;
                    }
                }
                NumericMode::FastV1 => numeric::lane_sq_diff_into(&mut lanes, y, yhat),
            }
            s = e;
        }
        match self.scope.mode {
            NumericMode::Exact => serial,
            NumericMode::FastV1 => numeric::fold8(lanes),
        }
    }
}

/// Per-attribute design blocks of a [`SubpopPanel`]: one confounder
/// attribute over the panel's (sampled) rows, plus the
/// treatment-independent Gram borders it contributes.
struct AttrBlocks {
    /// The attribute's design block — a numeric confounder's values, a
    /// categorical one's level codes — shared with assembled contexts.
    z: ZBlock,
    /// `1ᵀZ_a` — per-column sums; a coded block's are its level counts.
    sum_z: Vec<f64>,
    /// `Z_aᵀy`.
    zy: Vec<f64>,
}

/// The shared confounder panel of one subpopulation — every
/// treatment-independent quantity that distinct backdoor sets of the same
/// subpopulation would otherwise rebuild per [`EstimationContext`]: the
/// sampled row list, the outcome vector with `Σy`/`yᵀy`, each encoded
/// attribute's design columns (with their `1ᵀZ_a`/`Z_aᵀy` borders), and
/// the pairwise cross-Gram blocks `Z_aᵀZ_b`. Attribute and pair blocks
/// materialize lazily on first use; [`SubpopPanel::assemble`] stitches a
/// context for a concrete confounder set in `O(q²)` from them. See the
/// [module docs](self) for the bit-identity argument.
pub struct SubpopPanel {
    /// The subpopulation's scope, shared with every assembled context;
    /// `None` when the outcome attribute is categorical — every assembly
    /// returns `None`, mirroring [`EstimationContext::new`].
    scope: Option<Arc<Scope>>,
    max_onehot_levels: usize,
    /// Lazily materialized per-attribute blocks.
    attrs: HashMap<usize, AttrBlocks>,
    /// Lazily materialized cross-Gram blocks, keyed `(min(a,b), max(a,b))`
    /// and stored row-major as `q_lo × q_hi`.
    pairs: HashMap<(usize, usize), Vec<f64>>,
}

impl SubpopPanel {
    /// Build the panel's subpopulation-level state, the scope every
    /// assembled context shares: row list (with the §5.2(d) sampling
    /// applied exactly as [`EstimationContext::new`] applies it), outcome
    /// gather, `Σy` and `yᵀy`. Attribute and pair blocks are deferred to
    /// first use — which attributes matter depends on the backdoor sets
    /// the walk actually touches.
    pub fn new(table: &Table, subpop: Option<&BitSet>, outcome: usize, opts: &CateOptions) -> Self {
        Self::build(table, subpop, outcome, opts, None)
    }

    /// [`SubpopPanel::new`] with the §5.2(d) sample read from `samples`,
    /// which draws it only on a miss: the same rows, so the same bits.
    pub fn with_samples(
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        opts: &CateOptions,
        samples: &SampleMemo,
    ) -> Self {
        Self::build(table, subpop, outcome, opts, Some(samples))
    }

    fn build(
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        opts: &CateOptions,
        samples: Option<&SampleMemo>,
    ) -> Self {
        SubpopPanel {
            scope: Scope::build(table, subpop, outcome, opts, samples).map(Arc::new),
            max_onehot_levels: opts.max_onehot_levels,
            attrs: HashMap::new(),
            pairs: HashMap::new(),
        }
    }

    /// Distinct confounder attributes materialized so far.
    pub fn attrs_built(&self) -> usize {
        self.attrs.len()
    }

    /// Distinct cross-Gram blocks materialized so far.
    pub fn pairs_built(&self) -> usize {
        self.pairs.len()
    }

    /// Materialize the design blocks of one attribute (no-op when cached).
    fn ensure_attr(&mut self, scope: &Scope, table: &Table, attr: usize) {
        if self.attrs.contains_key(&attr) {
            return;
        }
        let blocks = match table.column(attr) {
            Column::Cat { codes, dict } => self.code_attr(scope, codes, dict.len()),
            col => {
                let x: Vec<f64> = scope.rows.iter().map(|&r| col.get_f64(r)).collect();
                // The same shared border kernels the cold build runs.
                AttrBlocks {
                    sum_z: vec![col_sum(scope.mode, &x)],
                    zy: vec![col_dot(scope.mode, &x, &scope.y)],
                    z: ZBlock::Dense(Arc::new(x)),
                }
            }
        };
        self.attrs.insert(attr, blocks);
    }

    /// Encode a categorical confounder as level codes in two passes over
    /// the rows: gather the table's codes while counting each level, then
    /// remap them to design codes (kept levels by [`onehot_levels`], the
    /// rest to the reference code) while summing `y` per level.
    fn code_attr(&self, scope: &Scope, table_codes: &[u32], levels: usize) -> AttrBlocks {
        let mut freq = vec![0usize; levels];
        let mut codes: Vec<u32> = scope
            .rows
            .iter()
            .map(|&r| {
                let c = table_codes[r];
                freq[c as usize] += 1;
                c
            })
            .collect();
        let kept = onehot_levels(&freq, self.max_onehot_levels);
        let d = kept.len();
        let mut remap = vec![d as u32; levels];
        for (l, &level) in kept.iter().enumerate() {
            remap[level] = l as u32;
        }
        let zy = numeric::group_sums(scope.mode, d, &scope.y, |r| {
            let c = remap[codes[r] as usize];
            codes[r] = c;
            c as usize
        });
        AttrBlocks {
            z: ZBlock::Coded(Arc::new(LevelCodes { codes, d })),
            // A 0/1 column sums to its count in any fold order.
            sum_z: kept.iter().map(|&level| freq[level] as f64).collect(),
            zy,
        }
    }

    /// Materialize the cross-Gram block of an attribute pair (no-op when
    /// cached), stored row-major as `q_lo × q_hi`. Both attributes must
    /// already be materialized. Dense pairs go through the shared
    /// `col_dot` kernel the cold build runs; every block that involves a
    /// coded attribute is a count or a per-level sum with the dense
    /// dot's bits (see [`numeric::group_sums`]).
    fn ensure_pair(&mut self, mode: NumericMode, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        if self.pairs.contains_key(&key) {
            return;
        }
        let (lo, hi) = key;
        let (za, zb) = (&self.attrs[&lo], &self.attrs[&hi]);
        let block = match (&za.z, &zb.z) {
            (ZBlock::Dense(x), ZBlock::Dense(w)) => vec![col_dot(mode, x, w)],
            (ZBlock::Coded(c), _) if lo == hi => {
                // A dummy times itself is its count; two dummies of one
                // attribute never share a row.
                let mut block = vec![0.0; c.d * c.d];
                for (l, &k) in za.sum_z.iter().enumerate() {
                    block[l * c.d + l] = k;
                }
                block
            }
            (ZBlock::Coded(ca), ZBlock::Coded(cb)) => contingency(ca, cb),
            (ZBlock::Dense(x), ZBlock::Coded(c)) | (ZBlock::Coded(c), ZBlock::Dense(x)) => {
                numeric::group_sums(mode, c.d, x, |r| c.codes[r] as usize)
            }
        };
        self.pairs.insert(key, block);
    }

    /// Assemble the [`EstimationContext`] for one confounder set by
    /// stitching the panel's blocks — bit-identical to
    /// [`EstimationContext::new`] on the same `(table, subpop, outcome,
    /// opts)` scope, at `O(q²)` placement cost for already-materialized
    /// blocks. Returns `None` when the outcome attribute is categorical.
    pub fn assemble(&mut self, table: &Table, confounders: &[usize]) -> Option<EstimationContext> {
        let scope = Arc::clone(self.scope.as_ref()?);
        for &a in confounders {
            self.ensure_attr(&scope, table, a);
        }
        for (i, &a) in confounders.iter().enumerate() {
            for &b in &confounders[i..] {
                self.ensure_pair(scope.mode, a, b);
            }
        }

        // Stitch the per-attribute borders in confounder order — the
        // order the cold build encodes them in.
        let mut sum_z: Vec<f64> = Vec::new();
        let mut zy: Vec<f64> = Vec::new();
        let mut offsets = Vec::with_capacity(confounders.len());
        for &a in confounders {
            let blk = &self.attrs[&a];
            offsets.push(sum_z.len());
            sum_z.extend_from_slice(&blk.sum_z);
            zy.extend_from_slice(&blk.zy);
        }
        let z = Design::new(confounders.iter().map(|a| self.attrs[a].z.clone()));
        let mut zz = Matrix::zeros(z.q, z.q);
        for (ai, &a) in confounders.iter().enumerate() {
            let qa = self.attrs[&a].z.width();
            let oa = offsets[ai];
            for (bj, &b) in confounders.iter().enumerate().skip(ai) {
                let qb = self.attrs[&b].z.width();
                let ob = offsets[bj];
                let block = &self.pairs[&(a.min(b), a.max(b))];
                for i in 0..qa {
                    for j in 0..qb {
                        // Stored q_lo × q_hi; read transposed when the set
                        // orders the pair descending (same f64 — the
                        // products commute bit-exactly).
                        let v = if a <= b {
                            block[i * qb + j]
                        } else {
                            block[j * qa + i]
                        };
                        zz[(oa + i, ob + j)] = v;
                        zz[(ob + j, oa + i)] = v;
                    }
                }
            }
        }

        Some(EstimationContext {
            scope,
            z,
            sum_z,
            zz,
            zy,
        })
    }
}

/// A confounder set with a dense id, the key [`ContextCache`] is indexed
/// by. Two keys with one id must hold one set. The treatment miner's
/// backdoor memo interns every set it hands out, so equal sets share an id
/// and a lookup needs no hash of the set and no copy of it.
#[derive(Debug, Clone)]
pub struct ConfounderKey {
    id: usize,
    set: Arc<[usize]>,
}

impl ConfounderKey {
    /// The key of confounder set `set` under id `id`; the caller keeps ids
    /// one-to-one with sets.
    pub fn new(id: usize, set: impl Into<Arc<[usize]>>) -> Self {
        ConfounderKey {
            id,
            set: set.into(),
        }
    }

    /// The dense id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The confounder attribute ids.
    pub fn set(&self) -> &[usize] {
        &self.set
    }
}

/// A store of [`EstimationContext`]s for one fixed subpopulation, indexed
/// by [`ConfounderKey`] id. One lattice walk, both of its directions
/// included, touches only a handful of
/// distinct backdoor sets, so memoizing the context per set means each
/// `O(n·q²)` Gram build happens exactly once per subpopulation.
///
/// A failed build (categorical outcome) is recorded too, so it is not
/// retried per candidate. `builds()` counts build *attempts* — the work
/// counter the treatment miner reports in its lattice statistics.
///
/// The cache routes builds through a shared [`SubpopPanel`] (see the
/// [module docs](self)): the first build materializes the
/// subpopulation-level state once, and every context is assembled from
/// panel blocks, with categorical confounders as level codes.
///
/// ```
/// use causal::context::{ConfounderKey, ContextCache};
/// use causal::estimate::CateOptions;
/// use table::bitset::BitSet;
/// use table::TableBuilder;
///
/// let table = TableBuilder::new()
///     .int("z", (0..40).map(|i| i % 5).collect::<Vec<i64>>()).unwrap()
///     .float("y", (0..40).map(|i| (i % 7) as f64).collect()).unwrap()
///     .build().unwrap();
/// let treated = BitSet::from_mask(&(0..40).map(|i| i % 2 == 0).collect::<Vec<bool>>());
/// let opts = CateOptions::default();
/// let (z, none) = (ConfounderKey::new(0, vec![0]), ConfounderKey::new(1, vec![]));
///
/// let mut cache = ContextCache::new();
/// // First use materializes the shared panel and assembles the {z}
/// // context; the repeat is an indexed lookup of the same context.
/// let a = cache.get_or_build(&table, None, 1, &z, &opts)
///     .unwrap().estimate(&treated).unwrap();
/// let b = cache.get_or_build(&table, None, 1, &z, &opts)
///     .unwrap().estimate(&treated).unwrap();
/// assert_eq!(cache.builds(), 1);
/// assert_eq!(a.cate.to_bits(), b.cate.to_bits());
///
/// // A second confounder set reuses the panel's row list, outcome and
/// // z-blocks instead of re-gathering them.
/// cache.get_or_build(&table, None, 1, &none, &opts).unwrap();
/// assert_eq!(cache.builds(), 2);
/// assert_eq!(cache.panel().unwrap().attrs_built(), 1);
/// ```
#[derive(Default)]
pub struct ContextCache {
    /// By key id: `None` until the set is first built, then the set and
    /// its context (`None` when the build failed).
    slots: Vec<Option<(Arc<[usize]>, Option<Arc<EstimationContext>>)>>,
    builds: usize,
    /// The panel, created on the first build.
    panel: Option<SubpopPanel>,
    /// Where the panel reads its §5.2(d) sample; `None` draws it afresh.
    samples: Option<Arc<SampleMemo>>,
}

impl ContextCache {
    /// Empty cache, whose panel draws its §5.2(d) sample afresh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache whose panel reads its §5.2(d) sample from `samples`
    /// ([`SubpopPanel::with_samples`]).
    pub fn with_samples(samples: Arc<SampleMemo>) -> Self {
        ContextCache {
            samples: Some(samples),
            ..Self::default()
        }
    }

    /// The shared subpopulation panel, once the first build has
    /// materialized it.
    pub fn panel(&self) -> Option<&SubpopPanel> {
        self.panel.as_ref()
    }

    /// Number of context build attempts performed — one
    /// [`SubpopPanel::assemble`] call per distinct confounder set
    /// (including failed builds, which are also cached).
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// Already-built context for key id `id`, if any. `None` both when the
    /// set was never built and when its build failed. Immutable — the
    /// lookup a deferred p-value makes after its level was prepared.
    pub fn get(&self, id: usize) -> Option<&EstimationContext> {
        self.slots.get(id)?.as_ref()?.1.as_deref()
    }

    /// Context for `key`, building (and caching) it on first use. All
    /// calls must pass the same `(table, subpop, outcome, opts)` — the
    /// cache (and its panel) is scoped to one subpopulation. The context
    /// is behind an `Arc`, so scheduler tasks can carry it into a chunk
    /// evaluation without borrowing the cache (whose owner may be mutated
    /// — e.g. to prepare the *next* level — while earlier chunks are still
    /// in flight).
    ///
    /// The first call materializes the [`SubpopPanel`]; every context is
    /// assembled from its blocks.
    pub fn get_or_build(
        &mut self,
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        key: &ConfounderKey,
        opts: &CateOptions,
    ) -> Option<&Arc<EstimationContext>> {
        if self.slots.len() <= key.id {
            self.slots.resize_with(key.id + 1, || None);
        }
        let slot = &mut self.slots[key.id];
        if slot.is_none() {
            self.builds += 1;
            let samples = self.samples.as_deref();
            let ctx = self
                .panel
                .get_or_insert_with(|| SubpopPanel::build(table, subpop, outcome, opts, samples))
                .assemble(table, &key.set);
            *slot = Some((Arc::clone(&key.set), ctx.map(Arc::new)));
        }
        let (set, ctx) = slot.as_ref()?;
        debug_assert_eq!(**set, *key.set, "one key id, two confounder sets");
        ctx.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_cate;
    use rand::Rng;
    use table::TableBuilder;

    /// Confounded data (same SCM as estimate.rs's tests): Z ~ {0..4},
    /// T | Z, Y = 10T + 5Z + noise.
    fn confounded(n: usize, seed: u64) -> (Table, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let zi: i64 = rng.gen_range(0..5);
            let ti = rng.gen_bool(0.1 + 0.18 * zi as f64);
            let noise: f64 = rng.gen_range(-1.0..1.0);
            z.push(zi);
            t.push(ti);
            y.push(10.0 * ti as i64 as f64 + 5.0 * zi as f64 + noise);
        }
        let table = TableBuilder::new()
            .int("z", z)
            .unwrap()
            .float("y", y)
            .unwrap()
            .build()
            .unwrap();
        (table, t)
    }

    #[test]
    fn context_matches_naive_exactly() {
        let (table, treated) = confounded(3_000, 7);
        let opts = CateOptions::default();
        let tbits = BitSet::from_mask(&treated);
        let ctx = EstimationContext::new(&table, None, 1, &[0], &opts).unwrap();
        let cached = ctx.estimate(&tbits).unwrap();
        let naive = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert_eq!(cached.cate, naive.cate, "bit-identical CATE");
        assert_eq!(cached.p_value, naive.p_value, "bit-identical p-value");
        assert_eq!(cached.n, naive.n);
        assert_eq!(cached.n_treated, naive.n_treated);
    }

    #[test]
    fn context_respects_subpop_and_sampling() {
        let (table, treated) = confounded(6_000, 21);
        let subpop: Vec<bool> = (0..6_000).map(|i| i % 3 != 0).collect();
        let opts = CateOptions {
            sample_cap: Some(1_500),
            seed: 99,
            ..CateOptions::default()
        };
        let sub_bits = BitSet::from_mask(&subpop);
        let tbits = BitSet::from_mask(&treated);
        let ctx = EstimationContext::new(&table, Some(&sub_bits), 1, &[0], &opts).unwrap();
        assert_eq!(ctx.n(), 1_500);
        let cached = ctx.estimate(&tbits).unwrap();
        let naive = estimate_cate(&table, Some(&subpop), &treated, 1, &[0], &opts).unwrap();
        assert_eq!(cached.cate, naive.cate);
        assert_eq!(cached.p_value, naive.p_value);
        assert_eq!(cached.n, 1_500);
    }

    /// The row walker never reads an unsampled row: on a sampled context,
    /// `fit`, `fit_downdated` and `p_value` on local masks give the same bits
    /// whether or not the masks' unsampled bits are cleared first, in both
    /// numeric modes. The outcome's large offset makes the `FastV1` RSS
    /// shortcut fall back to the data pass, so its `t·β₁` walk runs too.
    #[test]
    fn sampled_walk_ignores_unsampled_bits() {
        let n = 6_000;
        let mut rng = StdRng::seed_from_u64(23);
        let z: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
        let treated: Vec<bool> = z
            .iter()
            .map(|&zi| rng.gen_bool(0.2 + 0.1 * zi as f64))
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                1e3 + 10.0 * treated[i] as i64 as f64 + 5.0 * z[i] as f64 + rng.gen_range(-1.0..1.0)
            })
            .collect();
        let table = TableBuilder::new()
            .int("z", z)
            .unwrap()
            .float("y", y)
            .unwrap()
            .build()
            .unwrap();
        let subpop = BitSet::from_mask(&(0..n).map(|i| i % 4 != 1).collect::<Vec<_>>());
        let parent = Projector::new(&subpop).project(&BitSet::from_mask(&treated));
        let mut child = parent.clone();
        for l in parent.iter().filter(|l| l % 3 == 0) {
            child.remove(l);
        }
        let removed = parent.difference(&child);
        let moment_bits = |m: &TreatmentMoments| -> (usize, u64, Vec<u64>) {
            (
                m.n_treated,
                m.ty.to_bits(),
                m.tz.iter().map(|v| v.to_bits()).collect(),
            )
        };
        for mode in [NumericMode::Exact, NumericMode::FastV1] {
            let opts = CateOptions {
                sample_cap: Some(800),
                seed: 5,
                numeric_mode: mode,
                ..CateOptions::default()
            };
            let ctx = EstimationContext::new(&table, Some(&subpop), 1, &[0], &opts).unwrap();
            let sampled = ctx
                .scope
                .sampled
                .as_ref()
                .expect("the cap drops rows")
                .universe();
            let clear = |m: &BitSet| {
                let mut c = m.clone();
                c.intersect_with(sampled);
                c
            };
            for m in [&parent, &child, &removed] {
                assert!(
                    m.difference_count(sampled) > 0,
                    "{mode:?}: unsampled bits set"
                );
            }

            let (fit, moments) = ctx.fit(&parent).unwrap();
            let (fit_c, moments_c) = ctx.fit(&clear(&parent)).unwrap();
            assert_eq!(fit.cate().to_bits(), fit_c.cate().to_bits(), "{mode:?}");
            assert_eq!(moment_bits(&moments), moment_bits(&moments_c), "{mode:?}");
            let p = ctx.p_value(&fit, &parent);
            assert_eq!(p.to_bits(), ctx.p_value(&fit, &clear(&parent)).to_bits());

            let (down, down_m) = ctx.fit_downdated(&moments, &removed).unwrap();
            let (down_c, down_mc) = ctx.fit_downdated(&moments, &clear(&removed)).unwrap();
            assert_eq!(down.cate().to_bits(), down_c.cate().to_bits(), "{mode:?}");
            assert_eq!(moment_bits(&down_m), moment_bits(&down_mc), "{mode:?}");
            let p_child = ctx.p_value(&down, &child);
            assert_eq!(
                p_child.to_bits(),
                ctx.p_value(&down, &clear(&child)).to_bits()
            );
            assert!(p.is_finite() && p_child.is_finite(), "{mode:?}");
        }
    }

    #[test]
    fn context_overlap_violation_returns_none() {
        let (table, _) = confounded(100, 3);
        let all = BitSet::full(100);
        let ctx = EstimationContext::new(&table, None, 1, &[0], &CateOptions::default()).unwrap();
        assert!(ctx.estimate(&all).is_none());
    }

    #[test]
    fn categorical_outcome_rejected_at_build() {
        let table = TableBuilder::new()
            .cat("c", &["a"; 50])
            .unwrap()
            .build()
            .unwrap();
        assert!(EstimationContext::new(&table, None, 0, &[], &CateOptions::default()).is_none());
    }

    #[test]
    fn context_cache_builds_each_set_once() {
        let (table, treated) = confounded(1_000, 11);
        let opts = CateOptions::default();
        let mut cache = ContextCache::new();
        let tbits = BitSet::from_mask(&treated);
        let (z, none) = (
            ConfounderKey::new(3, vec![0]),
            ConfounderKey::new(0, vec![]),
        );
        for _ in 0..4 {
            let ctx = cache.get_or_build(&table, None, 1, &z, &opts).unwrap();
            assert!(ctx.estimate(&tbits).is_some());
            let _ = cache.get_or_build(&table, None, 1, &none, &opts).unwrap();
        }
        assert_eq!(cache.builds(), 2, "one build per distinct confounder set");
        assert!(cache.get(3).is_some() && cache.get(0).is_some());
        assert!(cache.get(1).is_none() && cache.get(7).is_none());
        // Failed builds (categorical outcome) are cached too.
        let cat = TableBuilder::new()
            .cat("c", &["a"; 50])
            .unwrap()
            .build()
            .unwrap();
        let mut cache = ContextCache::new();
        for _ in 0..3 {
            let none = ConfounderKey::new(0, vec![]);
            assert!(cache.get_or_build(&cat, None, 0, &none, &opts).is_none());
        }
        assert_eq!(cache.builds(), 1);
    }

    #[test]
    fn many_treatments_one_context() {
        // The intended usage pattern: one context, many treatment columns.
        let (table, _) = confounded(2_000, 31);
        let opts = CateOptions::default();
        let ctx = EstimationContext::new(&table, None, 1, &[0], &opts).unwrap();
        for k in 2..6 {
            let mask: Vec<bool> = (0..2_000).map(|i| i % k == 0).collect();
            let cached = ctx.estimate(&BitSet::from_mask(&mask));
            let naive = estimate_cate(&table, None, &mask, 1, &[0], &opts);
            match (cached, naive) {
                (Some(c), Some(nv)) => {
                    assert_eq!(c.cate, nv.cate);
                    assert_eq!(c.p_value, nv.p_value);
                }
                (c, nv) => assert_eq!(c.is_none(), nv.is_none()),
            }
        }
    }
}
