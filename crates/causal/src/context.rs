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
//! solve runs through [`stats::ols::fit_from_gram_at`]; the `O(n·p²)` Gram
//! pass, the full-table row scan and the one-hot re-encoding disappear
//! from the hot loop. All block sums accumulate in ascending row order
//! with the same skip-exact-zero semantics as
//! [`stats::matrix::Matrix::gram`], so the fit — CATE, standard errors,
//! p-values — is bit-identical to the naive path, not merely close.
//!
//! Treatments arrive in either of two coordinate systems:
//!
//! * [`EstimationContext::estimate`] takes a row set over the *full
//!   table* and scans the cached row list testing membership (`O(n)`
//!   probes);
//! * [`EstimationContext::estimate_local`] takes a set in the
//!   subpopulation's *local* coordinates (bit `i` = the `i`-th
//!   subpopulation row, see [`table::bitset::Projector`]) and gathers the
//!   `t`-blocks sparsely by walking only its set bits (`O(|T|·k)` for `k`
//!   confounder attributes, see [Level codes](self#level-codes)).
//!   Ascending bit order visits the identical rows in the identical order
//!   as the dense scan, so both entry points produce bit-identical fits.
//!
//! # The row walker
//!
//! Every per-candidate row pass — the `tᵀy`/`tᵀZ` gather, the `FastV1`
//! downdate of a parent's moments, and the residual's `t·β₁` term — reads
//! the treated rows through one word-level walker (`TreatedRows`). It
//! yields the *sampled positions* of the treated rows in ascending order.
//! When the §5.2(d) sampling dropped rows, the context keeps the sampled
//! local indices as a bitset with per-word rank prefixes (a
//! [`table::bitset::Projector`] over them). The walker ANDs each word of
//! the local mask with the sampled word before visiting any bit, and a
//! visited bit's position is its rank among the sampled indices. So a
//! treated row the sample left out is never visited: a sampled estimate
//! reads only the rows it uses, not every treated row of the
//! subpopulation. Without sampling a local index is its position. The
//! passes read the design's dense columns and level codes as slices
//! hoisted out of the row loop, in a layout each context fixes once when
//! it is built. Each accumulator sees its rows in ascending order, so
//! every fold — `Exact`'s serial sum, `FastV1`'s lane = visitation rank
//! `& 7` — has the bits of a per-row pass over the same positions.
//!
//! The IPW backend reuses the same cache: the propensity design `[1, Z]`
//! is treatment-independent, so the context pre-assembles it once and each
//! evaluation only re-fits the logistic regression on a fresh `t` gather.
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
//! subpopulation, it materializes the sampled row list, `y`, `Σy`, `yᵀy`,
//! and — lazily, on first use — each confounder attribute's design block
//! with its `1ᵀZ_a` / `Z_aᵀy` vectors, plus every requested pairwise
//! cross-Gram block `Z_aᵀZ_b` (including `a = b`).
//! [`SubpopPanel::assemble`] then builds the context for a concrete
//! confounder set by *stitching* the relevant blocks — `O(q²)` placement
//! instead of the `O(n·q²)` accumulation pass — and sharing the
//! row/outcome/design buffers via [`Arc`].
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
//! removed rows' histogram, the residual adds `β` looked up by level
//! through a table whose reference slot holds `+0.0`, and the IPW backend
//! builds its dense propensity design from them. The cold
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
//! [`EstimationContext::fit_local`] and
//! [`EstimationContext::fit_downdated`] return the fit as a
//! [`RegressionFit`]; [`EstimationContext::p_value_local`] runs the
//! inference later, on the same context and mask. Both halves run
//! today's exact arithmetic, so a deferred p-value has the same bits as
//! the eager one, and the public `estimate`, `estimate_local`,
//! `estimate_local_moments` and `estimate_downdated` are simply fit then
//! inference. The lattice walk ranks, prunes and stops on CATE alone and
//! reads a p-value only for a node that can enter its best-k list, so it
//! holds the fit and runs the inference for those few nodes only. Every
//! estimate path shares one residual routine (`rss`), which adds the
//! `t·β₁` term at the treated positions only.
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
//! ([`EstimationContext::estimate_downdated`]): when a lattice candidate's
//! treated rowset is a subset of its parent's, the `tᵀy`/`tᵀZ` moments are
//! derived by subtracting the removed rows' contributions from the
//! parent's cached [`TreatmentMoments`] instead of re-gathering `O(|T|·q)`.
//! FP subtraction cannot replay a fold order, so downdating is never used
//! in `Exact` mode — the walk falls back to a full regather there, keeping
//! the contract intact.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use stats::matrix::Matrix;
use stats::numeric::{self, LaneAcc, NumericMode};
use stats::ols::{fit_from_gram_at, gram_from_blocks, GramFit};
use table::bitset::{BitSet, Projector};
use table::{Column, Table};

use crate::estimate::{
    append_confounder, onehot_levels, CateOptions, CateResult, EstimatorBackend,
};
use crate::ipw::ipw_from_parts;

/// One candidate's treated rows as every per-candidate row pass reads
/// them: the gather, the `FastV1` downdate and the residual's `t·β₁`
/// term all walk the rows through [`TreatedRows::for_each`].
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
/// `(subpopulation, outcome, opts)` triple: sampled row list, sampled
/// local indices, outcome gather and its sums. Derived by exactly one function
/// ([`ScopeState::build`]) so the cold [`EstimationContext::new`] build
/// and the [`SubpopPanel`] can never drift apart — the bit-identity
/// contract requires both to sample, gather and accumulate identically.
struct ScopeState {
    /// Subpopulation row ids (after the §5.2(d) sampling for the
    /// regression backend), ascending.
    rows: Arc<Vec<usize>>,
    /// Local coordinate width: subpopulation size before sampling.
    sub_n: usize,
    /// The sampled local indices, present only when the §5.2(d) sampling
    /// dropped rows; `None` = local index `i` is sampled position `i`.
    /// A sampled local index's position is its rank among them (see the
    /// [row walker](self#the-row-walker)).
    sampled: Option<Arc<Projector>>,
    /// Outcome gathered over `rows`; `None` when the outcome attribute
    /// is categorical (every estimate would be `None`).
    y: Option<Arc<Vec<f64>>>,
    /// `Σy` over `rows` (regression backend with numeric outcome only).
    sum_y: f64,
    /// `yᵀy` over `rows` (same gating as `sum_y`) — the constant term of
    /// the `FastV1` RSS shortcut (see `EstimationContext::rss`).
    /// Mode-dispatched through the shared dot kernel so cold builds and
    /// panel assemblies agree bit for bit.
    sum_y_sq: f64,
}

impl ScopeState {
    fn build(table: &Table, subpop: Option<&BitSet>, outcome: usize, opts: &CateOptions) -> Self {
        let nrows = table.nrows();
        debug_assert!(nrows < u32::MAX as usize, "row ids must fit u32");
        // (global row, local rank) pairs — the local rank of a row is its
        // position among the subpopulation's rows in ascending order.
        let mut pairs: Vec<(usize, u32)> = match subpop {
            Some(bits) => {
                debug_assert_eq!(bits.capacity(), nrows);
                bits.iter()
                    .enumerate()
                    .map(|(l, r)| (r, l as u32))
                    .collect()
            }
            None => (0..nrows).map(|r| (r, r as u32)).collect(),
        };
        let sub_n = pairs.len();
        if opts.backend == EstimatorBackend::Regression {
            if let Some(cap) = opts.sample_cap {
                if pairs.len() > cap {
                    // Fisher–Yates over the pair vector consumes the RNG
                    // exactly as the seed's shuffle over the bare row
                    // vector did (same length, same positional swaps), so
                    // the sampled row list is bit-identical.
                    let mut rng = StdRng::seed_from_u64(opts.seed);
                    pairs.shuffle(&mut rng);
                    pairs.truncate(cap);
                    pairs.sort_unstable(); // deterministic design ordering
                }
            }
        }
        let rows: Vec<usize> = pairs.iter().map(|&(r, _)| r).collect();
        // Rows and local ranks ascend together, so sampled position `i`
        // holds the `i`-th smallest sampled local index — its rank.
        let sampled = (rows.len() < sub_n).then(|| {
            let mut bits = BitSet::new(sub_n);
            for &(_, l) in &pairs {
                bits.insert(l as usize);
            }
            Arc::new(Projector::new(&bits))
        });

        let ycol = table.column(outcome);
        let y: Option<Vec<f64>> = (!matches!(ycol, Column::Cat { .. }))
            .then(|| rows.iter().map(|&r| ycol.get_f64(r)).collect());
        let (sum_y, sum_y_sq) = match &y {
            Some(y) if opts.backend == EstimatorBackend::Regression => (
                numeric::sum(opts.numeric_mode, y),
                numeric::dot(opts.numeric_mode, y, y),
            ),
            _ => (0.0, 0.0),
        };

        ScopeState {
            rows: Arc::new(rows),
            sub_n,
            sampled,
            y: y.map(Arc::new),
            sum_y,
            sum_y_sq,
        }
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

    /// The dense columns and the coded blocks' `(first slot, codes)` as
    /// plain slices, hoisted out of a row loop.
    fn slices(&self) -> (Vec<&[f64]>, Vec<(usize, &[u32])>) {
        let dense = self.dense.iter().map(|(_, c)| c.as_slice()).collect();
        let coded = self
            .coded
            .iter()
            .map(|(_, s, c)| (*s, c.codes.as_slice()))
            .collect();
        (dense, coded)
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

/// A running sum in one numeric mode's gather order: [`SerialAcc`] for
/// `Exact`, [`LaneAcc`] (lane = visitation rank) for `FastV1`.
trait GatherAcc: Clone + Default {
    fn push(&mut self, v: f64);
    fn finish(&self) -> f64;
}

/// The `Exact` gather's serial fold, from `+0.0`.
#[derive(Clone, Default)]
struct SerialAcc(f64);

impl GatherAcc for SerialAcc {
    #[inline]
    fn push(&mut self, v: f64) {
        self.0 += v;
    }

    fn finish(&self) -> f64 {
        self.0
    }
}

impl GatherAcc for LaneAcc {
    #[inline]
    fn push(&mut self, v: f64) {
        LaneAcc::push(self, v);
    }

    fn finish(&self) -> f64 {
        LaneAcc::finish(self)
    }
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

/// Densify the propensity design `[1, Z]` for the IPW backend. Shared by
/// the cold build and the panel assembly — same values, same layout.
fn densify_prop(n: usize, z: &Design) -> Matrix {
    let mut x = Matrix::zeros(n, z.q + 1);
    for r in 0..n {
        x[(r, 0)] = 1.0;
        for (j, b) in &z.blocks {
            match b {
                ZBlock::Dense(col) => x[(r, j + 1)] = col[r],
                ZBlock::Coded(c) => {
                    let l = c.codes[r] as usize;
                    if l < c.d {
                        x[(r, j + 1 + l)] = 1.0;
                    }
                }
            }
        }
    }
    x
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
/// [`EstimationContext::p_value_local`] on the context and mask it came
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
}

/// Treatment-independent state of CATE estimation, cached per
/// `(subpopulation, confounder set)` pair. See the module docs.
///
/// Built either cold by [`EstimationContext::new`] (one `O(n·q²)` pass
/// over dense one-hot columns — the oracle) or assembled from a
/// [`SubpopPanel`]'s precomputed blocks (`O(q²)` stitching, sharing the
/// row list / outcome / level codes with every other context of the same
/// subpopulation). Both construction paths yield bit-identical estimates.
pub struct EstimationContext {
    backend: EstimatorBackend,
    min_arm: usize,
    /// Which reduction kernels every estimate runs (see the module docs).
    mode: NumericMode,
    /// Subpopulation row ids (after the §5.2(d) sampling for the
    /// regression backend), ascending. Shared with the panel (and hence
    /// with sibling contexts) when panel-assembled.
    rows: Arc<Vec<usize>>,
    /// Width of the local coordinate space: the subpopulation size
    /// *before* sampling (= table width when unscoped).
    sub_n: usize,
    /// The sampled local indices (see `ScopeState::sampled`); `None` =
    /// no row was dropped.
    sampled: Option<Arc<Projector>>,
    /// Outcome gathered over `rows`.
    y: Arc<Vec<f64>>,
    /// The confounder design over `rows`: numerics raw, categoricals as
    /// level codes when panel-assembled (shared with the panel) or as
    /// dense one-hot columns when built cold.
    z: Design,
    /// `Σ y` over `rows`.
    sum_y: f64,
    /// `yᵀy` over `rows` — constant term of the `FastV1` RSS shortcut
    /// (unused in `Exact` mode; see `EstimationContext::rss`).
    sum_y_sq: f64,
    /// `1ᵀZ` — per-column sums of the design.
    sum_z: Vec<f64>,
    /// `ZᵀZ` — the fixed `q×q` Gram block.
    zz: Matrix,
    /// `Zᵀy`.
    zy: Vec<f64>,
    /// Propensity design `[1, Z]` for the IPW backend (assembled lazily
    /// only when `backend == Ipw`).
    x_prop: Option<Matrix>,
}

impl EstimationContext {
    /// Build the cache for one subpopulation (`None` = whole table) and
    /// confounder set. Returns `None` when the outcome attribute is
    /// categorical — every per-treatment estimate would be `None` anyway.
    ///
    /// Sampling (`opts.sample_cap`) is applied here, once, for the
    /// regression backend — reproducing the naive path, which samples the
    /// identical row list with the identical seed on every call. The IPW
    /// backend does not sample (matching
    /// [`crate::ipw::estimate_cate_ipw`]).
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
        let scope = ScopeState::build(table, subpop, outcome, opts);
        let y = scope.y?; // categorical outcome

        // The dense one-hot encoding: this cold build is the oracle the
        // panel's level codes are tested against.
        let mut raw: Vec<Vec<f64>> = Vec::new();
        for &z in confounders {
            append_confounder(table, z, &scope.rows, opts.max_onehot_levels, &mut raw);
        }
        let z_cols: Vec<Arc<Vec<f64>>> = raw.into_iter().map(Arc::new).collect();

        let n = scope.rows.len();
        let q = z_cols.len();
        // Gram blocks are regression-only; the IPW backend never reads
        // them, so skip the O(n·q²) pass there.
        let (sum_z, zz, zy) = if opts.backend == EstimatorBackend::Regression {
            let mode = opts.numeric_mode;
            let sum_z: Vec<f64> = z_cols.iter().map(|c| col_sum(mode, c)).collect();
            // ZᵀZ / Zᵀy run through the shared `col_dot` kernel — in
            // Exact mode the same per-entry addition sequence as
            // Matrix::gram / tr_mul_vec over the full design, which is
            // what makes the fits bit-identical.
            let mut zz = Matrix::zeros(q, q);
            for i in 0..q {
                for j in i..q {
                    let s = col_dot(mode, &z_cols[i], &z_cols[j]);
                    zz[(i, j)] = s;
                    zz[(j, i)] = s;
                }
            }
            let zy: Vec<f64> = z_cols.iter().map(|c| col_dot(mode, c, &y)).collect();
            (sum_z, zz, zy)
        } else {
            (Vec::new(), Matrix::zeros(0, 0), Vec::new())
        };

        let mut z = Design::new(z_cols.into_iter().map(ZBlock::Dense));
        let x_prop = (opts.backend == EstimatorBackend::Ipw).then(|| densify_prop(n, &z));
        if opts.backend == EstimatorBackend::Ipw {
            // The propensity design is a dense copy of the same values;
            // keeping the design too would double the memory for nothing.
            z = Design::default();
        }

        Some(EstimationContext {
            backend: opts.backend,
            min_arm: opts.min_arm,
            mode: opts.numeric_mode,
            rows: scope.rows,
            sub_n: scope.sub_n,
            sampled: scope.sampled,
            y,
            z,
            sum_y: scope.sum_y,
            sum_y_sq: scope.sum_y_sq,
            sum_z,
            zz,
            zy,
            x_prop,
        })
    }

    /// The estimator backend the context was built for.
    pub fn backend(&self) -> EstimatorBackend {
        self.backend
    }

    /// Rows used by every estimate from this context (after sampling).
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Width of the local coordinate space accepted by
    /// [`EstimationContext::estimate_local`]: the subpopulation size
    /// before sampling.
    pub fn local_width(&self) -> usize {
        self.sub_n
    }

    /// Number of cached confounder design columns.
    pub fn num_design_cols(&self) -> usize {
        match &self.x_prop {
            Some(x) => x.ncols() - 1,
            None => self.z.q,
        }
    }

    /// Estimate the effect of `treated` (a row set over the *full* table)
    /// with whichever backend the context was built for. Equivalent to
    /// [`crate::estimate::estimate_effect`] on the same inputs.
    pub fn estimate(&self, treated: &BitSet) -> Option<CateResult> {
        match self.backend {
            EstimatorBackend::Regression => {
                // The dense membership scan over the row list yields a
                // mask over sampled positions; from there the walker and
                // kernels are the local path's.
                let mut mask = BitSet::new(self.rows.len());
                for (i, &r) in self.rows.iter().enumerate() {
                    if treated.contains(r) {
                        mask.insert(i);
                    }
                }
                let rows = TreatedRows {
                    mask: &mask,
                    sampled: None,
                };
                let fit = self.fit_regression(&self.gather(rows))?;
                Some(self.finish(fit, rows))
            }
            EstimatorBackend::Ipw => self.estimate_ipw(treated),
        }
    }

    /// Estimate the effect of `treated` given in the subpopulation's
    /// *local* coordinates (`capacity == local_width()`; bit `i` = the
    /// `i`-th subpopulation row in ascending row order — the coordinates
    /// produced by a [`table::bitset::Projector`] over the subpopulation).
    /// Bit-identical to [`EstimationContext::estimate`] on the unprojected
    /// set: the treatment blocks are gathered sparsely over the set bits
    /// in ascending order, which visits the identical rows in the
    /// identical order as the dense membership scan.
    pub fn estimate_local(&self, treated: &BitSet) -> Option<CateResult> {
        match self.backend {
            EstimatorBackend::Regression => {
                let (fit, _) = self.fit_local(treated)?;
                Some(self.finish(fit, self.local(treated)))
            }
            EstimatorBackend::Ipw => {
                let mut t = vec![false; self.rows.len()];
                self.local(treated).for_each(|i| t[i] = true);
                self.ipw_with_indicator(t)
            }
        }
    }

    /// `treated`, given in local coordinates, as the row walker reads it.
    fn local<'s>(&'s self, treated: &'s BitSet) -> TreatedRows<'s> {
        debug_assert_eq!(treated.capacity(), self.sub_n);
        TreatedRows {
            mask: treated,
            sampled: self.sampled.as_deref(),
        }
    }

    /// Accumulate the treatment blocks `tᵀy` / `tᵀZ` over the walked rows
    /// (ascending), with the context's numeric kernels. In `Exact` mode
    /// the sums are the historical serial fold; in `FastV1` they stream
    /// through a [`LaneAcc`], assigning lanes by visitation rank — so the
    /// dense membership scan, the local sparse gather and the sampled
    /// gather all produce identical bits whenever they visit the same
    /// positions in the same order. A coded block's `tᵀZ_a` is a level
    /// histogram: each entry of a dense one-hot gather is a sum of 0/1
    /// values, an integer that every fold order gives exactly.
    fn gather(&self, rows: TreatedRows<'_>) -> TreatmentMoments {
        match self.mode {
            NumericMode::Exact => self.gather_with::<SerialAcc>(rows),
            NumericMode::FastV1 => self.gather_with::<LaneAcc>(rows),
        }
    }

    fn gather_with<A: GatherAcc>(&self, rows: TreatedRows<'_>) -> TreatmentMoments {
        let y = self.y.as_slice();
        let (dense, coded) = self.z.slices();
        let mut n_treated = 0usize;
        let mut ty = A::default();
        let mut acc = vec![A::default(); dense.len()];
        let mut hist = vec![0u32; self.z.slots];
        rows.for_each(|i| {
            n_treated += 1;
            ty.push(y[i]);
            for (a, col) in acc.iter_mut().zip(&dense) {
                a.push(col[i]);
            }
            for &(slot, codes) in &coded {
                hist[slot + codes[i] as usize] += 1;
            }
        });
        let mut tz = vec![0.0; self.z.q];
        for ((j, _), a) in self.z.dense.iter().zip(&acc) {
            tz[*j] = a.finish();
        }
        self.z.for_each_count(&hist, |j, k| tz[j] = k);
        TreatmentMoments {
            n_treated,
            ty: ty.finish(),
            tz,
        }
    }

    /// [`EstimationContext::estimate_local`] for the regression backend,
    /// additionally returning the gathered [`TreatmentMoments`] so the
    /// lattice walk can cache them on the node for subset-child
    /// downdating. Identical estimate bits to `estimate_local`.
    pub fn estimate_local_moments(
        &self,
        treated: &BitSet,
    ) -> Option<(CateResult, TreatmentMoments)> {
        let (fit, moments) = self.fit_local(treated)?;
        Some((self.finish(fit, self.local(treated)), moments))
    }

    /// Estimate a candidate whose treated rowset (`treated`, local
    /// coordinates) is `parent`'s minus `removed`: derive the treatment
    /// blocks by subtracting the removed rows' contributions from the
    /// parent's cached moments — `O(|removed|·k)` for `k` design blocks
    /// instead of the `O(|T|·k)` regather — then solve as usual. Returns
    /// the child's own moments for further downdating.
    ///
    /// FP subtraction cannot replay a fold order, so the result is within
    /// rounding of (not bit-identical to) the direct gather; the lattice
    /// walk therefore only calls this in `FastV1` mode. The integer
    /// `n_treated` is exact, so the overlap gate and arm counts match the
    /// direct path precisely.
    pub fn estimate_downdated(
        &self,
        treated: &BitSet,
        parent: &TreatmentMoments,
        removed: &BitSet,
    ) -> Option<(CateResult, TreatmentMoments)> {
        let (fit, moments) = self.fit_downdated(parent, removed)?;
        Some((self.finish(fit, self.local(treated)), moments))
    }

    /// The fit half of [`EstimationContext::estimate_local_moments`]
    /// (regression backend; see [Deferred
    /// inference](self#deferred-inference)): the sparse gather, the
    /// overlap gate, the Gram, Cholesky, `β` and the treatment
    /// coefficient's `(XᵀX)⁻¹` diagonal, plus the gathered
    /// [`TreatmentMoments`]. `None` exactly when `estimate_local` returns
    /// `None`; [`EstimationContext::p_value_local`] on the same mask
    /// completes it.
    pub fn fit_local(&self, treated: &BitSet) -> Option<(RegressionFit, TreatmentMoments)> {
        debug_assert_eq!(self.backend, EstimatorBackend::Regression);
        let rows = self.local(treated);
        // The arm counts are a popcount (of `treated ∧ sampled` under
        // sampling), so the overlap gate runs before paying for the
        // gather.
        if !self.overlap_ok(rows.count()) {
            return None; // Overlap (Eq. 4) violated.
        }
        // Sparse gather: only the treated (sampled) rows are visited
        // (ascending = identical accumulation order to the dense scan),
        // so the t-blocks cost O(|T|·k) for k design blocks instead of
        // O(n·q).
        let moments = self.gather(rows);
        let fit = self.fit_regression(&moments)?;
        Some((fit, moments))
    }

    /// The fit half of [`EstimationContext::estimate_downdated`]: the
    /// child's moments by downdating `parent`, then the fit. The child's
    /// mask is needed only by the inference half
    /// ([`EstimationContext::p_value_local`]).
    pub fn fit_downdated(
        &self,
        parent: &TreatmentMoments,
        removed: &BitSet,
    ) -> Option<(RegressionFit, TreatmentMoments)> {
        debug_assert_eq!(self.backend, EstimatorBackend::Regression);
        let y = self.y.as_slice();
        let (dense, coded) = self.z.slices();
        let TreatmentMoments {
            mut n_treated,
            mut ty,
            mut tz,
        } = parent.clone();
        // Subtract removed rows in ascending local order; rows the
        // §5.2(d) sampling dropped never entered the parent's moments,
        // and the walker skips them. A coded block's entries are integer
        // counts, so subtracting the removed rows' level histogram at
        // once has the bits of subtracting 1 row by row.
        let mut hist = vec![0u32; self.z.slots];
        self.local(removed).for_each(|i| {
            n_treated -= 1;
            ty -= y[i];
            for ((j, _), col) in self.z.dense.iter().zip(&dense) {
                tz[*j] -= col[i];
            }
            for &(slot, codes) in &coded {
                hist[slot + codes[i] as usize] += 1;
            }
        });
        self.z.for_each_count(&hist, |j, k| tz[j] -= k);
        let moments = TreatmentMoments { n_treated, ty, tz };
        let fit = self.fit_regression(&moments)?;
        Some((fit, moments))
    }

    /// The inference half of a fit from [`EstimationContext::fit_local`]
    /// or [`EstimationContext::fit_downdated`]: the residual pass, `s²` and
    /// the Student-t tail. `treated` is the candidate's mask in local
    /// coordinates — the one the fit was made for. The result has the
    /// same bits as the p-value of the matching eager `estimate_*` call.
    pub fn p_value_local(&self, fit: &RegressionFit, treated: &BitSet) -> f64 {
        fit.fit
            .p_value(self.rss(&fit.fit.beta, fit.ty, self.local(treated)))
    }

    /// Does a split of the context's rows into `n_treated` treated units
    /// and the rest meet the overlap requirement (Eq. 4)?
    fn overlap_ok(&self, n_treated: usize) -> bool {
        n_treated >= self.min_arm && self.rows.len() - n_treated >= self.min_arm
    }

    /// The fit half shared by every regression estimate: overlap gate,
    /// Gram assembly from the cached fixed blocks plus the gathered
    /// t-blocks (pure placement — see `stats::ols::gram_from_blocks`), and
    /// [`fit_from_gram_at`] for the treatment coefficient.
    fn fit_regression(&self, t: &TreatmentMoments) -> Option<RegressionFit> {
        if !self.overlap_ok(t.n_treated) {
            return None; // Overlap (Eq. 4) violated.
        }
        let n = self.rows.len();
        let (gram, xty) = gram_from_blocks(
            n,
            t.n_treated,
            self.sum_y,
            t.ty,
            &self.sum_z,
            &t.tz,
            &self.zz,
            &self.zy,
        );
        // Inference only at index 1 — the treatment coefficient is the
        // only one estimation consumes; its se/p-value come out of the
        // same factor/solve path bit for bit.
        let fit = fit_from_gram_at(&gram, &xty, n, 1)?;
        Some(RegressionFit {
            fit,
            ty: t.ty,
            n_treated: t.n_treated,
            n_control: n - t.n_treated,
        })
    }

    /// Complete a fit eagerly: the inference half over the treated rows,
    /// packed into the public [`CateResult`].
    fn finish(&self, fit: RegressionFit, treated: TreatedRows<'_>) -> CateResult {
        let rss = self.rss(&fit.fit.beta, fit.ty, treated);
        CateResult {
            cate: fit.cate(),
            p_value: fit.fit.p_value(rss),
            n: self.rows.len(),
            n_treated: fit.n_treated,
            n_control: fit.n_control,
        }
    }

    /// ŷ after the naive row-major loop's first two terms, in its order:
    /// `1·β₀` everywhere, then `t·β₁` at the treated positions.
    fn yhat_1t(&self, beta: &[f64], treated: TreatedRows<'_>) -> Vec<f64> {
        let mut yhat = vec![beta[0]; self.rows.len()];
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

    /// The residual sum of squares of `beta` — the one residual routine
    /// behind every regression estimate. The walker yields the sampled
    /// positions of the treated rows in ascending order, and the `t·β₁`
    /// term is added at those positions only: a skipped `+ 0.0·β₁` can
    /// at most flip the sign of a zero, which the squared residual
    /// erases, so the sum has the bits of a dense pass over every row.
    /// Coded confounders skip their `0·β` terms the same way (see
    /// `add_z_terms`). `ty` is the fit's `tᵀy`, which the `FastV1`
    /// shortcut reads.
    fn rss(&self, beta: &[f64], ty: f64, treated: TreatedRows<'_>) -> f64 {
        match self.mode {
            NumericMode::Exact => {
                // Residual pass over virtual rows [1, t, z…], evaluated
                // column-major into a ŷ buffer: each element sees the
                // exact per-term addition sequence of the naive
                // row-major loop (init = 1·β₀, then t·β₁, then
                // z_j·β_{2+j} in column order), so RSS matches the
                // naive pass bit for bit while the z passes run over
                // contiguous columns the compiler can vectorize. The
                // algebraic shortcut below is never taken here — it
                // cannot replay the historical fold.
                let mut yhat = self.yhat_1t(beta, treated);
                add_z_terms(&self.z_terms(beta), &mut yhat, 0);
                let mut rss = 0.0;
                for (&yi, &vh) in self.y.iter().zip(&yhat) {
                    let e = yi - vh;
                    rss += e * e;
                }
                rss
            }
            NumericMode::FastV1 => {
                // Normal-equation identity: for β solving XᵀXβ = Xᵀy,
                // RSS = yᵀy − βᵀ(Xᵀy) — O(p) from the cached yᵀy and
                // the assembled border [Σy, tᵀy, Zᵀy], skipping the
                // O(n·q) data pass entirely. The identity cancels
                // catastrophically when the fit is near-exact
                // (RSS ≪ yᵀy), so it is guarded: anything below
                // RSS_SHORTCUT_GUARD·yᵀy falls back to the fused data
                // pass, capping the shortcut's relative rounding error
                // around eps/GUARD ≈ 1e-12 — well inside the 1e-9
                // cross-mode tolerance. Both branches are deterministic
                // functions of (β, Xᵀy, data), so FastV1 stays
                // bit-identical across threads and cache layers.
                const RSS_SHORTCUT_GUARD: f64 = 1e-4;
                let mut bxty = 0.0;
                let xty = [self.sum_y, ty].into_iter().chain(self.zy.iter().copied());
                for (b, v) in beta.iter().zip(xty) {
                    bxty += b * v;
                }
                let shortcut = self.sum_y_sq - bxty;
                if shortcut > RSS_SHORTCUT_GUARD * self.sum_y_sq {
                    return shortcut;
                }
                // Fused blocked fallback: apply every z column to one
                // L1-resident block of ŷ, then fold its residuals into
                // the 8 lanes. BLOCK is a multiple of 8, so the lane a
                // global index lands in is `index & 7` — identical to
                // one unblocked lane pass (pinned by the
                // blocked-vs-whole-array test in stats::numeric), while
                // ŷ is touched once instead of q+1 times.
                const BLOCK: usize = 4096;
                let n = self.rows.len();
                let mut yhat = self.yhat_1t(beta, treated);
                let terms = self.z_terms(beta);
                let mut lanes = [0.0f64; 8];
                let mut s = 0;
                while s < n {
                    let e = (s + BLOCK).min(n);
                    add_z_terms(&terms, &mut yhat[s..e], s);
                    numeric::lane_sq_diff_into(&mut lanes, &self.y[s..e], &yhat[s..e]);
                    s = e;
                }
                numeric::fold8(lanes)
            }
        }
    }

    fn estimate_ipw(&self, treated: &BitSet) -> Option<CateResult> {
        let t: Vec<bool> = self.rows.iter().map(|&r| treated.contains(r)).collect();
        self.ipw_with_indicator(t)
    }

    fn ipw_with_indicator(&self, t: Vec<bool>) -> Option<CateResult> {
        let n = self.rows.len();
        let n_treated = t.iter().filter(|&&b| b).count();
        let n_control = n - n_treated;
        if n_treated < self.min_arm || n_control < self.min_arm {
            return None;
        }
        let x = self.x_prop.as_ref().expect("built for the IPW backend");
        ipw_from_parts(x, &self.y, &t, n_treated, n_control)
    }
}

/// Per-attribute design blocks of a [`SubpopPanel`]: one confounder
/// attribute over the panel's (sampled) rows, plus the
/// treatment-independent Gram borders it contributes.
struct AttrBlocks {
    /// The attribute's design block — a numeric confounder's values, a
    /// categorical one's level codes — shared with assembled contexts.
    z: ZBlock,
    /// `1ᵀZ_a` — per-column sums; a coded block's are its level counts
    /// (regression backend only).
    sum_z: Vec<f64>,
    /// `Z_aᵀy` (regression backend only).
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
    backend: EstimatorBackend,
    min_arm: usize,
    max_onehot_levels: usize,
    /// Numeric kernel family (shared with every assembled context).
    mode: NumericMode,
    /// Sampled subpopulation row ids, ascending — identical to what every
    /// cold [`EstimationContext::new`] of this scope derives.
    rows: Arc<Vec<usize>>,
    /// Local coordinate width (subpopulation size before sampling).
    sub_n: usize,
    /// The sampled local indices (see `ScopeState::sampled`); `None` =
    /// no row was dropped.
    sampled: Option<Arc<Projector>>,
    /// `false` when the outcome attribute is categorical — every assembly
    /// returns `None`, mirroring [`EstimationContext::new`].
    outcome_ok: bool,
    /// Outcome gathered over `rows` (empty when `!outcome_ok`).
    y: Arc<Vec<f64>>,
    /// `Σy` over `rows` (regression backend only).
    sum_y: f64,
    /// `yᵀy` over `rows` (regression backend only) — the `FastV1` RSS
    /// shortcut constant, shared with every assembled context.
    sum_y_sq: f64,
    /// Lazily materialized per-attribute blocks.
    attrs: HashMap<usize, AttrBlocks>,
    /// Lazily materialized cross-Gram blocks, keyed `(min(a,b), max(a,b))`
    /// and stored row-major as `q_lo × q_hi`.
    pairs: HashMap<(usize, usize), Vec<f64>>,
}

impl SubpopPanel {
    /// Build the panel's subpopulation-level state: row list (with the
    /// §5.2(d) sampling applied exactly as [`EstimationContext::new`]
    /// applies it), outcome gather, `Σy` and `yᵀy`. Attribute and pair
    /// blocks are deferred to first use — which attributes matter depends
    /// on the backdoor sets the walk actually touches.
    pub fn new(table: &Table, subpop: Option<&BitSet>, outcome: usize, opts: &CateOptions) -> Self {
        // The one shared scope derivation — see [`ScopeState::build`].
        let scope = ScopeState::build(table, subpop, outcome, opts);
        let outcome_ok = scope.y.is_some();
        SubpopPanel {
            backend: opts.backend,
            min_arm: opts.min_arm,
            max_onehot_levels: opts.max_onehot_levels,
            mode: opts.numeric_mode,
            rows: scope.rows,
            sub_n: scope.sub_n,
            sampled: scope.sampled,
            outcome_ok,
            y: scope.y.unwrap_or_default(),
            sum_y: scope.sum_y,
            sum_y_sq: scope.sum_y_sq,
            attrs: HashMap::new(),
            pairs: HashMap::new(),
        }
    }

    /// Rows every assembled context estimates over (after sampling).
    pub fn n(&self) -> usize {
        self.rows.len()
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
    fn ensure_attr(&mut self, table: &Table, attr: usize) {
        if self.attrs.contains_key(&attr) {
            return;
        }
        let regression = self.backend == EstimatorBackend::Regression;
        let blocks = match table.column(attr) {
            Column::Cat { codes, dict } => self.code_attr(codes, dict.len()),
            col => {
                let x: Vec<f64> = self.rows.iter().map(|&r| col.get_f64(r)).collect();
                // The same shared border kernels the cold build runs.
                let (sum_z, zy) = if regression {
                    (
                        vec![col_sum(self.mode, &x)],
                        vec![col_dot(self.mode, &x, &self.y)],
                    )
                } else {
                    (Vec::new(), Vec::new())
                };
                AttrBlocks {
                    z: ZBlock::Dense(Arc::new(x)),
                    sum_z,
                    zy,
                }
            }
        };
        self.attrs.insert(attr, blocks);
    }

    /// Encode a categorical confounder as level codes in two passes over
    /// the rows: gather the table's codes while counting each level, then
    /// remap them to design codes (kept levels by [`onehot_levels`], the
    /// rest to the reference code) while summing `y` per level.
    fn code_attr(&self, table_codes: &[u32], levels: usize) -> AttrBlocks {
        let mut freq = vec![0usize; levels];
        let mut codes: Vec<u32> = self
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
        let (sum_z, zy) = if self.backend == EstimatorBackend::Regression {
            let zy = numeric::group_sums(self.mode, d, &self.y, |r| {
                let c = remap[codes[r] as usize];
                codes[r] = c;
                c as usize
            });
            // A 0/1 column sums to its count in any fold order.
            (kept.iter().map(|&level| freq[level] as f64).collect(), zy)
        } else {
            for c in &mut codes {
                *c = remap[*c as usize];
            }
            (Vec::new(), Vec::new())
        };
        AttrBlocks {
            z: ZBlock::Coded(Arc::new(LevelCodes { codes, d })),
            sum_z,
            zy,
        }
    }

    /// Materialize the cross-Gram block of an attribute pair (no-op when
    /// cached), stored row-major as `q_lo × q_hi`. Both attributes must
    /// already be materialized. Dense pairs go through the shared
    /// `col_dot` kernel the cold build runs; every block that involves a
    /// coded attribute is a count or a per-level sum with the dense
    /// dot's bits (see [`numeric::group_sums`]).
    fn ensure_pair(&mut self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        if self.pairs.contains_key(&key) {
            return;
        }
        let (lo, hi) = key;
        let (za, zb) = (&self.attrs[&lo], &self.attrs[&hi]);
        let block = match (&za.z, &zb.z) {
            (ZBlock::Dense(x), ZBlock::Dense(w)) => vec![col_dot(self.mode, x, w)],
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
                numeric::group_sums(self.mode, c.d, x, |r| c.codes[r] as usize)
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
        if !self.outcome_ok {
            return None;
        }
        for &a in confounders {
            self.ensure_attr(table, a);
        }
        if self.backend == EstimatorBackend::Regression {
            for (i, &a) in confounders.iter().enumerate() {
                for &b in &confounders[i..] {
                    self.ensure_pair(a, b);
                }
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
        let mut z = Design::new(confounders.iter().map(|a| self.attrs[a].z.clone()));
        let q = z.q;

        let zz = if self.backend == EstimatorBackend::Regression {
            let mut zz = Matrix::zeros(q, q);
            for (ai, &a) in confounders.iter().enumerate() {
                let qa = self.attrs[&a].z.width();
                let oa = offsets[ai];
                for (bj, &b) in confounders.iter().enumerate().skip(ai) {
                    let qb = self.attrs[&b].z.width();
                    let ob = offsets[bj];
                    let block = &self.pairs[&(a.min(b), a.max(b))];
                    for i in 0..qa {
                        for j in 0..qb {
                            // Stored q_lo × q_hi; read transposed when the
                            // set orders the pair descending (same f64 —
                            // the products commute bit-exactly).
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
            zz
        } else {
            Matrix::zeros(0, 0)
        };

        let x_prop =
            (self.backend == EstimatorBackend::Ipw).then(|| densify_prop(self.rows.len(), &z));
        if self.backend == EstimatorBackend::Ipw {
            // Mirror the cold build: the propensity design holds the same
            // values densely, so the block handles are dropped.
            z = Design::default();
        }

        Some(EstimationContext {
            backend: self.backend,
            min_arm: self.min_arm,
            mode: self.mode,
            rows: Arc::clone(&self.rows),
            sub_n: self.sub_n,
            sampled: self.sampled.clone(),
            y: Arc::clone(&self.y),
            z,
            sum_y: self.sum_y,
            sum_y_sq: self.sum_y_sq,
            sum_z,
            zz,
            zy,
            x_prop,
        })
    }
}

/// A keyed store of [`EstimationContext`]s for one fixed subpopulation,
/// indexed by confounder attribute set. One lattice walk (and, via the
/// paired positive/negative walk, one *pair* of walks) touches only a
/// handful of distinct backdoor sets, so memoizing the context per set
/// means each `O(n·q²)` Gram build happens exactly once per subpopulation.
///
/// A `None` entry records that the context could not be built (categorical
/// outcome), so the failure is not retried per candidate. `builds()`
/// counts build *attempts* — the work counter the treatment miner reports
/// in its lattice statistics.
///
/// The cache routes builds through a shared [`SubpopPanel`] (see the
/// [module docs](self)): the first build materializes the
/// subpopulation-level state once, and every context is assembled from
/// panel blocks, with categorical confounders as level codes.
///
/// ```
/// use causal::context::ContextCache;
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
///
/// let mut cache = ContextCache::new();
/// // First use materializes the shared panel and assembles the {z}
/// // context; the repeat is a hash lookup on the same context.
/// let a = cache.get_or_build(&table, None, 1, vec![0], &opts)
///     .unwrap().estimate(&treated).unwrap();
/// let b = cache.get_or_build(&table, None, 1, vec![0], &opts)
///     .unwrap().estimate(&treated).unwrap();
/// assert_eq!(cache.builds(), 1);
/// assert_eq!(a.cate.to_bits(), b.cate.to_bits());
///
/// // A second confounder set reuses the panel's row list, outcome and
/// // z-blocks instead of re-gathering them.
/// cache.get_or_build(&table, None, 1, vec![], &opts).unwrap();
/// assert_eq!(cache.builds(), 2);
/// assert_eq!(cache.panel().unwrap().attrs_built(), 1);
/// ```
#[derive(Default)]
pub struct ContextCache {
    map: HashMap<Vec<usize>, Option<Arc<EstimationContext>>>,
    builds: usize,
    /// The panel, created on the first build.
    panel: Option<SubpopPanel>,
}

impl ContextCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
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

    /// Distinct confounder sets seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Already-built context for `confounders`, if any. `None` both when
    /// the set was never built and when its build failed. Immutable — this
    /// is the lookup scheduler workers use after a serial pre-build pass,
    /// so level evaluation can share contexts without touching the cache.
    pub fn get(&self, confounders: &[usize]) -> Option<&EstimationContext> {
        self.map.get(confounders)?.as_deref()
    }

    /// Like [`ContextCache::get`] but returns an owned handle. Contexts
    /// are stored behind `Arc`, so scheduler tasks can carry the context
    /// of each pre-built candidate into a chunk evaluation without
    /// borrowing the cache (whose owner may be mutated — e.g. to prepare
    /// the *next* level — while earlier chunks are still in flight).
    pub fn get_shared(&self, confounders: &[usize]) -> Option<Arc<EstimationContext>> {
        self.map.get(confounders)?.clone()
    }

    /// Context for `confounders`, building (and caching) it on first use.
    /// All calls must pass the same `(table, subpop, outcome, opts)` — the
    /// cache (and its panel) is scoped to one subpopulation. Takes the key
    /// by value: the caller's backdoor lookup already yields an owned
    /// `Vec`, and this sits on the per-CATE-evaluation hot path, so no
    /// defensive clone.
    ///
    /// The first call materializes the [`SubpopPanel`]; every context is
    /// assembled from its blocks.
    pub fn get_or_build(
        &mut self,
        table: &Table,
        subpop: Option<&BitSet>,
        outcome: usize,
        confounders: Vec<usize>,
        opts: &CateOptions,
    ) -> Option<&EstimationContext> {
        match self.map.entry(confounders) {
            Entry::Occupied(o) => o.into_mut().as_deref(),
            Entry::Vacant(v) => {
                self.builds += 1;
                let ctx = self
                    .panel
                    .get_or_insert_with(|| SubpopPanel::new(table, subpop, outcome, opts))
                    .assemble(table, v.key());
                v.insert(ctx.map(Arc::new)).as_deref()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{estimate_cate, estimate_effect};
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
    /// `fit_local`, `fit_downdated` and `p_value_local` give the same bits
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
                .sampled
                .as_deref()
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

            let (fit, moments) = ctx.fit_local(&parent).unwrap();
            let (fit_c, moments_c) = ctx.fit_local(&clear(&parent)).unwrap();
            assert_eq!(fit.cate().to_bits(), fit_c.cate().to_bits(), "{mode:?}");
            assert_eq!(moment_bits(&moments), moment_bits(&moments_c), "{mode:?}");
            let p = ctx.p_value_local(&fit, &parent);
            assert_eq!(
                p.to_bits(),
                ctx.p_value_local(&fit, &clear(&parent)).to_bits()
            );

            let (down, down_m) = ctx.fit_downdated(&moments, &removed).unwrap();
            let (down_c, down_mc) = ctx.fit_downdated(&moments, &clear(&removed)).unwrap();
            assert_eq!(down.cate().to_bits(), down_c.cate().to_bits(), "{mode:?}");
            assert_eq!(moment_bits(&down_m), moment_bits(&down_mc), "{mode:?}");
            let p_child = ctx.p_value_local(&down, &child);
            assert_eq!(
                p_child.to_bits(),
                ctx.p_value_local(&down, &clear(&child)).to_bits()
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
    fn ipw_backend_matches_naive() {
        let (table, treated) = confounded(4_000, 13);
        let opts = CateOptions {
            backend: EstimatorBackend::Ipw,
            ..CateOptions::default()
        };
        let tbits = BitSet::from_mask(&treated);
        let ctx = EstimationContext::new(&table, None, 1, &[0], &opts).unwrap();
        let cached = ctx.estimate(&tbits).unwrap();
        let naive = estimate_effect(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert_eq!(cached.cate, naive.cate);
        assert_eq!(cached.p_value, naive.p_value);
    }

    #[test]
    fn context_cache_builds_each_set_once() {
        let (table, treated) = confounded(1_000, 11);
        let opts = CateOptions::default();
        let mut cache = ContextCache::new();
        let tbits = BitSet::from_mask(&treated);
        for _ in 0..4 {
            let ctx = cache.get_or_build(&table, None, 1, vec![0], &opts).unwrap();
            assert!(ctx.estimate(&tbits).is_some());
            let _ = cache.get_or_build(&table, None, 1, vec![], &opts).unwrap();
        }
        assert_eq!(cache.builds(), 2, "one build per distinct confounder set");
        assert_eq!(cache.len(), 2);
        // Failed builds (categorical outcome) are cached too.
        let cat = TableBuilder::new()
            .cat("c", &["a"; 50])
            .unwrap()
            .build()
            .unwrap();
        let mut cache = ContextCache::new();
        for _ in 0..3 {
            assert!(cache.get_or_build(&cat, None, 0, vec![], &opts).is_none());
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
