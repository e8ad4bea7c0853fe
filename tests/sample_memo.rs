//! The §5.2(d) sample memo (`causal::context::SampleMemo`) held to the
//! sampling it replaced, through every path that reads it.
//!
//! 1. **Ranks** (property test): the memo's sorted ranks, and the rows a
//!    memo-backed panel's scope selects by them, equal the pre-memo
//!    sampler kept here as the oracle — a Fisher–Yates shuffle over
//!    `(row, local rank)` pairs, truncated and sorted — for random seeds,
//!    subpopulation sizes from below the cap to several caps, with and
//!    without a subpopulation, and with one memo serving every key in
//!    turn.
//! 2. **Walks**: sampled lattice walks on SO data through one shared
//!    `MinerMemo`, repeated so the later walks read held samples, give
//!    every mined treatment the CATE and p-value bits and arm counts of a
//!    fresh `SubpopPanel::new` context (the path the benchmark's trace
//!    probe takes) and of `estimate_cate`, and every level-1 candidate the
//!    rows and fit of a fresh context — in both numeric modes, at 1 and 4
//!    workers.
//! 3. **Bound**: a memo driven past `SampleMemo::MAX_RANKS` empties itself
//!    before the insert that would pass it, never holds more, redraws an
//!    evicted sample identically, and keeps estimates bit-identical to a
//!    fresh draw.

use std::collections::HashSet;
use std::sync::Arc;

use causal::context::{ConfounderKey, ContextCache, EstimationContext, SampleMemo, SubpopPanel};
use causal::estimate::{estimate_cate, CateOptions};
use causal::NumericMode;
use mining::grouping::mine_grouping_patterns;
use mining::treatment::{LatticeOptions, MinerMemo, TreatmentMiner, TreatmentResult};
use mining::RunGuard;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use table::bitset::BitSet;
use table::fd::{fd_closure, treatment_attrs};
use table::{Table, TableBuilder};

/// The sampler the memo replaced: `(global row, local rank)` pairs of the
/// subpopulation (every row when `None`), shuffled by a generator seeded
/// with `seed`, truncated to `cap` and sorted. Returns the sampled rows
/// and their local ranks, ascending.
fn pair_shuffle(
    subpop: Option<&BitSet>,
    nrows: usize,
    seed: u64,
    cap: usize,
) -> (Vec<usize>, Vec<u32>) {
    let mut pairs: Vec<(usize, u32)> = match subpop {
        Some(bits) => bits
            .iter()
            .enumerate()
            .map(|(l, r)| (r, l as u32))
            .collect(),
        None => (0..nrows).map(|r| (r, r as u32)).collect(),
    };
    if pairs.len() > cap {
        let mut rng = StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        pairs.truncate(cap);
        pairs.sort_unstable();
    }
    pairs.into_iter().unzip()
}

/// A two-column table of `n` rows: an integer confounder and a float
/// outcome (column 1).
fn small_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let z: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
    let y: Vec<f64> = z
        .iter()
        .map(|&zi| 3.0 * zi as f64 + rng.gen_range(-1.0..1.0))
        .collect();
    TableBuilder::new()
        .int("z", z)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

/// The rows a memo-backed panel's scope reads: those of the context it
/// assembles for the empty confounder set.
fn panel_rows(
    table: &Table,
    subpop: Option<&BitSet>,
    opts: &CateOptions,
    memo: &SampleMemo,
) -> Vec<usize> {
    SubpopPanel::with_samples(table, subpop, 1, opts, memo)
        .assemble(table, &[])
        .expect("a numeric outcome")
        .rows()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (1) One memo serves a sequence of keys — several sizes per seed,
    /// each looked up twice — and every lookup returns the oracle's ranks,
    /// every memo-backed scope the oracle's rows.
    #[test]
    fn memo_ranks_and_rows_match_the_pair_shuffle(
        seeds in prop::collection::vec(any::<u64>(), 1..4),
        cap in 1usize..60,
        n in 1usize..400,
        keep in 1u32..5,
        scoped in any::<bool>(),
    ) {
        let memo = SampleMemo::new();
        let table = small_table(n, 3);
        // Every `(keep + 1)`-th row is outside the subpopulation (none
        // when `keep` is 4): sizes from below the cap up to several caps.
        let subpop = BitSet::from_mask(
            &(0..n).map(|i| !(i as u32).is_multiple_of(keep + 1) || keep == 4).collect::<Vec<_>>(),
        );
        let subpop = scoped.then_some(&subpop);
        let sub_n = subpop.map_or(n, BitSet::count);
        let mut keys = HashSet::new();
        for &seed in &seeds {
            // Other sizes under the same seed and cap, then this one.
            for size in [sub_n / 2, sub_n + 1, sub_n] {
                let (_, want) = pair_shuffle(None, size, seed, cap);
                for _ in 0..2 {
                    prop_assert_eq!(&memo.ranks(seed, size, cap)[..], &want[..]);
                }
                keys.insert((seed, size));
                prop_assert_eq!(memo.drawn(), keys.len(), "one draw per key");
            }
            let opts = CateOptions { sample_cap: Some(cap), seed, ..CateOptions::default() };
            let (rows, _) = pair_shuffle(subpop, n, seed, cap);
            prop_assert_eq!(panel_rows(&table, subpop, &opts, &memo), rows.clone());
            // The fresh path draws the same rows.
            let fresh = EstimationContext::new(&table, subpop, 1, &[], &opts).unwrap();
            prop_assert_eq!(fresh.rows(), &rows[..]);
            prop_assert_eq!(fresh.local_width(), sub_n);
        }
        prop_assert_eq!(memo.drawn(), keys.len(), "the scopes' lookups hit");
    }
}

/// The sample of a subpopulation no larger than the cap is all of it.
#[test]
fn a_sample_no_smaller_than_its_subpopulation_is_all_ranks() {
    let memo = SampleMemo::new();
    for n in [0, 1, 39, 40] {
        let want: Vec<u32> = (0..n as u32).collect();
        assert_eq!(&memo.ranks(11, n, 40)[..], &want[..]);
    }
}

/// The walks' options. `FastV1` downdates level-2 candidates from their
/// parents' moments, which is within rounding of a fresh gather but not
/// bit-identical to it, so its walks stop at level 1 (the serving shape);
/// `Exact` regathers every candidate and walks two levels.
fn lattice(mode: NumericMode) -> LatticeOptions {
    LatticeOptions {
        max_level: match mode {
            NumericMode::Exact => 2,
            NumericMode::FastV1 => 1,
        },
        cate_opts: CateOptions {
            sample_cap: Some(300),
            seed: 17,
            numeric_mode: mode,
            ..CateOptions::default()
        },
        ..LatticeOptions::default()
    }
}

/// Assert `got` has the bits of a fresh context's estimate and of
/// `estimate_cate` for the same treatment.
fn assert_fresh(
    table: &Table,
    miner: &TreatmentMiner<'_>,
    subpop: &BitSet,
    outcome: usize,
    opts: &CateOptions,
    got: &TreatmentResult,
) {
    let what = got.pattern.key();
    let confounders = miner.confounders_for(&got.pattern.attrs());
    let mask = got.pattern.eval(table).unwrap();
    let treated = BitSet::from_mask(&mask);
    let fresh = SubpopPanel::new(table, Some(subpop), outcome, opts)
        .assemble(table, &confounders)
        .unwrap()
        .estimate(&treated)
        .unwrap();
    let naive = estimate_cate(
        table,
        Some(&subpop.to_mask()),
        &mask,
        outcome,
        &confounders,
        opts,
    )
    .unwrap();
    for r in [&fresh, &naive] {
        assert_eq!(r.cate.to_bits(), got.cate.to_bits(), "{what}");
        assert_eq!(r.p_value.to_bits(), got.p_value.to_bits(), "{what}");
        assert_eq!(
            (r.n_treated, r.n_control),
            (got.n_treated, got.n_control),
            "{what}"
        );
        assert_eq!(r.n, subpop.count().min(opts.sample_cap.unwrap()), "{what}");
    }
}

/// (2) Sampled walks through one shared memo against fresh contexts and
/// the naive estimator.
#[test]
fn sampled_walks_through_the_memo_match_fresh_contexts() {
    let ds = datagen::so::generate(4_000, 42);
    let (table, dag, outcome) = (&ds.table, &ds.dag, ds.outcome);
    let view = ds.query().run(table).unwrap();
    let gp = fd_closure(table, &ds.group_by, &[outcome]);
    let groupings = mine_grouping_patterns(table, &view, &gp, 0.1, 1);
    let subpops: Vec<&BitSet> = groupings.iter().map(|g| &g.rows).collect();
    assert!(
        subpops.iter().filter(|s| s.count() > 300).count() >= 3,
        "most subpopulations must be sampled"
    );
    let t_attrs = treatment_attrs(table, &ds.group_by, &[outcome]);
    let guard = RunGuard::unlimited();
    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        let opts = lattice(mode);
        let cate = &opts.cate_opts;
        let memo = Arc::new(MinerMemo::new(table, dag));
        let miner =
            TreatmentMiner::with_memo(table, dag, outcome, &t_attrs, opts.clone(), memo.clone());
        let mut first: Option<Vec<String>> = None;
        for threads in [1, 4, 1] {
            let walks = miner
                .mine_paired_many_guarded(&subpops, 3, true, threads, &guard)
                .unwrap();
            let mut seen = Vec::new();
            for (subpop, walk) in subpops.iter().zip(&walks) {
                for t in walk.positive.iter().chain(&walk.negative) {
                    assert_fresh(table, &miner, subpop, outcome, cate, t);
                    seen.push(format!("{} {:x}", t.pattern.key(), t.cate.to_bits()));
                }
            }
            assert!(!seen.is_empty(), "{mode:?}: the walks mined nothing");
            match &first {
                None => first = Some(seen),
                Some(f) => assert_eq!(f, &seen, "{mode:?} at {threads} workers"),
            }
        }
        // One draw per distinct size, on the first walk only.
        let mut sizes: Vec<usize> = subpops.iter().map(|s| s.count()).collect();
        sizes.retain(|&n| n > 300);
        sizes.sort_unstable();
        sizes.dedup();
        assert_eq!(memo.samples_drawn(), sizes.len(), "{mode:?}");

        // Level 1 of every subpopulation: each candidate's rows of the
        // sample and its fit equal a fresh context's.
        for subpop in &subpops {
            let fresh_rows = SubpopPanel::new(table, Some(subpop), outcome, cate)
                .assemble(table, &[])
                .unwrap()
                .rows()
                .to_vec();
            for workers in [1, 4] {
                for est in miner.level1_estimates(subpop, workers) {
                    let Some(fit) = &est.fit else { continue };
                    let mask = est.pattern.eval(table).unwrap();
                    if fresh_rows.len() < subpop.count() {
                        let want = BitSet::from_mask(
                            &fresh_rows.iter().map(|&r| mask[r]).collect::<Vec<_>>(),
                        );
                        assert_eq!(est.treated, want, "{}", est.pattern.key());
                    }
                    let fresh = SubpopPanel::new(table, Some(subpop), outcome, cate)
                        .assemble(table, &est.confounders)
                        .unwrap()
                        .estimate(&BitSet::from_mask(&mask))
                        .unwrap();
                    assert_eq!(fresh.cate.to_bits(), fit.cate().to_bits());
                    assert_eq!(Some(fresh.p_value.to_bits()), est.p_value.map(f64::to_bits));
                }
            }
        }
        assert_eq!(memo.samples_drawn(), sizes.len(), "{mode:?}: level 1 hits");
    }
}

/// (3) Past the bound: samples of 300k ranks each, so the fourth insert
/// would pass 2^20 and empties the memo first. Every estimate keeps the
/// bits of a fresh draw, and a sample larger than the bound is never
/// held.
#[test]
fn a_memo_past_its_bound_empties_itself_and_keeps_the_bits() {
    const N: usize = 400_000;
    let table = small_table(N, 29);
    let treated = BitSet::from_mask(&(0..N).map(|i| i % 3 == 0).collect::<Vec<_>>());
    let memo = Arc::new(SampleMemo::new());
    let key = ConfounderKey::new(0, vec![0]);
    let estimate = |cap: usize, memo: Option<&Arc<SampleMemo>>| {
        let opts = CateOptions {
            sample_cap: Some(cap),
            seed: 5,
            ..CateOptions::default()
        };
        let mut cache =
            memo.map_or_else(ContextCache::new, |m| ContextCache::with_samples(m.clone()));
        let r = cache
            .get_or_build(&table, None, 1, &key, &opts)
            .unwrap()
            .estimate(&treated)
            .unwrap();
        (r.cate.to_bits(), r.p_value.to_bits(), r.n_treated)
    };
    let caps = [300_000, 300_001, 300_002, 300_003, 300_000];
    // Three samples fit under 2^20. The fourth empties the memo first;
    // the first cap was evicted with it, so the fifth lookup draws it
    // again.
    let held = [300_000, 600_001, 900_003, 300_003, 600_003];
    for (i, (cap, held)) in caps.into_iter().zip(held).enumerate() {
        assert_eq!(estimate(cap, Some(&memo)), estimate(cap, None), "cap {cap}");
        assert!(memo.held() <= SampleMemo::MAX_RANKS);
        assert_eq!(memo.held(), held, "after cap {cap}");
        assert_eq!(memo.drawn(), i + 1);
    }
    assert_eq!(
        &memo.ranks(5, N, 300_003)[..],
        &pair_shuffle(None, N, 5, 300_003).1[..]
    );
    assert_eq!(memo.drawn(), caps.len(), "300_003 is still held");

    // A sample larger than the bound is drawn on every lookup and never
    // held; what is held stays.
    let big = SampleMemo::MAX_RANKS + 1;
    let n = big + 7;
    let want = pair_shuffle(None, n, 1, big).1;
    for draws in 1..=2 {
        assert_eq!(&memo.ranks(1, n, big)[..], &want[..]);
        assert_eq!(memo.drawn(), caps.len() + draws);
        assert_eq!(memo.held(), 600_003);
    }
}
