//! Bit-identity guarantees of the per-subpopulation confounder panel.
//!
//! The panel rework (PR 5) must be *behaviour-preserving*: a
//! [`causal::context::EstimationContext`] assembled from
//! [`causal::context::SubpopPanel`] blocks has to match a cold-built one
//! bit for bit — not merely to a tolerance — because the selection stage
//! compares CATEs and any last-bit drift could flip a comparison and
//! change the reported explanation set. The panel keeps categorical
//! confounders as level codes while the cold build keeps the dense
//! one-hot columns, so these properties also pin the codes against the
//! dense oracle:
//!
//! 1. panel-assembled vs cold-built contexts across all confounder mixes
//!    (including permuted set orderings, which exercise the transposed
//!    cross-block read, and categorical×categorical pairs), in both
//!    numeric modes, with and without the §5.2(d) sampling cap, with the
//!    one-hot cap at 0, 1 and 24 dummies (a dropped reference level and
//!    truncated levels), for a treatment collinear with a categorical
//!    confounder and one independent of it — every estimate, fit,
//!    downdate and p-value;
//! 2. one panel serving many sets inside a [`causal::context::ContextCache`]
//!    against a cold [`causal::context::EstimationContext::new`] build per
//!    set, for both estimator backends;
//! 3. the lattice walk on an SO table, at 1 and 4 workers: every result
//!    equals the cold estimator run from scratch (`common::check_oracle`).

mod common;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use causal::context::{ContextCache, EstimationContext, SubpopPanel, TreatmentMoments};
use causal::estimate::{CateOptions, CateResult, EstimatorBackend};
use mining::treatment::{LatticeOptions, TreatmentMiner};
use mining::RunGuard;
use stats::numeric::NumericMode;
use table::bitset::{BitSet, Projector};
use table::{Table, TableBuilder};

/// Levels of the wide categorical `a` in property (1): more than the
/// largest one-hot cap it runs with (24) allows, so every cap truncates.
const WIDE_A_LEVELS: u8 = 30;

/// A random-but-structured table (same shape as `tests/estimation_cache.rs`):
/// two categorical treatment candidates (`a` with `a_levels` levels, `b`
/// with 2), one numeric confounder (`num`, negative, zero and positive),
/// and an outcome with real effects plus data-driven noise that is
/// negative, zero and positive too.
fn build_table(cats_a: &[u8], cats_b: &[u8], nums: &[i64], noise: &[i64], a_levels: u8) -> Table {
    let n = cats_a.len();
    let a: Vec<String> = cats_a
        .iter()
        .map(|&v| format!("a{}", v % a_levels))
        .collect();
    let b: Vec<String> = cats_b.iter().map(|&v| format!("b{}", v % 2)).collect();
    let num: Vec<i64> = nums.to_vec();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            if noise[i] % 13 == 0 {
                return 0.0;
            }
            3.0 * (cats_a[i].is_multiple_of(3)) as i64 as f64
                - 2.0 * (cats_b[i] % 2 == 1) as i64 as f64
                + (nums[i] % 7) as f64 * 0.3
                + (noise[i] % 11) as f64 * 0.05
        })
        .collect();
    TableBuilder::new()
        .cat_owned("a", a)
        .unwrap()
        .cat_owned("b", b)
        .unwrap()
        .int("num", num)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

fn arb_rows() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<i64>, Vec<i64>, Vec<bool>)> {
    (60usize..160).prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..WIDE_A_LEVELS, n),
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(-20i64..20, n),
            prop::collection::vec(-100i64..100, n),
            prop::collection::vec(any::<bool>(), n),
        )
    })
}

/// Full bit-identity of two optional estimates: same availability, and
/// bit-equal CATE / p-value (NaN ⇔ NaN) with equal counts.
fn assert_bit_identical(a: Option<CateResult>, b: Option<CateResult>) -> Result<(), TestCaseError> {
    match (a, b) {
        (Some(x), Some(y)) => {
            prop_assert_eq!(x.cate.to_bits(), y.cate.to_bits(), "CATE bits differ");
            let p_match = x.p_value.to_bits() == y.p_value.to_bits()
                || (x.p_value.is_nan() && y.p_value.is_nan());
            prop_assert!(
                p_match,
                "p-value bits differ: {} vs {}",
                x.p_value,
                y.p_value
            );
            prop_assert_eq!(x.n, y.n);
            prop_assert_eq!(x.n_treated, y.n_treated);
            prop_assert_eq!(x.n_control, y.n_control);
        }
        (x, y) => prop_assert_eq!(x.is_none(), y.is_none()),
    }
    Ok(())
}

/// Confounder mixes exercised everywhere below: the empty set, singletons,
/// the pairs in both orders (the descending order reads the panel's
/// cross-Gram block transposed), a set with the categorical first, and
/// the categorical×categorical pair.
fn confounder_mixes() -> Vec<Vec<usize>> {
    vec![
        vec![],
        vec![1],
        vec![2],
        vec![1, 2],
        vec![2, 1],
        vec![0, 2],
        vec![0, 1],
        vec![1, 0],
    ]
}

/// The bits of a moment set: treated count, `tᵀy`, `tᵀZ`.
fn moment_bits(m: &TreatmentMoments) -> (usize, u64, Vec<u64>) {
    (
        m.n_treated,
        m.ty.to_bits(),
        m.tz.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Same bits, counting any two NaNs as equal.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Everything one context can say about a treated mask, as bits: the
/// dense-coordinate estimate, then — in local coordinates — the fit and
/// its moments, the p-value, and the downdate to `child` (`parent`
/// minus `removed`) with the child's p-value. `None` where the estimate
/// or fit does not exist.
type Readout = (
    Option<CateResult>,
    Option<(u64, usize, (usize, u64, Vec<u64>), f64)>,
    Option<(u64, (usize, u64, Vec<u64>), f64)>,
);

fn readout(
    ctx: &EstimationContext,
    treated: &BitSet,
    parent: &BitSet,
    child: &BitSet,
    removed: &BitSet,
) -> Readout {
    let est = ctx.estimate(treated);
    let Some((fit, moments)) = ctx.fit_local(parent) else {
        return (est, None, None);
    };
    let p = ctx.p_value_local(&fit, parent);
    let down = ctx.fit_downdated(&moments, removed).map(|(f, m)| {
        (
            f.cate().to_bits(),
            moment_bits(&m),
            ctx.p_value_local(&f, child),
        )
    });
    (
        est,
        Some((
            fit.cate().to_bits(),
            fit.n_treated(),
            moment_bits(&moments),
            p,
        )),
        down,
    )
}

fn assert_same_readout(a: Readout, b: Readout) -> Result<(), TestCaseError> {
    assert_bit_identical(a.0, b.0)?;
    match (a.1, b.1) {
        (Some((ca, na, ma, pa)), Some((cb, nb, mb, pb))) => {
            prop_assert_eq!(ca, cb, "fit_local CATE bits differ");
            prop_assert_eq!(na, nb);
            prop_assert_eq!(ma, mb, "gathered moments differ");
            prop_assert!(same_bits(pa, pb), "p_value_local differs: {} vs {}", pa, pb);
        }
        (x, y) => prop_assert_eq!(x.is_none(), y.is_none(), "fit_local availability"),
    }
    match (a.2, b.2) {
        (Some((ca, ma, pa)), Some((cb, mb, pb))) => {
            prop_assert_eq!(ca, cb, "fit_downdated CATE bits differ");
            prop_assert_eq!(ma, mb, "downdated moments differ");
            prop_assert!(same_bits(pa, pb), "child p-value differs: {} vs {}", pa, pb);
        }
        (x, y) => prop_assert_eq!(x.is_none(), y.is_none(), "fit_downdated availability"),
    }
    Ok(())
}

proptest! {
    /// (1) A panel-assembled context — categoricals as level codes —
    /// gives the bits of a cold [`EstimationContext::new`] build — dense
    /// one-hot columns — for every confounder mix, in both numeric modes,
    /// with and without the sampling cap, at one-hot caps 0, 1 and 24:
    /// the estimate, `fit_local` with its moments, `p_value_local`, and
    /// `fit_downdated` with the child's p-value. It runs on `a` with 3
    /// levels and with 30, each with two treatments: `ca % 3 == 0`, which
    /// on the 3-level `a` is the level `a0` — exactly collinear with `a`'s
    /// dummies once none is truncated, so those fits take the singular-Gram
    /// ridge fallback — and `noise % 2 == 0`, independent of `a`.
    #[test]
    fn panel_assembly_matches_cold_build((ca, cb, nums, noise, subpop) in arb_rows()) {
        let sub_bits = BitSet::from_mask(&subpop);
        let projector = Projector::new(&sub_bits);
        // Per treatment: the dense mask, and the local masks — its rows
        // in the subpopulation, and a subset child that drops every third
        // of them, with the dropped rows.
        let treatments: Vec<_> = [
            ca.iter().map(|&v| v % 3 == 0).collect::<Vec<bool>>(),
            noise.iter().map(|&v| v % 2 == 0).collect(),
        ]
        .iter()
        .map(|mask| {
            let tbits = BitSet::from_mask(mask);
            let parent = projector.project(&tbits);
            let mut child = parent.clone();
            for l in parent.iter().filter(|l| l % 3 == 0) {
                child.remove(l);
            }
            let removed = parent.difference(&child);
            (tbits, parent, child, removed)
        })
        .collect();

        for a_levels in [3, WIDE_A_LEVELS] {
            let table = build_table(&ca, &cb, &nums, &noise, a_levels);
            let n = table.nrows();
            for numeric_mode in [NumericMode::Exact, NumericMode::FastV1] {
                for max_onehot_levels in [0, 1, 24] {
                    // The quarter cap always drops rows of the ~half-table
                    // subpopulation; the half cap sometimes does.
                    for cap in [None, Some(n / 2), Some(n / 4)] {
                        let opts = CateOptions {
                            sample_cap: cap,
                            max_onehot_levels,
                            numeric_mode,
                            ..CateOptions::default()
                        };
                        // One panel serves every mix — exactly the miner's usage.
                        let mut panel = SubpopPanel::new(&table, Some(&sub_bits), 3, &opts);
                        for confounders in confounder_mixes() {
                            let cold = EstimationContext::new(
                                &table,
                                Some(&sub_bits),
                                3,
                                &confounders,
                                &opts,
                            )
                            .expect("numeric outcome");
                            let assembled =
                                panel.assemble(&table, &confounders).expect("numeric outcome");
                            prop_assert_eq!(
                                assembled.num_design_cols(),
                                cold.num_design_cols()
                            );
                            for (tbits, parent, child, removed) in &treatments {
                                assert_same_readout(
                                    readout(&assembled, tbits, parent, child, removed),
                                    readout(&cold, tbits, parent, child, removed),
                                )?;
                            }
                        }
                        // The panel materialized each attribute once, not once per set.
                        prop_assert!(panel.attrs_built() <= 3);
                    }
                }
            }
        }
    }

    /// (2) A panel-backed [`ContextCache`] matches a cold
    /// [`EstimationContext::new`] build per set bit for bit, for both
    /// estimator backends, over repeated lookups, and builds each set
    /// once.
    #[test]
    fn panel_cache_matches_cold_cache((ca, cb, nums, noise, subpop) in arb_rows()) {
        let table = build_table(&ca, &cb, &nums, &noise, 3);
        let treated: Vec<bool> = ca.iter().map(|&v| v % 3 == 0).collect();
        let tbits = BitSet::from_mask(&treated);
        let sub_bits = BitSet::from_mask(&subpop);

        for backend in [EstimatorBackend::Regression, EstimatorBackend::Ipw] {
            let opts = CateOptions { backend, ..CateOptions::default() };
            let mut cache = ContextCache::new();
            for _ in 0..2 {
                for confounders in confounder_mixes() {
                    let cold =
                        EstimationContext::new(&table, Some(&sub_bits), 3, &confounders, &opts)
                            .and_then(|ctx| ctx.estimate(&tbits));
                    let cached = cache
                        .get_or_build(&table, Some(&sub_bits), 3, confounders, &opts)
                        .and_then(|ctx| ctx.estimate(&tbits));
                    assert_bit_identical(cached, cold)?;
                }
            }
            prop_assert_eq!(cache.builds(), confounder_mixes().len());
            prop_assert!(cache.panel().is_some());
        }
    }
}

/// (3) The lattice walk — panel-assembled contexts with level-coded
/// categoricals — returns treatments that equal the cold estimator run
/// from scratch (dense one-hot columns), at serial and 4-way fan-out.
#[test]
fn miner_panel_ablation_bit_identical() {
    let ds = datagen::so::generate(2_000, 11);
    let t_attrs = table::fd::treatment_attrs(&ds.table, &ds.group_by, &[ds.outcome]);
    let opts = LatticeOptions::default();
    let miner = TreatmentMiner::new(&ds.table, &ds.dag, ds.outcome, &t_attrs, opts.clone());
    let subpop = BitSet::full(ds.table.nrows());
    let mask = vec![true; ds.table.nrows()];
    for threads in [1usize, 4] {
        let paired = miner
            .mine_paired_many_guarded(&[&subpop], 3, true, threads, &RunGuard::unlimited())
            .unwrap()
            .pop()
            .unwrap();
        assert!(!paired.positive.is_empty() && !paired.negative.is_empty());
        for t in paired.positive.iter().chain(&paired.negative) {
            common::check_oracle(&ds.table, &miner, ds.outcome, &mask, t, &opts.cate_opts)
                .unwrap_or_else(|err| panic!("{threads} threads: {err}"));
        }
    }
}
