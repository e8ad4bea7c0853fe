//! Equivalence guarantees of the subpopulation-local evaluation kernel.
//!
//! The local-kernel rework (projected bitsets, sparse t-block gathers,
//! hoisted TSS, single-factor inference, parallel level evaluation) must
//! be *behaviour-preserving*. These tests pin:
//!
//! 1. sparse-gather local estimation ([`EstimationContext::estimate_local`]
//!    on a [`Projector`]-projected mask) against the dense full-width scan
//!    ([`EstimationContext::estimate`]) — bit-identical, across all
//!    confounder mixes, with and without the §5.2(d) sampling cap, on both
//!    estimator backends and in both numeric modes — and deferred
//!    inference (a fit now, its p-value later) against the eager estimate
//!    on the gathered, moments and downdated paths;
//! 2. parallel within-level evaluation against the serial walk — exact
//!    `TreatmentResult` ordering at every thread count, and end-to-end
//!    summary bit-identity through the session pipeline.
//!
//! The projected walk's results are held to the cold estimator in
//! `tests/estimation_cache.rs` (property 2).

use proptest::prelude::*;

use causal::context::{EstimationContext, RegressionFit};
use causal::estimate::{CateOptions, CateResult, EstimatorBackend};
use causal::{Dag, NumericMode};
use causumx::{ConfigBuilder, Session};
use mining::treatment::{LatticeOptions, LatticeStats, TreatmentMiner, TreatmentResult};
use mining::RunGuard;
use proptest::test_runner::TestCaseResult;
use table::bitset::{BitSet, Projector};
use table::{Table, TableBuilder};

/// Random-but-structured table: two categorical treatment candidates, one
/// numeric confounder, and an outcome with real effects plus noise.
fn build_table(cats_a: &[u8], cats_b: &[u8], nums: &[i64], noise: &[i64]) -> Table {
    let n = cats_a.len();
    let a: Vec<String> = cats_a.iter().map(|&v| format!("a{}", v % 3)).collect();
    let b: Vec<String> = cats_b.iter().map(|&v| format!("b{}", v % 2)).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
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
        .int("num", nums.to_vec())
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

fn dag() -> Dag {
    Dag::new(
        &["a", "b", "num", "y"],
        &[("num", "a"), ("a", "y"), ("b", "y"), ("num", "y")],
    )
    .unwrap()
}

fn arb_rows() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, Vec<i64>, Vec<i64>, Vec<bool>)> {
    (60usize..160).prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(-20i64..20, n),
            prop::collection::vec(-100i64..100, n),
            prop::collection::vec(any::<bool>(), n),
        )
    })
}

/// A deferred fit completed by [`EstimationContext::p_value_local`] must
/// reproduce its eager estimate: `None` in the same cases, and otherwise
/// the same CATE, arm counts and p-value bits.
fn check_deferred(
    ctx: &EstimationContext,
    mask: &BitSet,
    fit: Option<RegressionFit>,
    eager: Option<CateResult>,
) -> TestCaseResult {
    match (fit, eager) {
        (Some(f), Some(e)) => {
            prop_assert_eq!(f.cate().to_bits(), e.cate.to_bits());
            prop_assert_eq!(f.n_treated(), e.n_treated);
            prop_assert_eq!(f.n_control(), e.n_control);
            let p = ctx.p_value_local(&f, mask);
            prop_assert_eq!(p.to_bits(), e.p_value.to_bits(), "p {} vs {}", p, e.p_value);
        }
        (f, e) => prop_assert_eq!(f.is_none(), e.is_none()),
    }
    Ok(())
}

proptest! {
    /// (1) `estimate_local` on the projected treatment mask is
    /// bit-identical to `estimate` on the full-width mask — every
    /// confounder mix, with and without sampling, both backends, both
    /// numeric modes. For the regression backend the deferred p-value of
    /// `fit_local` and `fit_downdated` (a subset
    /// child downdated from the treated set's moments) has the bits of
    /// the matching eager estimate.
    #[test]
    fn sparse_gather_matches_dense_scan((ca, cb, nums, noise, subpop) in arb_rows()) {
        let table = build_table(&ca, &cb, &nums, &noise);
        let n = table.nrows();
        let treated: Vec<bool> = ca.iter().map(|&v| v % 3 == 0).collect();
        let tbits = BitSet::from_mask(&treated);
        let sub_bits = BitSet::from_mask(&subpop);
        let projector = Projector::new(&sub_bits);
        let tlocal = projector.project(&tbits);
        // A subset child of the treated set, for the downdated path.
        let child_mask: Vec<bool> = (0..n).map(|i| treated[i] && cb[i] % 2 == 0).collect();
        let child = projector.project(&BitSet::from_mask(&child_mask));
        let removed = tlocal.difference(&child);

        for mode in [NumericMode::Exact, NumericMode::FastV1] {
        for confounders in [vec![], vec![1], vec![2], vec![1, 2]] {
            for (backend, cap) in [
                (EstimatorBackend::Regression, None),
                (EstimatorBackend::Regression, Some(n / 2)),
                (EstimatorBackend::Ipw, None),
            ] {
                let opts = CateOptions {
                    sample_cap: cap,
                    backend,
                    numeric_mode: mode,
                    ..CateOptions::default()
                };
                let Some(ctx) =
                    EstimationContext::new(&table, Some(&sub_bits), 3, &confounders, &opts)
                else { continue };
                prop_assert_eq!(ctx.local_width(), sub_bits.count());
                let dense = ctx.estimate(&tbits);
                let sparse = ctx.estimate_local(&tlocal);
                match (dense, sparse) {
                    (Some(d), Some(s)) => {
                        prop_assert_eq!(d.cate.to_bits(), s.cate.to_bits(),
                            "cate {} vs {}", d.cate, s.cate);
                        let p_match = d.p_value.to_bits() == s.p_value.to_bits()
                            || (d.p_value.is_nan() && s.p_value.is_nan());
                        prop_assert!(p_match, "p {} vs {}", d.p_value, s.p_value);
                        prop_assert_eq!(d.n, s.n);
                        prop_assert_eq!(d.n_treated, s.n_treated);
                        prop_assert_eq!(d.n_control, s.n_control);
                    }
                    (d, s) => prop_assert_eq!(d.is_none(), s.is_none()),
                }
                if backend == EstimatorBackend::Ipw {
                    continue;
                }
                let fit = ctx.fit_local(&tlocal);
                let eager_m = ctx.estimate_local_moments(&tlocal);
                if let (Some((_, fm)), Some((_, em))) = (&fit, &eager_m) {
                    prop_assert_eq!(fm.n_treated, em.n_treated);
                    prop_assert_eq!(fm.ty.to_bits(), em.ty.to_bits());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&fm.tz), bits(&em.tz));
                }
                let fit = fit.map(|(f, _)| f);
                check_deferred(&ctx, &tlocal, fit.clone(), ctx.estimate_local(&tlocal))?;
                check_deferred(&ctx, &tlocal, fit, eager_m.as_ref().map(|(r, _)| *r))?;
                if let Some((_, parent)) = &eager_m {
                    check_deferred(
                        &ctx,
                        &child,
                        ctx.fit_downdated(parent, &removed).map(|(f, _)| f),
                        ctx.estimate_downdated(&child, parent, &removed).map(|(r, _)| r),
                    )?;
                }
            }
        }
        }
    }

    /// (2a) Parallel within-level evaluation preserves the exact
    /// `TreatmentResult` ordering of the serial walk.
    #[test]
    fn parallel_level_matches_serial_level((ca, cb, nums, noise, subpop) in arb_rows()) {
        let table = build_table(&ca, &cb, &nums, &noise);
        let dag = dag();
        let sub_bits = BitSet::from_mask(&subpop);

        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1], LatticeOptions::default());
        // The top-4 positive walk at a worker count.
        let top4 = |threads: usize| -> (Vec<TreatmentResult>, LatticeStats) {
            let paired = miner
                .mine_paired_many_guarded(&[&sub_bits], 4, false, threads, &RunGuard::unlimited())
                .unwrap()
                .pop()
                .unwrap();
            (paired.positive, paired.stats)
        };
        let (rs, ss) = top4(1);
        for threads in [2usize, 4] {
            let (rp, sp) = top4(threads);
            prop_assert_eq!(sp.evaluated, ss.evaluated, "threads {}", threads);
            prop_assert_eq!(sp.levels, ss.levels);
            prop_assert_eq!(sp.contexts_built, ss.contexts_built);
            prop_assert_eq!(fingerprint(&rp), fingerprint(&rs), "threads {}", threads);
        }
    }
}

/// Exact (pattern, CATE bits, p bits, arms) sequence — order-sensitive.
fn fingerprint(ts: &[TreatmentResult]) -> Vec<(String, u64, u64, usize, usize)> {
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
}

/// (2b) End-to-end: the session pipeline is bit-identical across
/// scheduler worker counts (serial, auto, and explicit oversubscription)
/// on realistic generated data.
#[test]
fn pipeline_bit_identical_across_level_parallelism() {
    let ds = datagen::so::generate(3_000, 11);
    let run = |threads: usize| {
        let cfg = ConfigBuilder::new().threads(threads).build().unwrap();
        Session::new(ds.table.clone(), ds.dag.clone(), cfg)
            .prepare(ds.query())
            .unwrap()
            .run()
    };
    let base = run(1);
    for threads in [0, 2, 3, 4] {
        let other = run(threads);
        assert_eq!(
            base.total_weight.to_bits(),
            other.total_weight.to_bits(),
            "threads={threads}"
        );
        assert_eq!(base.cate_evaluations, other.cate_evaluations);
        assert_eq!(base.covered, other.covered);
        assert_eq!(base.candidates, other.candidates);
        let keys = |s: &causumx::Summary| -> Vec<String> {
            s.explanations.iter().map(|e| e.grouping.key()).collect()
        };
        assert_eq!(keys(&base), keys(&other), "exact explanation order");
    }
}

/// The projection round-trip the walk relies on: projected atom
/// intersections and counts agree with full-width intersections restricted
/// to the subpopulation.
#[test]
fn projection_commutes_with_walk_algebra() {
    let n = 500;
    let mut sub = BitSet::new(n);
    let mut a = BitSet::new(n);
    let mut b = BitSet::new(n);
    for i in 0..n {
        if i % 3 != 0 {
            sub.insert(i);
        }
        if i % 2 == 0 {
            a.insert(i);
        }
        if i % 5 < 3 {
            b.insert(i);
        }
    }
    let p = Projector::new(&sub);
    let (la, lb) = (p.project(&a), p.project(&b));
    assert_eq!(la.count(), a.intersection_count(&sub));
    let mut ab = a.clone();
    ab.intersect_with(&b);
    let mut lab = la.clone();
    lab.intersect_with(&lb);
    assert_eq!(p.project(&ab), lab);
    assert_eq!(lab.count(), ab.intersection_count(&sub));
    let mut back = p.unproject(&lab);
    assert!(back.is_subset(&sub));
    back.intersect_with(&a); // no-op: already ⊆ a
    assert_eq!(back.count(), lab.count());
}
