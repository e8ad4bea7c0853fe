//! Equivalence guarantees of the subpopulation-local evaluation kernel.
//!
//! The local-kernel rework (projected bitsets, sparse t-block gathers,
//! hoisted TSS, single-factor inference, parallel level evaluation) must
//! be *behaviour-preserving*. These tests pin:
//!
//! 1. sparse-gather local estimation with deferred inference
//!    ([`EstimationContext::fit`] on a [`Projector`]-projected mask, its
//!    p-value later from [`EstimationContext::p_value`]) against the dense
//!    full-width scan ([`EstimationContext::estimate`]) — bit for bit on a
//!    gathered fit, within 1e-9 relative on a downdated one, across all
//!    confounder mixes, with and without the §5.2(d) sampling cap, in both
//!    numeric modes;
//! 2. parallel within-level evaluation against the serial walk — exact
//!    `TreatmentResult` ordering at every thread count, and end-to-end
//!    summary bit-identity through the session pipeline.
//!
//! The projected walk's results are held to the cold estimator in
//! `tests/estimation_cache.rs` (property 2).

mod kernel_table;

use proptest::prelude::*;

use causal::context::{EstimationContext, RegressionFit};
use causal::estimate::{CateOptions, CateResult};
use causal::NumericMode;
use causumx::{ConfigBuilder, Session};
use mining::treatment::{LatticeOptions, LatticeStats, TreatmentMiner, TreatmentResult};
use mining::RunGuard;
use proptest::test_runner::TestCaseResult;
use table::bitset::{BitSet, Projector};

/// A fit completed later by [`EstimationContext::p_value`] on `treated`
/// must reproduce the dense estimate of the same rows: `None` in the same
/// cases, the same arm counts, and the same CATE and p-value — bit for
/// bit when `rel` is 0, else within `rel` relative.
fn check_deferred(
    ctx: &EstimationContext,
    treated: &BitSet,
    fit: Option<RegressionFit>,
    dense: Option<CateResult>,
    rel: f64,
) -> TestCaseResult {
    match (fit, dense) {
        (Some(f), Some(d)) => {
            prop_assert_eq!(f.n_treated(), d.n_treated);
            prop_assert_eq!(f.n_control(), d.n_control);
            let p = ctx.p_value(&f, treated);
            for (what, got, want) in [("cate", f.cate(), d.cate), ("p", p, d.p_value)] {
                let close = if rel == 0.0 {
                    got.to_bits() == want.to_bits()
                } else {
                    got == want
                        || (got.is_nan() && want.is_nan())
                        || (got - want).abs() <= rel * got.abs().max(want.abs())
                };
                prop_assert!(close, "{} {} vs {}", what, got, want);
            }
        }
        (f, d) => prop_assert_eq!(f.is_none(), d.is_none()),
    }
    Ok(())
}

proptest! {
    /// (1) `fit` plus a later `p_value` on the projected treatment mask
    /// has the bits of the dense `estimate` on the full-width mask — every
    /// confounder mix, with and without sampling, both numeric modes — and
    /// `fit_downdated` (a subset child downdated from the treated set's
    /// moments) plus `p_value` is within 1e-9 relative of the dense
    /// estimate of the child.
    #[test]
    fn sparse_gather_matches_dense_scan((ca, cb, nums, noise, subpop) in kernel_table::arb_rows()) {
        let (table, _) = kernel_table::build(&ca, &cb, &nums, &noise);
        let n = table.nrows();
        let treated: Vec<bool> = ca.iter().map(|&v| v % 3 == 0).collect();
        let tbits = BitSet::from_mask(&treated);
        let sub_bits = BitSet::from_mask(&subpop);
        let projector = Projector::new(&sub_bits);
        let tlocal = projector.project(&tbits);
        // A subset child of the treated set, for the downdated path.
        let child_mask: Vec<bool> = (0..n).map(|i| treated[i] && cb[i] % 2 == 0).collect();
        let child_bits = BitSet::from_mask(&child_mask);
        let child = projector.project(&child_bits);
        let removed = tlocal.difference(&child);

        for mode in [NumericMode::Exact, NumericMode::FastV1] {
        for confounders in [vec![], vec![1], vec![2], vec![1, 2]] {
            for cap in [None, Some(n / 2)] {
                let opts = CateOptions {
                    sample_cap: cap,
                    numeric_mode: mode,
                    ..CateOptions::default()
                };
                let Some(ctx) =
                    EstimationContext::new(&table, Some(&sub_bits), 3, &confounders, &opts)
                else { continue };
                prop_assert_eq!(ctx.local_width(), sub_bits.count());
                let fit = ctx.fit(&tlocal);
                let dense = ctx.estimate(&tbits);
                check_deferred(&ctx, &tlocal, fit.as_ref().map(|(f, _)| f.clone()), dense, 0.0)?;
                if let Some((_, parent)) = &fit {
                    check_deferred(
                        &ctx,
                        &child,
                        ctx.fit_downdated(parent, &removed).map(|(f, _)| f),
                        ctx.estimate(&child_bits),
                        1e-9,
                    )?;
                }
            }
        }
        }
    }

    /// (2a) Parallel within-level evaluation preserves the exact
    /// `TreatmentResult` ordering of the serial walk.
    #[test]
    fn parallel_level_matches_serial_level((ca, cb, nums, noise, subpop) in kernel_table::arb_rows()) {
        let (table, dag) = kernel_table::build(&ca, &cb, &nums, &noise);
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
