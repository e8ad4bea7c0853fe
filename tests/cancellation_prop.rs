//! Property test: cancellation is all-or-nothing.
//!
//! A `Cancel` fault injected at a *random* (pattern, level, chunk) site,
//! at any worker count, must produce exactly one of two outcomes:
//!
//! * the walk finished before the site was reached (or the site does not
//!   exist) — a complete summary, **bit-identical** to the clean
//!   baseline at the same thread count, or
//! * a clean `Error::Run(MineError::Cancelled { .. })` with sane progress
//!   counters.
//!
//! Never a partial or corrupt summary, never a poisoned session: after
//! every shrink-iteration the same session re-runs the query unfaulted
//! and must reproduce the baseline bit-for-bit.

use causal::Dag;
use causumx::{
    ConfigBuilder, Error, FaultKind, FaultPlan, FaultSite, MineError, RunGuard, Session, Summary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::{Table, TableBuilder};

fn dataset() -> (Table, Dag) {
    let mut rng = StdRng::seed_from_u64(61);
    let n = 1_200;
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let c = rng.gen_range(0..6usize);
        let tr = rng.gen_bool(0.5);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c % 2));
        t.push(if tr { "on" } else { "off" }.to_string());
        y.push((c % 2) as f64 * 3.0 + 4.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
    }
    let table = TableBuilder::new()
        .cat_owned("country", country)
        .unwrap()
        .cat_owned("region", region)
        .unwrap()
        .cat_owned("t", t)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let dag = Dag::new(
        &["country", "region", "t", "y"],
        &[("country", "y"), ("t", "y")],
    )
    .unwrap();
    (table, dag)
}

fn fingerprint(s: &Summary) -> (u64, usize, usize, Vec<(String, Option<u64>, Option<u64>)>) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.cate_evaluations,
        s.explanations
            .iter()
            .map(|e| {
                (
                    e.grouping.key(),
                    e.positive.as_ref().map(|t| t.cate.to_bits()),
                    e.negative.as_ref().map(|t| t.cate.to_bits()),
                )
            })
            .collect(),
    )
}

fn config(threads: usize) -> ConfigBuilder {
    ConfigBuilder::new().apriori_tau(0.05).threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cancel_site_is_all_or_nothing(
        pattern in 0usize..12,
        level in 1usize..4,
        chunk in 0usize..4,
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][threads_idx];
        let (table, dag) = dataset();

        let baseline_session =
            Session::new(table.clone(), dag.clone(), config(threads).build().unwrap());
        let want = fingerprint(
            &baseline_session.query().group_by("country").avg("y").run().unwrap(),
        );

        let site = FaultSite { pattern, level, chunk };
        let plan = FaultPlan::new().inject(site, FaultKind::Cancel);
        // Each fault fires at most once per guard: every run arms a fresh one.
        let run_faulted = |q: &causumx::PreparedQuery<'_>| {
            q.run_guarded(&RunGuard::unlimited().with_faults(plan.clone()))
        };
        let session = Session::new(table.clone(), dag.clone(), config(threads).build().unwrap());
        let q = session.query().group_by("country").avg("y").prepare().unwrap();
        match run_faulted(&q) {
            Ok(summary) => prop_assert_eq!(
                &want,
                &fingerprint(&summary),
                "site {:?} unreached but summary diverged", site
            ),
            Err(Error::Run(MineError::Cancelled { progress })) => {
                // Progress is a consistent snapshot: a cancelled run can
                // never report more work than the complete run performs.
                let (_, _, total_evals, _) = want.clone();
                prop_assert!(
                    progress.cate_evaluations <= total_evals,
                    "progress overcounts: {} > {}", progress.cate_evaluations, total_evals
                );
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }

        // Determinism: the faulted query's outcome is a function of the
        // site, not of scheduling luck — rerunning must agree on
        // success-vs-cancelled.
        let cancelled = |r: Result<Summary, Error>| {
            matches!(r, Err(Error::Run(MineError::Cancelled { .. })))
        };
        let again_cancelled = cancelled(run_faulted(&q));
        let first_cancelled = cancelled(run_faulted(&q));
        prop_assert_eq!(again_cancelled, first_cancelled);

        // The session survives whatever happened: a clean run on the
        // *baseline* session reproduces the baseline bit-for-bit.
        let clean = baseline_session.query().group_by("country").avg("y").run().unwrap();
        prop_assert_eq!(&want, &fingerprint(&clean));
    }
}
