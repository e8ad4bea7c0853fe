//! Chaos suite: deterministic fault injection against the query
//! lifeguards.
//!
//! Each test arms a [`FaultPlan`] (or a limit) on one run's [`RunGuard`]
//! and asserts the failure-model contract end to end:
//!
//! * an injected fault surfaces as **exactly one** structured
//!   [`causumx::Error`] naming its site,
//! * uninjected sibling queries — including ones running concurrently on
//!   their own scheduler pools — stay **bit-identical** to a clean
//!   baseline,
//! * the session, its caches and the worker pool stay reusable after
//!   every failure (no leaked workers: the scheduler's scoped threads
//!   would deadlock the next run if a worker survived),
//! * benign faults (delays, spurious wakeups, unreached sites) change
//!   nothing observable.
//!
//! The fault-observing scenarios run under both numeric modes
//! (`Exact` and `FastV1`) — the failure model is independent of which
//! reduction kernels the estimator uses.
//!
//! The dataset is seeded; set `CHAOS_SEED` to sweep the matrix in CI.

use std::time::Duration;

use causal::Dag;
use causumx::{
    ConfigBuilder, Error, FaultKind, FaultPlan, FaultSite, MineError, NumericMode, RunGuard,
    Session, Summary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::{Table, TableBuilder};

/// Seed for dataset generation; override with `CHAOS_SEED` to sweep.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(41)
}

/// The fault site every plan below targets: the first evaluation chunk
/// of the first lattice level of the first pattern walk — reached by
/// every run that mines at least one grouping pattern, at any thread
/// count.
const SITE: FaultSite = FaultSite {
    pattern: 0,
    level: 1,
    chunk: 0,
};

fn dataset() -> (Table, Dag) {
    let mut rng = StdRng::seed_from_u64(chaos_seed());
    let n = 1_500;
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let c = rng.gen_range(0..8usize);
        let tr = rng.gen_bool(0.5);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c % 3));
        t.push(if tr { "on" } else { "off" }.to_string());
        y.push((c % 3) as f64 * 3.0 + 4.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
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

fn config(threads: usize, mode: NumericMode) -> ConfigBuilder {
    ConfigBuilder::new()
        .apriori_tau(0.05)
        .threads(threads)
        .numeric_mode(mode)
}

/// A fresh guard armed with `plan`: each fault fires at most once per
/// guard, so every run takes its own.
fn armed(plan: &FaultPlan) -> RunGuard {
    RunGuard::unlimited().with_faults(plan.clone())
}

/// Both numeric modes: the failure model must hold identically under the
/// pinned serial fold and the fixed-lane FastV1 kernels.
const MODES: [NumericMode; 2] = [NumericMode::Exact, NumericMode::FastV1];

/// Exact, order-sensitive summary fingerprint (bit patterns, not
/// rounded values).
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

/// Clean-run fingerprint under `threads`, used as the baseline every
/// faulted scenario is compared against.
fn baseline(table: &Table, dag: &Dag, threads: usize, mode: NumericMode) -> Summary {
    let session = Session::new(
        table.clone(),
        dag.clone(),
        config(threads, mode).build().unwrap(),
    );
    session.query().group_by("country").avg("y").run().unwrap()
}

#[test]
fn injected_panic_fails_only_that_query_and_names_its_site() {
    let (table, dag) = dataset();
    for (threads, mode) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| MODES.map(|m| (t, m)))
    {
        let want = fingerprint(&baseline(&table, &dag, threads, mode));

        let plan = FaultPlan::new().inject(SITE, FaultKind::Panic);
        let session = Session::new(
            table.clone(),
            dag.clone(),
            config(threads, mode).build().unwrap(),
        );
        {
            let q = session
                .query()
                .group_by("country")
                .avg("y")
                .prepare()
                .unwrap();
            match q.run_guarded(&armed(&plan)) {
                Err(Error::Run(MineError::Worker { task, payload })) => {
                    // One driver at every worker count: the label names
                    // the chunk site, not just the pattern.
                    assert_eq!(task, "pattern 0 level 1 chunk 0", "threads={threads}");
                    assert!(
                        payload.contains("pattern 0 level 1 chunk 0"),
                        "threads={threads}: payload={payload}"
                    );
                }
                other => panic!("threads={threads}: expected worker error, got {other:?}"),
            }
            // Fault fires once per guard; arming a fresh guard means the
            // next run of the *same* query fails identically — still
            // exactly one structured error, still no poisoned pool.
            assert!(matches!(
                q.run_guarded(&armed(&plan)),
                Err(Error::Run(MineError::Worker { .. }))
            ));
        }

        // The session (and its FD/backdoor caches) survives: without the
        // plan the same query is bit-identical to the clean baseline.
        let clean = session.query().group_by("country").avg("y").run().unwrap();
        assert_eq!(
            want,
            fingerprint(&clean),
            "threads={threads} mode={mode:?}: post-failure run diverged from baseline"
        );
    }
}

#[test]
fn concurrent_sibling_query_stays_bit_identical() {
    let (table, dag) = dataset();
    let threads = 2;
    let want = fingerprint(&baseline(&table, &dag, threads, NumericMode::Exact));

    let plan = FaultPlan::new().inject(SITE, FaultKind::Panic);
    let faulted = Session::new(
        table.clone(),
        dag.clone(),
        config(threads, NumericMode::Exact).build().unwrap(),
    );
    let clean = Session::new(
        table.clone(),
        dag.clone(),
        config(threads, NumericMode::Exact).build().unwrap(),
    );

    std::thread::scope(|scope| {
        let chaos = scope.spawn(|| {
            let q = faulted
                .query()
                .group_by("country")
                .avg("y")
                .prepare()
                .unwrap();
            q.run_guarded(&armed(&plan))
        });
        let sibling = scope.spawn(|| {
            let q = clean
                .query()
                .group_by("country")
                .avg("y")
                .prepare()
                .unwrap();
            q.run()
        });
        assert!(matches!(
            chaos.join().unwrap(),
            Err(Error::Run(MineError::Worker { .. }))
        ));
        assert_eq!(
            want,
            fingerprint(&sibling.join().unwrap()),
            "sibling query diverged while a chaos query panicked next door"
        );
    });
}

#[test]
fn benign_faults_leave_results_bit_identical() {
    let (table, dag) = dataset();
    for (threads, mode) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| MODES.map(|m| (t, m)))
    {
        let want = fingerprint(&baseline(&table, &dag, threads, mode));
        // Delay + spurious wakeup at a reached site, plus a panic armed
        // at a site no walk ever visits: all must be invisible in the
        // output.
        let plan = FaultPlan::new()
            .inject(SITE, FaultKind::Delay(Duration::from_millis(5)))
            .inject(SITE, FaultKind::SpuriousWake)
            .inject(
                FaultSite {
                    pattern: 999,
                    level: 1,
                    chunk: 0,
                },
                FaultKind::Panic,
            );
        let cfg = config(threads, mode).build().unwrap();
        let session = Session::new(table.clone(), dag.clone(), cfg);
        let q = session
            .query()
            .group_by("country")
            .avg("y")
            .prepare()
            .unwrap();
        let got = q
            .run_guarded(&armed(&plan))
            .expect("benign faults must not fail the query");
        assert_eq!(
            want,
            fingerprint(&got),
            "threads={threads} mode={mode:?}: delay/spurious-wake changed the summary"
        );
    }
}

#[test]
fn cancel_fault_surfaces_clean_cancelled_error() {
    let (table, dag) = dataset();
    for (threads, mode) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| MODES.map(|m| (t, m)))
    {
        let plan = FaultPlan::new().inject(SITE, FaultKind::Cancel);
        let session = Session::new(
            table.clone(),
            dag.clone(),
            config(threads, mode).build().unwrap(),
        );
        let q = session
            .query()
            .group_by("country")
            .avg("y")
            .prepare()
            .unwrap();
        match q.run_guarded(&armed(&plan)) {
            Err(Error::Run(MineError::Cancelled { .. })) => {}
            other => panic!("threads={threads}: expected cancellation, got {other:?}"),
        }
    }
}

#[test]
fn immediate_deadline_trips_with_progress() {
    let (table, dag) = dataset();
    let session = Session::new(table, dag, config(2, NumericMode::Exact).build().unwrap());
    let q = session
        .query()
        .group_by("country")
        .avg("y")
        .prepare()
        .unwrap();
    match q.run_guarded(&RunGuard::unlimited().with_deadline(Duration::from_nanos(1))) {
        Err(Error::Run(MineError::DeadlineExceeded { after_ms, .. })) => assert_eq!(after_ms, 0),
        other => panic!("expected deadline trip, got {other:?}"),
    }
}

#[test]
fn memory_budget_trips_via_synthetic_probe() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let (table, dag) = dataset();
    let session = Session::new(table, dag, config(2, NumericMode::Exact).build().unwrap());
    let q = session
        .query()
        .group_by("country")
        .avg("y")
        .prepare()
        .unwrap();

    // Baseline reading 0, then 4 MiB of apparent growth per probe call:
    // the 1 MiB budget trips at the first checked chunk boundary.
    let calls = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&calls);
    let guard = RunGuard::unlimited()
        .with_memory_probe(move || Some(c.fetch_add(1, Ordering::Relaxed) * (4 << 20)))
        .with_memory_budget_bytes(1 << 20);
    match q.run_guarded(&guard) {
        Err(Error::Run(MineError::MemoryBudget {
            budget_mb,
            observed_mb,
            ..
        })) => {
            assert_eq!(budget_mb, 1);
            assert!(observed_mb > budget_mb);
        }
        other => panic!("expected memory-budget trip, got {other:?}"),
    }

    // Only that run died: the same prepared query under a real (huge)
    // budget completes.
    let ok = q
        .run_guarded(&RunGuard::unlimited().with_memory_budget_mb(1 << 20))
        .expect("huge budget must not trip");
    assert!(ok.m > 0);
}

#[test]
fn cancel_handle_works_from_another_thread() {
    let (table, dag) = dataset();
    let session = Session::new(table, dag, config(2, NumericMode::Exact).build().unwrap());
    let q = session
        .query()
        .group_by("country")
        .avg("y")
        .prepare()
        .unwrap();

    // Deterministic: cancelled before the run starts — the first
    // checkpoint sees it.
    let guard = RunGuard::unlimited();
    let handle = guard.cancel_handle();
    std::thread::spawn(move || handle.cancel()).join().unwrap();
    assert!(matches!(
        q.run_guarded(&guard),
        Err(Error::Run(MineError::Cancelled { .. }))
    ));

    // Racy flavor: cancel mid-flight. Either the run finished first
    // (complete summary) or it was cancelled cleanly — never anything
    // else.
    let guard = RunGuard::unlimited();
    let handle = guard.cancel_handle();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_micros(200));
            handle.cancel();
        });
        match q.run_guarded(&guard) {
            Ok(summary) => assert!(summary.m > 0),
            Err(Error::Run(MineError::Cancelled { .. })) => {}
            other => panic!("expected completion or cancellation, got {other:?}"),
        }
    });
}

#[test]
fn pool_survives_repeated_faulted_runs() {
    let (table, dag) = dataset();
    let threads = 4;
    let want = fingerprint(&baseline(&table, &dag, threads, NumericMode::Exact));

    let plan = FaultPlan::new().inject(SITE, FaultKind::Panic);
    let faulted = Session::new(
        table.clone(),
        dag.clone(),
        config(threads, NumericMode::Exact).build().unwrap(),
    );
    let q = faulted
        .query()
        .group_by("country")
        .avg("y")
        .prepare()
        .unwrap();
    for round in 0..5 {
        assert!(
            matches!(
                q.run_guarded(&armed(&plan)),
                Err(Error::Run(MineError::Worker { .. }))
            ),
            "round {round}: fault stopped firing"
        );
    }

    let clean = Session::new(
        table,
        dag,
        config(threads, NumericMode::Exact).build().unwrap(),
    );
    let got = clean.query().group_by("country").avg("y").run().unwrap();
    assert_eq!(want, fingerprint(&got), "pool unusable after chaos rounds");
}
