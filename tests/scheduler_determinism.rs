//! Full-pipeline bit-identity across scheduler worker counts.
//!
//! The unified work-stealing scheduler replaces the old exclusive
//! cross-pattern / within-level thread pools, so *one* contract now
//! covers every parallel path: for any worker count the pipeline summary
//! must be bit-identical (`f64::to_bits`) to the `threads = 1` serial
//! run. This suite pins that contract over a matrix of
//!
//! * worker counts `{1, 2, 4, 8}` — including counts far above this
//!   host's cores (explicit counts are honored verbatim, so
//!   oversubscription is exercised on any machine),
//! * workload shapes the scheduler must load-balance differently:
//!   many skewed grouping patterns, one giant pattern dominating the
//!   work, tiny/empty subpopulations, and groups emptied by a WHERE
//!   clause before mining,
//! * both numeric modes: `Exact` (the pinned serial fold) and `FastV1`
//!   (fixed-lane reductions + moment downdating), each bit-identical to
//!   its own serial run at every worker count.
//!
//! It subsumes the former `parallel_equals_sequential*` tests, and adds
//! the nested-fan-out regression: a lattice walk launched from inside a
//! scheduler task runs inline on the calling worker, so nesting never
//! multiplies thread counts (no cores² explosion).

use std::collections::HashSet;
use std::sync::Mutex;

use causal::Dag;
use causumx::{ConfigBuilder, NumericMode, Session, Summary};
use mining::sched;
use mining::treatment::{LatticeOptions, TreatmentMiner};
use mining::RunGuard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::bitset::BitSet;
use table::{Table, TableBuilder};

/// One generated workload: a table, its DAG, and the query to run.
struct Workload {
    table: Table,
    dag: Dag,
    group_by: &'static str,
    outcome: &'static str,
    where_sql: Option<&'static str>,
}

/// Many grouping patterns with sizes skewed by more than an order of
/// magnitude — the scenario static chunking served poorly.
fn many_skewed_patterns() -> Workload {
    let mut rng = StdRng::seed_from_u64(41);
    let n = 3_000;
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let c = loop {
            let c = rng.gen_range(0..12usize);
            // Skew: low-index countries are much more common.
            if rng.gen_range(0..12) >= c {
                break c;
            }
        };
        let tr = rng.gen_bool(0.4);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c / 3));
        t.push(if tr { "on" } else { "off" }.to_string());
        y.push((c / 3) as f64 * 4.0 + 5.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
    }
    Workload {
        table: build_table(country, region, t, y),
        dag: dag(),
        group_by: "country",
        outcome: "y",
        where_sql: None,
    }
}

/// One pattern covers ~90 % of all rows while nine others split the
/// remainder: workers must steal candidate chunks from the giant
/// pattern's levels instead of idling after their own small walk.
fn one_giant_pattern() -> Workload {
    let mut rng = StdRng::seed_from_u64(43);
    let n = 3_000;
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let c = if rng.gen_bool(0.9) {
            0
        } else {
            rng.gen_range(1..10usize)
        };
        let tr = rng.gen_bool(0.5);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c % 3));
        t.push(if tr { "on" } else { "off" }.to_string());
        y.push((c % 3) as f64 * 3.0 + 4.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
    }
    Workload {
        table: build_table(country, region, t, y),
        dag: dag(),
        group_by: "country",
        outcome: "y",
        where_sql: None,
    }
}

/// A few large groups plus several singleton/near-empty ones, so some
/// subpopulations fall below `min_arm` and their walks finish at level
/// 0/1 — zero-candidate levels must round-trip the scheduler cleanly.
fn tiny_subpopulations() -> Workload {
    let mut rng = StdRng::seed_from_u64(47);
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut y = Vec::new();
    for i in 0..2_000usize {
        // c0/c1 hold almost everything; c2..c7 get ~3 rows each.
        let c = if i < 18 { 2 + i / 3 } else { i % 2 };
        let tr = rng.gen_bool(0.5);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c % 2));
        t.push(if tr { "on" } else { "off" }.to_string());
        y.push((c % 2) as f64 * 2.0 + 3.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
    }
    Workload {
        table: build_table(country, region, t, y),
        dag: dag(),
        group_by: "country",
        outcome: "y",
        where_sql: None,
    }
}

/// A WHERE clause removes every row of two countries before grouping, so
/// the view has fewer groups than the raw attribute and the miner sees
/// subpopulations defined under the filter.
fn where_emptied_groups() -> Workload {
    let mut rng = StdRng::seed_from_u64(53);
    let mut country = Vec::new();
    let mut region = Vec::new();
    let mut t = Vec::new();
    let mut wave = Vec::new();
    let mut y = Vec::new();
    for _ in 0..2_500usize {
        let c = rng.gen_range(0..8usize);
        let tr = rng.gen_bool(0.5);
        country.push(format!("c{c}"));
        region.push(format!("r{}", c % 3));
        t.push(if tr { "on" } else { "off" }.to_string());
        // Countries c6/c7 only ever appear in wave 9, which the WHERE
        // clause below excludes entirely.
        wave.push(if c >= 6 { 9 } else { (c % 3) as i64 });
        y.push((c % 3) as f64 * 2.5 + 4.0 * tr as i64 as f64 + rng.gen_range(-0.5..0.5));
    }
    let table = TableBuilder::new()
        .cat_owned("country", country)
        .unwrap()
        .cat_owned("region", region)
        .unwrap()
        .cat_owned("t", t)
        .unwrap()
        .int("wave", wave)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let dag = Dag::new(
        &["country", "region", "t", "wave", "y"],
        &[("country", "y"), ("t", "y")],
    )
    .unwrap();
    Workload {
        table,
        dag,
        group_by: "country",
        outcome: "y",
        where_sql: Some("wave < 9"),
    }
}

fn build_table(country: Vec<String>, region: Vec<String>, t: Vec<String>, y: Vec<f64>) -> Table {
    TableBuilder::new()
        .cat_owned("country", country)
        .unwrap()
        .cat_owned("region", region)
        .unwrap()
        .cat_owned("t", t)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

fn dag() -> Dag {
    Dag::new(
        &["country", "region", "t", "y"],
        &[("country", "y"), ("t", "y")],
    )
    .unwrap()
}

/// Exact, order-sensitive summary fingerprint: every float by bit
/// pattern, every explanation in its emitted order.
#[allow(clippy::type_complexity)]
fn fingerprint(
    s: &Summary,
) -> (
    u64,
    usize,
    usize,
    usize,
    Vec<(String, Option<u64>, Option<u64>)>,
) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.candidates,
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

fn run(w: &Workload, threads: usize, mode: NumericMode) -> Summary {
    let cfg = ConfigBuilder::new()
        .apriori_tau(0.05)
        .threads(threads)
        .numeric_mode(mode)
        .build()
        .unwrap();
    let session = Session::new(w.table.clone(), w.dag.clone(), cfg);
    let mut q = session.query().group_by(w.group_by).avg(w.outcome);
    if let Some(clause) = w.where_sql {
        q = q.where_sql(clause);
    }
    q.run().unwrap()
}

fn assert_matrix(name: &str, w: &Workload) {
    // `Exact` pins the serial ascending fold, `FastV1` the fixed-lane
    // kernels plus moment downdating — each mode must be bit-identical to
    // its *own* serial run at every worker count.
    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        let want = fingerprint(&run(w, 1, mode));
        for threads in [2usize, 4, 8] {
            let got = fingerprint(&run(w, threads, mode));
            assert_eq!(
                want, got,
                "{name}: threads={threads} mode={mode:?} diverged from serial"
            );
        }
    }
}

#[test]
fn many_skewed_patterns_bit_identical() {
    assert_matrix("many_skewed_patterns", &many_skewed_patterns());
}

#[test]
fn one_giant_pattern_bit_identical() {
    assert_matrix("one_giant_pattern", &one_giant_pattern());
}

#[test]
fn tiny_subpopulations_bit_identical() {
    assert_matrix("tiny_subpopulations", &tiny_subpopulations());
}

#[test]
fn where_emptied_groups_bit_identical() {
    assert_matrix("where_emptied_groups", &where_emptied_groups());
}

/// Lifeguards must be pure observers: running the same workloads under
/// an (ample) deadline and memory budget through the fallible `try_run`
/// path must stay bit-identical to the unguarded serial run at every
/// worker count — the guard checkpoints may not perturb chunking, merge
/// order or FP accumulation.
#[test]
fn guarded_runs_stay_bit_identical() {
    for w in [many_skewed_patterns(), one_giant_pattern()] {
        let unguarded = fingerprint(&run(&w, 1, NumericMode::Exact));
        for threads in [1usize, 2, 4] {
            let cfg = ConfigBuilder::new()
                .apriori_tau(0.05)
                .threads(threads)
                .deadline(std::time::Duration::from_secs(3600))
                .memory_budget_mb(1 << 20)
                .build()
                .unwrap();
            let session = Session::new(w.table.clone(), w.dag.clone(), cfg);
            let mut q = session.query().group_by(w.group_by).avg(w.outcome);
            if let Some(clause) = w.where_sql {
                q = q.where_sql(clause);
            }
            let summary = q
                .prepare()
                .unwrap()
                .try_run()
                .expect("ample limits must not trip");
            assert_eq!(
                unguarded,
                fingerprint(&summary),
                "threads={threads}: guard checkpoints perturbed the result"
            );
        }
    }
}

/// Nested fan-out regression: launching a full lattice walk from inside
/// a scheduler task must not spawn a second layer of workers (the old
/// code needed an ad-hoc `level_threads = 1` override to avoid cores²
/// threads). Every thread observed anywhere inside the nested walks must
/// belong to the *outer* pool.
#[test]
fn nested_walks_never_multiply_threads() {
    let w = many_skewed_patterns();
    let miner = TreatmentMiner::new(&w.table, &w.dag, 3, &[0, 1], LatticeOptions::default());
    let n = w.table.nrows();
    let everything = BitSet::from_mask(&vec![true; n]);

    let outer_workers = 4;
    let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    let tasks: Vec<usize> = (0..8).collect();
    sched::run_graph(outer_workers, tasks, |_task, _spawn| {
        seen.lock().unwrap().insert(std::thread::current().id());
        // Asking for 8 more workers from inside a task must run inline.
        let paired = miner
            .mine_paired_many_guarded(&[&everything], 2, true, 8, &RunGuard::unlimited())
            .unwrap();
        assert!(paired[0].stats.evaluated > 0);
        seen.lock().unwrap().insert(std::thread::current().id());
    });
    let distinct = seen.lock().unwrap().len();
    assert!(
        distinct <= outer_workers,
        "nested walks leaked onto {distinct} threads (outer pool has {outer_workers})"
    );
}
