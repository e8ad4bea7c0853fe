//! Contracts of the versioned numeric modes.
//!
//! `NumericMode::Exact` is the historical bit-replay contract: the serial
//! ascending-order floating-point fold, which never downdates.
//! `NumericMode::FastV1` is a *second* pinned contract: fixed-lane
//! (8-lane) strided partial sums folded in one documented order, plus
//! incremental Gram downdating for subset candidates — bit-identical
//! across thread counts within the mode, and tolerance-close (1e-9
//! relative) to Exact.
//!
//! This suite pins:
//!
//! * kernel level (proptest): the lane fold is a pure function of the
//!   *visitation sequence* — dense slices, sparse gathers and blocked
//!   accumulation at any block boundary produce identical bits,
//! * estimator level (proptest): Exact and FastV1 agree within 1e-9
//!   relative on CATE and p-value across random tables, confounder
//!   mixes and sampling caps,
//! * pipeline level: FastV1 summaries are bit-identical across worker
//!   counts; Exact never downdates (`downdates = 0`, parented candidates
//!   re-gather); the downdated FastV1 candidates stay inside the 1e-9
//!   envelope of the cold estimator, which re-gathers.

mod common;
mod kernel_table;

use proptest::prelude::*;

use causal::estimate::{estimate_cate, CateOptions};
use causal::Dag;
use causumx::{ConfigBuilder, NumericMode, Session, Summary};
use mining::treatment::TreatmentMiner;
use stats::numeric::{self, LaneAcc};

// ---------- kernel level: lane-fold determinism ----------

/// Map small integers to "awkward" floats (non-dyadic, mixed sign) so
/// FP non-associativity would surface if the fold order ever varied.
fn awkward(v: i64) -> f64 {
    v as f64 * 0.1 + (v as f64) * (v as f64) * 1e-3 - 3.7
}

proptest! {
    /// The lane fold depends only on the visited values in visitation
    /// order: a dense `lane_sum` over the gathered vector, an element
    /// push through `LaneAcc`, and a filtered-iterator gather all agree
    /// bit for bit, for random row sets at every tail length.
    #[test]
    fn lane_fold_is_gather_invariant(
        vals in prop::collection::vec(-500i64..500, 1..200),
        mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let xs: Vec<f64> = vals.iter().map(|&v| awkward(v)).collect();
        let gathered: Vec<f64> = xs
            .iter()
            .zip(mask.iter().cycle())
            .filter(|(_, &keep)| keep)
            .map(|(&x, _)| x)
            .collect();

        let dense = numeric::lane_sum(&gathered);
        let mut acc = LaneAcc::new();
        for (x, keep) in xs.iter().zip(mask.iter().cycle()) {
            if *keep {
                acc.push(*x);
            }
        }
        prop_assert_eq!(dense.to_bits(), acc.finish().to_bits(),
            "sparse gather diverged from dense lane pass");
    }

    /// Blocked RSS accumulation is boundary-invariant: folding
    /// `lane_sq_diff_into` over blocks of any multiple-of-8 size matches
    /// the whole-array `lane_sq_diff` bit for bit (the contract the
    /// fused FastV1 residual pass relies on).
    #[test]
    fn blocked_rss_is_boundary_invariant(
        vals in prop::collection::vec((-500i64..500, -500i64..500), 1..300),
        block_units in 1usize..12,
    ) {
        let y: Vec<f64> = vals.iter().map(|&(a, _)| awkward(a)).collect();
        let yhat: Vec<f64> = vals.iter().map(|&(_, b)| awkward(b) * 0.5).collect();
        let whole = numeric::lane_sq_diff(&y, &yhat);

        let block = block_units * 8;
        let mut lanes = [0.0f64; 8];
        let mut s = 0;
        while s < y.len() {
            let e = (s + block).min(y.len());
            numeric::lane_sq_diff_into(&mut lanes, &y[s..e], &yhat[s..e]);
            s = e;
        }
        prop_assert_eq!(whole.to_bits(), numeric::fold8(lanes).to_bits(),
            "block size {} changed the RSS bits", block);
    }
}

// ---------- estimator level: cross-mode tolerance ----------

/// Relative closeness with an absolute floor for near-zero values.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0) || (a.is_nan() && b.is_nan())
}

proptest! {
    /// Exact and FastV1 agree within 1e-9 relative on CATE and p-value
    /// for every confounder mix and sampling cap, and perform identical
    /// work (same n/n_treated/n_control, same Some/None shape).
    #[test]
    fn fast_v1_tracks_exact_across_mixes((ca, cb, nums, noise, subpop) in kernel_table::arb_rows()) {
        let (table, _) = kernel_table::build(&ca, &cb, &nums, &noise);
        let n = table.nrows();
        let treated: Vec<bool> = ca.iter().map(|&v| v % 3 == 0).collect();

        for confounders in [vec![], vec![1], vec![2], vec![1, 2]] {
            for cap in [None, Some(n / 2)] {
                let opts = |mode| CateOptions {
                    sample_cap: cap,
                    numeric_mode: mode,
                    ..CateOptions::default()
                };
                let exact = estimate_cate(&table, Some(&subpop), &treated, 3,
                    &confounders, &opts(NumericMode::Exact));
                let fast = estimate_cate(&table, Some(&subpop), &treated, 3,
                    &confounders, &opts(NumericMode::FastV1));
                match (exact, fast) {
                    (Some(e), Some(f)) => {
                        prop_assert!(close(e.cate, f.cate), "cate {} vs {}", e.cate, f.cate);
                        prop_assert!(close(e.p_value, f.p_value),
                            "p {} vs {}", e.p_value, f.p_value);
                        prop_assert_eq!(e.n, f.n);
                        prop_assert_eq!(e.n_treated, f.n_treated);
                        prop_assert_eq!(e.n_control, f.n_control);
                    }
                    (e, f) => prop_assert_eq!(e.is_none(), f.is_none(),
                        "modes disagreed on estimability"),
                }
            }
        }
    }
}

// ---------- pipeline level ----------

fn so_config(mode: NumericMode, threads: usize) -> causumx::CausumxConfig {
    ConfigBuilder::new()
        .numeric_mode(mode)
        .threads(threads)
        .build()
        .unwrap()
}

fn so_run(n: usize, mode: NumericMode, threads: usize) -> Summary {
    let ds = datagen::so::generate(n, 42);
    Session::new(ds.table.clone(), ds.dag.clone(), so_config(mode, threads))
        .prepare(ds.query())
        .unwrap()
        .run()
}

/// Numeric fingerprint: result bits and every work counter.
fn fingerprint(s: &Summary) -> (u64, usize, usize, usize, usize, usize) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.candidates,
        s.cate_evaluations,
        s.downdates,
        s.regathers,
    )
}

/// FastV1 is one deterministic function of the input: the worker count
/// may not move a bit or a counter.
#[test]
fn fast_v1_bit_identical_across_threads_and_knobs() {
    let want = fingerprint(&so_run(3_000, NumericMode::FastV1, 1));
    for threads in [1usize, 2, 4] {
        let got = fingerprint(&so_run(3_000, NumericMode::FastV1, threads));
        assert_eq!(want, got, "FastV1 diverged at threads={threads}");
    }
}

/// FastV1 is bit-identical across worker counts, downdate and regather
/// counters included (plans are built serially per level), and actually
/// exercises the downdate path on the default SO workload.
#[test]
fn fast_v1_downdating_deterministic_and_exercised() {
    let base = so_run(3_000, NumericMode::FastV1, 1);
    assert!(
        base.downdates > 0,
        "SO workload must produce subset candidates that downdate"
    );
    let want = fingerprint(&base);
    for threads in [2usize, 4] {
        let run = so_run(3_000, NumericMode::FastV1, threads);
        assert_eq!(
            want,
            fingerprint(&run),
            "downdating walk diverged at threads={threads}"
        );
    }
}

/// Exact mode never downdates: parented candidates show up as
/// re-gathers — the fallback that preserves the bit-replay contract.
#[test]
fn exact_mode_ignores_downdating_knob() {
    let exact = so_run(3_000, NumericMode::Exact, 1);
    assert_eq!(exact.downdates, 0, "Exact mode must never downdate");
    assert!(
        exact.regathers > 0,
        "parented candidates should fall back to re-gathers under Exact"
    );
}

/// Downdating vs re-gathering within FastV1: every treatment of every
/// mined candidate — fitted on downdated moments where the walk could —
/// stays inside the 1e-9 relative envelope of the cold estimator, which
/// gathers every candidate (the subtraction reorders FP, so bit-identity
/// is explicitly *not* the contract here).
#[test]
fn downdate_vs_regather_within_tolerance() {
    let ds = datagen::so::generate(3_000, 42);
    let cfg = so_config(NumericMode::FastV1, 1);
    let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg.clone());
    let pq = session.prepare(ds.query()).unwrap();
    let candidates = pq.mine_candidates();
    assert!(
        candidates.stats.downdates > 0,
        "the SO workload must downdate"
    );
    let miner = TreatmentMiner::new(
        &ds.table,
        &ds.dag,
        ds.outcome,
        &pq.attr_split().treatment,
        cfg.lattice.clone(),
    );
    for e in &candidates.explanations {
        let subpop = candidates.view.subpopulation_mask(&e.coverage);
        for t in [&e.positive, &e.negative].into_iter().flatten() {
            common::check_oracle(
                &ds.table,
                &miner,
                ds.outcome,
                &subpop,
                t,
                &cfg.lattice.cate_opts,
            )
            .unwrap();
        }
    }
}

/// Cross-mode pipeline agreement: same candidates, same coverage, and
/// total weight within 1e-9 relative — the whole-pipeline restatement of
/// the kernel tolerance.
#[test]
fn exact_and_fast_v1_pipelines_agree() {
    let exact = so_run(3_000, NumericMode::Exact, 1);
    let fast = so_run(3_000, NumericMode::FastV1, 1);
    assert_eq!(exact.cate_evaluations, fast.cate_evaluations);
    assert_eq!(exact.candidates, fast.candidates);
    assert_eq!(exact.covered, fast.covered);
    let rel = (exact.total_weight - fast.total_weight).abs() / exact.total_weight.abs().max(1e-30);
    assert!(
        rel <= 1e-9,
        "modes drifted {rel:.3e} relative at pipeline level"
    );
}

/// The DAG type is exercised here only through the SO dataset, but keep
/// a direct sanity check that mode selection does not leak into
/// unrelated configuration.
#[test]
fn builder_round_trips_the_mode() {
    let cfg = ConfigBuilder::new()
        .numeric_mode(NumericMode::FastV1)
        .build()
        .unwrap();
    assert_eq!(cfg.lattice.cate_opts.numeric_mode, NumericMode::FastV1);
    assert_eq!(NumericMode::parse("fast_v1"), Some(NumericMode::FastV1));
    assert_eq!(NumericMode::parse("exact"), Some(NumericMode::Exact));
    let _ = Dag::new(&["a", "y"], &[("a", "y")]).unwrap();
}
