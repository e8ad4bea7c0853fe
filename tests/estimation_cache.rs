//! Equivalence guarantees of the subpopulation-scoped estimation cache.
//!
//! The perf rework (EstimationContext + bitset-native lattice walk +
//! work-stealing parallelism) must be *behaviour-preserving*: these
//! properties pin (1) context-cached CATE estimation against the naive
//! `estimate_cate` path across random tables and confounder mixes, (2) the
//! paired lattice walk's results against the cold estimator run from
//! scratch and against the brute-force enumeration, and (3) work-stealing
//! parallel pipeline output against the sequential run.

mod common;

use proptest::prelude::*;

use causal::context::EstimationContext;
use causal::estimate::{estimate_cate, CateOptions};
use causal::Dag;
use causumx::{Session, Summary};
use mining::treatment::{LatticeOptions, TreatmentMiner};
use mining::RunGuard;
use table::bitset::BitSet;
use table::{Table, TableBuilder};

/// A random-but-structured table: two categorical treatment candidates
/// (`a`, `b`), one numeric attribute (`num`, a confounder of `a`), and an
/// outcome with real effects plus data-driven noise.
fn build_table(cats_a: &[u8], cats_b: &[u8], nums: &[i64], noise: &[i64]) -> Table {
    let n = cats_a.len();
    let a: Vec<String> = cats_a.iter().map(|&v| format!("a{}", v % 3)).collect();
    let b: Vec<String> = cats_b.iter().map(|&v| format!("b{}", v % 2)).collect();
    let num: Vec<i64> = nums.to_vec();
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
        .int("num", num)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap()
}

/// DAG with a real confounder: `num → a`, and `a, b, num → y`.
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

proptest! {
    /// (1) Context-cached estimation matches the naive path to 1e-9 on
    /// CATE and p-value, for every confounder mix, with and without the
    /// §5.2(d) sampling cap. (The implementation is bit-identical by
    /// construction; 1e-9 is the contract.)
    #[test]
    fn context_estimation_matches_naive((ca, cb, nums, noise, subpop) in arb_rows()) {
        let table = build_table(&ca, &cb, &nums, &noise);
        let n = table.nrows();
        let treated: Vec<bool> = ca.iter().map(|&v| v % 3 == 0).collect();
        let tbits = BitSet::from_mask(&treated);
        let sub_bits = BitSet::from_mask(&subpop);

        for confounders in [vec![], vec![1], vec![2], vec![1, 2]] {
            for cap in [None, Some(n / 2)] {
                let opts = CateOptions { sample_cap: cap, ..CateOptions::default() };
                let naive = estimate_cate(&table, Some(&subpop), &treated, 3, &confounders, &opts);
                let cached = EstimationContext::new(&table, Some(&sub_bits), 3, &confounders, &opts)
                    .and_then(|ctx| ctx.estimate(&tbits));
                match (naive, cached) {
                    (Some(nv), Some(cv)) => {
                        prop_assert!((nv.cate - cv.cate).abs() < 1e-9,
                            "cate {} vs {}", nv.cate, cv.cate);
                        let p_match = (nv.p_value - cv.p_value).abs() < 1e-9
                            || (nv.p_value.is_nan() && cv.p_value.is_nan());
                        prop_assert!(p_match, "p {} vs {}", nv.p_value, cv.p_value);
                        prop_assert_eq!(nv.n, cv.n);
                        prop_assert_eq!(nv.n_treated, cv.n_treated);
                        prop_assert_eq!(nv.n_control, cv.n_control);
                    }
                    (nv, cv) => prop_assert_eq!(nv.is_none(), cv.is_none()),
                }
            }
        }
    }

    /// (2) Every result of the paired lattice walk (k = 3, both
    /// directions) equals the cold estimator run from scratch on the same
    /// subpopulation mask (`common::check_oracle`, bit for bit), and
    /// appears with the same bits in the brute-force enumeration
    /// `all_treatments` over the same lattice depth.
    #[test]
    fn cached_miner_matches_naive_miner((ca, cb, nums, noise, subpop) in arb_rows()) {
        let table = build_table(&ca, &cb, &nums, &noise);
        let dag = dag();
        let sub_bits = BitSet::from_mask(&subpop);
        let opts = LatticeOptions::default();
        let miner = TreatmentMiner::new(&table, &dag, 3, &[0, 1], opts.clone());

        let paired = miner
            .mine_paired_many_guarded(&[&sub_bits], 3, true, 1, &RunGuard::unlimited())
            .unwrap()
            .pop()
            .unwrap();
        let all = miner.all_treatments(&sub_bits, opts.max_level);
        for t in paired.positive.iter().chain(&paired.negative) {
            let oracle = common::check_oracle(&table, &miner, 3, &subpop, t, &opts.cate_opts);
            prop_assert!(oracle.is_ok(), "{:?}", oracle);
            let key = t.pattern.key();
            let brute = all.iter().find(|b| b.pattern.key() == key);
            prop_assert!(brute.is_some(), "{} missing from the enumeration", key);
            let brute = brute.unwrap();
            prop_assert_eq!(brute.cate.to_bits(), t.cate.to_bits(), "{}", key);
            prop_assert_eq!(brute.p_value.to_bits(), t.p_value.to_bits(), "{}", key);
            prop_assert_eq!(brute.n_treated, t.n_treated);
            prop_assert_eq!(brute.n_control, t.n_control);
        }
    }
}

fn summary_fingerprint(s: &Summary) -> (usize, usize, String, usize) {
    let mut keys: Vec<String> = s.explanations.iter().map(|e| e.grouping.key()).collect();
    keys.sort();
    (s.covered, s.candidates, keys.join(";"), s.cate_evaluations)
}

/// (3) Work-stealing parallel treatment mining produces the same summary
/// as the sequential run, on a workload with many grouping patterns of
/// very different sizes (the scenario static chunking degraded on).
#[test]
fn work_stealing_parallel_equals_sequential() {
    for seed in [7u64, 21] {
        let ds = datagen::so::generate(3_000, seed);
        let run = |threads: usize| {
            let cfg = causumx::ConfigBuilder::new()
                .threads(threads)
                .build()
                .unwrap();
            Session::new(ds.table.clone(), ds.dag.clone(), cfg)
                .prepare(ds.query())
                .unwrap()
                .run()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.total_weight, par.total_weight, "seed {seed}");
        assert_eq!(summary_fingerprint(&seq), summary_fingerprint(&par));
    }
}
