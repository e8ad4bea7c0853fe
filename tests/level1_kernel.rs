//! Level 1 of the lattice walk without projected subpopulation masks.
//!
//! Level 1 estimates every atom that passes the overlap gate. The walk no
//! longer projects each atom onto the subpopulation first: the gate reads
//! a full-width popcount, each attribute's atoms get their treated rows
//! from one pass over their context's rows, and under sampling a local
//! mask is built only where a join or a downdate plan reads one. These
//! tests pin:
//!
//! 1. `level1_matches_per_atom_gathers`: every level-1 candidate, as the
//!    walk estimates it ([`TreatmentMiner::level1_estimates`]), against
//!    [`EstimationContext::fit`] and [`EstimationContext::p_value`] on the
//!    atom's [`Projector`]-projected mask — the overlap count, every bit
//!    of the fit, the `FastV1` moments, the deferred p-value and the
//!    treated set the pass sorted out: the projected mask without
//!    sampling, the atom's rows of the sample under it. Every column kind
//!    that builds atoms is covered, an
//!    attribute is listed twice, and the subpopulations are random, empty
//!    and full, with and without a sample cap below their size, in both
//!    numeric modes and at two chunkings;
//! 2. `degenerate_level1_inputs_match_the_enumeration`: walks at
//!    `max_level` 1 and 3 on subpopulations of 0, 1 and `2·min_arm − 1`
//!    rows, on atoms that cover all or none of the subpopulation, on a
//!    constant numeric and a single-level categorical treatment attribute
//!    and with constant confounders return without panicking, and every
//!    result appears in the `all_treatments` enumeration with its bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use causal::context::{ConfounderKey, ContextCache};
use causal::estimate::CateOptions;
use causal::{Dag, NumericMode};
use mining::treatment::{LatticeOptions, TreatmentMiner, TreatmentResult};
use mining::RunGuard;
use proptest::test_runner::TestCaseError;
use table::bitset::{BitSet, Projector};
use table::{Table, TableBuilder};

/// Treatment columns that reach every branch of the atom space, two
/// confounders (one categorical, one numeric) behind all of them, and an
/// outcome. The categorical treatment has 24 levels, more than the atom
/// cap, and a filter leaves three of them without rows. The Int columns
/// take both slot lookups: a domain within a short span and one spread
/// wide. The zero-inflated columns collapse every quantile onto 0 and cut
/// at the mean.
fn level1_table(n: usize, seed: u64) -> (Table, Dag) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = n + n / 4;
    let mut zero_inflated = |hi: f64| -> Vec<f64> {
        (0..m)
            .map(|_| {
                if rng.gen_bool(0.8) {
                    0.0
                } else {
                    rng.gen_range(0.5..hi)
                }
            })
            .collect()
    };
    let zero_float = zero_inflated(40.0);
    let zero_int: Vec<i64> = zero_inflated(11.0)
        .iter()
        .map(|&v| v.ceil() as i64)
        .collect();
    let zc: Vec<String> = (0..m)
        .map(|_| format!("z{}", rng.gen_range(0..4)))
        .collect();
    let zn: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let cat: Vec<String> = (0..m)
        .map(|_| format!("c{}", rng.gen_range(0..24)))
        .collect();
    let small_int: Vec<i64> = (0..m).map(|_| rng.gen_range(-2..3)).collect();
    let spread_int: Vec<i64> = (0..m)
        .map(|_| [-1000, 3, 900][rng.gen_range(0..3)])
        .collect();
    let small_float: Vec<f64> = (0..m)
        .map(|_| [-1.5, 0.0, 2.25, 7.0][rng.gen_range(0..4)])
        .collect();
    let wide_int: Vec<i64> = (0..m).map(|_| rng.gen_range(-500..1000)).collect();
    let wide_float: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let y: Vec<f64> = (0..m)
        .map(|i| {
            let c = cat[i][1..].parse::<f64>().unwrap_or(0.0);
            0.3 * c + 2.0 * small_int[i] as f64 + 0.004 * wide_int[i] as f64 - wide_float[i]
                + 0.1 * zero_float[i]
                + 1.5 * zn[i]
                + if zc[i] == "z1" { 3.0 } else { 0.0 }
                + rng.gen_range(-1.0..1.0)
        })
        .collect();
    let full = TableBuilder::new()
        .cat_owned("cat", cat)
        .unwrap()
        .int("small_int", small_int)
        .unwrap()
        .int("spread_int", spread_int)
        .unwrap()
        .float("small_float", small_float)
        .unwrap()
        .int("wide_int", wide_int)
        .unwrap()
        .float("wide_float", wide_float)
        .unwrap()
        .int("zero_int", zero_int)
        .unwrap()
        .float("zero_float", zero_float)
        .unwrap()
        .cat_owned("zc", zc)
        .unwrap()
        .float("zn", zn)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let codes = full.column(0).codes().unwrap();
    let keep: Vec<bool> = (0..m).map(|r| codes[r] % 8 != 3).collect();
    let table = full.filter(&keep);
    let names = [
        "cat",
        "small_int",
        "spread_int",
        "small_float",
        "wide_int",
        "wide_float",
        "zero_int",
        "zero_float",
        "zc",
        "zn",
        "y",
    ];
    let mut edges: Vec<(&str, &str)> = names[..8].iter().map(|&t| (t, "y")).collect();
    for &t in &names[..8] {
        edges.push(("zc", t));
        edges.push(("zn", t));
    }
    edges.extend([("zc", "y"), ("zn", "y")]);
    (table, Dag::new(&names, &edges).unwrap())
}

/// The treatment attributes: every column kind, and `cat` twice.
const TREATMENTS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 0];
const Y: usize = 10;

/// Hold every level-1 candidate of `miner` on `subpop` to `fit` and
/// `p_value` on the atom's projected mask, and its treated set to that
/// mask or, on a sampled context, to the atom's rows of the sample; `Ok`
/// carries how many estimates were compared.
fn check_level1(
    table: &Table,
    miner: &TreatmentMiner<'_>,
    subpop: &BitSet,
    opts: &LatticeOptions,
    workers: usize,
) -> Result<usize, TestCaseError> {
    let mut compared = 0;
    let projector = Projector::new(subpop);
    let sub_n = subpop.count();
    let min_arm = opts.cate_opts.min_arm;
    let fast = opts.cate_opts.numeric_mode == NumericMode::FastV1;
    let mut contexts = ContextCache::new();
    let mut keys: Vec<Vec<usize>> = Vec::new();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let got = miner.level1_estimates(subpop, workers);
    // Every estimable atom is a level-1 candidate.
    for t in miner.all_treatments(subpop, 1) {
        prop_assert!(got.iter().any(|e| e.pattern.key() == t.pattern.key()));
    }
    for e in &got {
        let what = e.pattern.display(table);
        let atom = BitSet::from_mask(&e.pattern.eval(table).unwrap());
        let local = projector.project(&atom);
        prop_assert_eq!(e.treated_in_sub, local.count(), "{}", what);
        prop_assert!(e.treated_in_sub >= min_arm && sub_n - e.treated_in_sub >= min_arm);
        let confounders = miner.confounders_for(&e.pattern.attrs());
        prop_assert_eq!(&e.confounders, &confounders, "{}", what);
        // One id per distinct set, as the walk's interned keys have.
        let id = match keys.iter().position(|k| *k == confounders) {
            Some(id) => id,
            None => {
                keys.push(confounders.clone());
                keys.len() - 1
            }
        };
        let key = ConfounderKey::new(id, confounders);
        let ctx = contexts
            .get_or_build(table, Some(subpop), Y, &key, &opts.cate_opts)
            .expect("a numeric outcome builds every context");
        match (&e.fit, ctx.fit(&local)) {
            (Some(fit), Some((want, moments))) => {
                prop_assert_eq!(fit.cate().to_bits(), want.cate().to_bits(), "{}", what);
                prop_assert_eq!(fit.n_treated(), want.n_treated());
                prop_assert_eq!(fit.n_control(), want.n_control());
                // `Debug` prints every f64 so that it reads back to the
                // same bits: equal strings are equal fits.
                prop_assert_eq!(format!("{fit:?}"), format!("{want:?}"), "{}", what);
                match &e.moments {
                    Some(m) => {
                        prop_assert!(fast, "{}: moments kept under Exact", what);
                        prop_assert_eq!(m.n_treated, moments.n_treated);
                        prop_assert_eq!(m.ty.to_bits(), moments.ty.to_bits(), "{}", what);
                        prop_assert_eq!(bits(&m.tz), bits(&moments.tz), "{}", what);
                    }
                    None => prop_assert!(!fast, "{}: FastV1 keeps its moments", what),
                }
                let p = e.p_value.expect("an estimate has a p-value");
                let want_p = ctx.p_value(&want, &local);
                prop_assert_eq!(
                    p.to_bits(),
                    want_p.to_bits(),
                    "{}: p {} vs {}",
                    what,
                    p,
                    want_p
                );
                compared += 1;
            }
            (None, None) => prop_assert!(e.p_value.is_none()),
            (f, w) => prop_assert!(
                false,
                "{}: walk {:?} vs per-atom {:?}",
                what,
                f.is_some(),
                w.is_some()
            ),
        }
        if ctx.n() == ctx.local_width() {
            prop_assert_eq!(&e.treated, &local, "{}", what);
        } else {
            let rows: Vec<bool> = ctx.rows().iter().map(|&r| atom.contains(r)).collect();
            prop_assert_eq!(&e.treated, &BitSet::from_mask(&rows), "{}", what);
        }
    }
    Ok(compared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (1) The walk's level 1 against per-atom gathers on projected
    /// masks, bit for bit.
    #[test]
    fn level1_matches_per_atom_gathers(
        seed in any::<u64>(),
        n in 120usize..360,
        density in 0.1f64..0.9,
        capped in any::<bool>(),
    ) {
        let (table, dag) = level1_table(n, seed);
        let rows = table.nrows();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e7e1);
        let random = BitSet::from_mask(&(0..rows).map(|_| rng.gen_bool(density)).collect::<Vec<_>>());
        for (s, subpop) in [BitSet::full(rows), BitSet::new(rows), random].into_iter().enumerate() {
            // A cap below the subpopulation's size makes the context
            // sample it.
            let cap = (capped && subpop.count() > 20).then(|| subpop.count() * 2 / 3);
            for mode in [NumericMode::Exact, NumericMode::FastV1] {
                let opts = LatticeOptions {
                    max_atoms_per_attr: 5,
                    cate_opts: CateOptions {
                        sample_cap: cap,
                        numeric_mode: mode,
                        ..CateOptions::default()
                    },
                    ..LatticeOptions::default()
                };
                let miner = TreatmentMiner::new(&table, &dag, Y, &TREATMENTS, opts.clone());
                for workers in [1, 3] {
                    let compared = check_level1(&table, &miner, &subpop, &opts, workers)?;
                    // The full table always has estimable atoms.
                    prop_assert!(s != 0 || compared > 0);
                }
            }
        }
    }
}

/// The walk's result `t` must appear in `all` (the enumeration over the
/// same subpopulation) with the same arm counts and, under `Exact`, the
/// same CATE and p-value bits. Under `FastV1` a downdated fit reorders a
/// subtraction, so those agree within 1e-9 relative.
fn in_enumeration(all: &[TreatmentResult], t: &TreatmentResult, mode: NumericMode) -> bool {
    let agree = |a: f64, b: f64| match mode {
        NumericMode::Exact => a.to_bits() == b.to_bits(),
        NumericMode::FastV1 => a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
    };
    all.iter().any(|b| {
        b.pattern.key() == t.pattern.key()
            && (b.n_treated, b.n_control) == (t.n_treated, t.n_control)
            && agree(b.cate, t.cate)
            && agree(b.p_value, t.p_value)
    })
}

/// (2) Degenerate level-1 inputs: every walk returns, and every result is
/// one the enumeration finds with the same bits.
#[test]
fn degenerate_level1_inputs_match_the_enumeration() {
    let n = 300;
    let mut rng = StdRng::seed_from_u64(91);
    let t_cat: Vec<&str> = (0..n).map(|i| ["a", "b", "c"][i / 100]).collect();
    let t_num: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 1000).collect();
    let t_const = vec![7i64; n];
    let t_single = vec!["only"; n];
    let zn: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let c = if t_cat[i] == "a" { 4.0 } else { 0.0 };
            c + 0.002 * t_num[i] as f64 + 2.0 * zn[i] + rng.gen_range(-0.5..0.5)
        })
        .collect();
    let table = TableBuilder::new()
        .cat("t_cat", &t_cat)
        .unwrap()
        .int("t_num", t_num)
        .unwrap()
        .int("t_const", t_const)
        .unwrap()
        .cat("t_single", &t_single)
        .unwrap()
        .float("z_const", vec![3.5; n])
        .unwrap()
        .cat("z_level", &vec!["k"; n])
        .unwrap()
        .float("zn", zn)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let names = [
        "t_cat", "t_num", "t_const", "t_single", "z_const", "z_level", "zn", "y",
    ];
    let mut edges: Vec<(&str, &str)> = names[..4].iter().map(|&t| (t, "y")).collect();
    for &t in &names[..4] {
        for z in ["z_const", "z_level", "zn"] {
            edges.push((z, t));
        }
    }
    edges.extend([("z_const", "y"), ("z_level", "y"), ("zn", "y")]);
    let dag = Dag::new(&names, &edges).unwrap();
    let outcome = 7;
    let min_arm = CateOptions::default().min_arm;
    let rows_where =
        |keep: &dyn Fn(usize) -> bool| BitSet::from_mask(&(0..n).map(keep).collect::<Vec<_>>());
    let subpops = [
        rows_where(&|_| false),
        rows_where(&|i| i == 150),
        rows_where(&|i| i % 30 == 7 && i / 30 < 2 * min_arm - 1),
        // `t_cat = a` covers every row, `t_cat = b` none.
        rows_where(&|i| t_cat[i] == "a"),
        rows_where(&|_| true),
    ];
    assert_eq!(subpops[2].count(), 2 * min_arm - 1);
    let refs: Vec<&BitSet> = subpops.iter().collect();
    let mut checked = 0;
    for max_level in [1, 3] {
        for mode in [NumericMode::Exact, NumericMode::FastV1] {
            for cap in [None, Some(40)] {
                let opts = LatticeOptions {
                    max_level,
                    cate_opts: CateOptions {
                        sample_cap: cap,
                        numeric_mode: mode,
                        ..CateOptions::default()
                    },
                    ..LatticeOptions::default()
                };
                let miner = TreatmentMiner::new(&table, &dag, outcome, &[0, 1, 2, 3], opts);
                let mined = miner
                    .mine_paired_many_guarded(&refs, 3, true, 1, &RunGuard::unlimited())
                    .expect("an unguarded walk without faults succeeds");
                for (subpop, paired) in subpops.iter().zip(&mined) {
                    let all = miner.all_treatments(subpop, max_level);
                    for t in paired.positive.iter().chain(&paired.negative) {
                        assert!(
                            in_enumeration(&all, t, mode),
                            "{} on {} rows (max_level {max_level}, {mode:?}, cap {cap:?})",
                            t.pattern.display(&table),
                            subpop.count()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the walks found no treatment at all");
}
