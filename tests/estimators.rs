//! Estimator cross-validation: the engine's regression estimator must
//! agree with the independent IPW and matching estimators (§7's
//! propensity-weighting alternatives) on synthetic SCMs with known
//! effects, the miner's estimates must recover the analytic effects of
//! the paper's synthetic SCM, with and without the §5.2 (d) sample cap,
//! and its p-values must be calibrated on treatments with no effect.

use causal::estimate::{estimate_cate, CateOptions};
use causal::ipw::{estimate_att_matching, estimate_cate_ipw};
use causal::NumericMode;
use datagen::synthetic::{true_atomic_cate, SynthParams};
use mining::treatment::{LatticeOptions, TreatmentMiner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use table::bitset::BitSet;
use table::pattern::{Pattern, Pred};
use table::{Table, TableBuilder};

/// Confounded SCM with tunable true effect and confounder strength.
fn scm(n: usize, effect: f64, conf_strength: f64, seed: u64) -> (Table, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut z = Vec::with_capacity(n);
    let mut t = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let zi: i64 = rng.gen_range(0..4);
        let ti = rng.gen_bool((0.15 + 0.2 * zi as f64).min(0.9));
        let noise: f64 = rng.gen_range(-1.0..1.0);
        z.push(zi);
        t.push(ti);
        y.push(effect * ti as i64 as f64 + conf_strength * zi as f64 + noise);
    }
    let table = TableBuilder::new()
        .int("z", z)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    (table, t)
}

#[test]
fn three_backends_agree_on_known_effect() {
    for (effect, conf) in [(5.0, 3.0), (-4.0, 2.0), (0.0, 4.0)] {
        let (table, treated) = scm(8_000, effect, conf, 11);
        let opts = CateOptions::default();
        let reg = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        let ipw = estimate_cate_ipw(&table, None, &treated, 1, &[0], &opts).unwrap();
        let mat = estimate_att_matching(
            &table,
            None,
            &treated,
            1,
            &[0],
            &CateOptions {
                sample_cap: Some(2_000),
                ..opts.clone()
            },
        )
        .unwrap();
        for (name, est) in [("reg", reg.cate), ("ipw", ipw.cate), ("match", mat.cate)] {
            assert!(
                (est - effect).abs() < 0.6,
                "{name} estimate {est} far from truth {effect} (conf {conf})"
            );
        }
    }
}

/// Ground truth from the paper's synthetic SCM (the Fig. 10 study):
/// `O = T₁ − T₂ + T₃ − T₄` over i.i.d. uniform treatments on {1..5}, so
/// every atomic treatment `T_k = v` has the analytic CATE
/// [`true_atomic_cate`]. The miner's estimate of each one on the full
/// table ([`TreatmentMiner::eval_pattern`]) lies within five standard
/// errors of it, in both numeric modes, on all 2,000 rows and under the
/// §5.2 (d) sample cap of 1,000 rows, whose arms must sum to the cap. The
/// other `j − 1` treatments are the outcome's only noise, with variance
/// `2(j − 1)`, so one standard error of a difference in arm means is
/// `√(2(j − 1)·(1/n_t + 1/n_c))`, over the arms the estimate used.
#[test]
fn miner_recovers_known_atomic_effects() {
    let j = 4;
    let mut estimates = 0;
    for seed in [1u64, 7, 42, 99, 1234] {
        let params = SynthParams {
            n: 2_000,
            n_grouping: 3,
            n_treatment: j,
            tuples_per_group: 4,
        };
        let ds = datagen::synthetic::generate(params, seed);
        let t_attrs: Vec<usize> = (1..=j)
            .map(|k| ds.table.attr(&format!("T{k}")).unwrap())
            .collect();
        let full = BitSet::full(ds.table.nrows());
        for sample_cap in [None, Some(1_000)] {
            for numeric_mode in [NumericMode::Exact, NumericMode::FastV1] {
                let opts = LatticeOptions {
                    cate_opts: CateOptions {
                        sample_cap,
                        numeric_mode,
                        ..CateOptions::default()
                    },
                    ..LatticeOptions::default()
                };
                let miner = TreatmentMiner::new(&ds.table, &ds.dag, ds.outcome, &t_attrs, opts);
                for (k, &attr) in t_attrs.iter().enumerate() {
                    for v in 1..=5i64 {
                        let case = format!(
                            "seed {seed}, cap {sample_cap:?}, {numeric_mode:?}, T{} = {v}",
                            k + 1
                        );
                        let r = miner
                            .eval_pattern(&full, &Pattern::single(Pred::eq(attr, v)))
                            .unwrap_or_else(|| panic!("{case}: no estimate"));
                        assert_eq!(
                            r.n_treated + r.n_control,
                            sample_cap.unwrap_or(params.n),
                            "{case}: arms"
                        );
                        let (n_t, n_c) = (r.n_treated as f64, r.n_control as f64);
                        let se = (2.0 * (j - 1) as f64 * (1.0 / n_t + 1.0 / n_c)).sqrt();
                        let truth = true_atomic_cate(k, v);
                        assert!(
                            (r.cate - truth).abs() <= 5.0 * se,
                            "{case}: estimate {} vs truth {truth} (se {se:.3})",
                            r.cate
                        );
                        estimates += 1;
                    }
                }
            }
        }
    }
    assert_eq!(estimates, 5 * 2 * 2 * 4 * 5);
}

#[test]
fn null_effect_not_significant() {
    let (table, treated) = scm(5_000, 0.0, 3.0, 13);
    let opts = CateOptions::default();
    let reg = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
    assert!(
        reg.p_value > 0.01,
        "true-null effect flagged significant: {reg:?}"
    );
    let ipw = estimate_cate_ipw(&table, None, &treated, 1, &[0], &opts).unwrap();
    assert!(ipw.cate.abs() < 0.3);
}

/// Null calibration of the engine's only inference path (the residual
/// pass, `s²`, the degrees of freedom and the Student-t tail). The SO
/// generator draws `Hobby`, `Exercise` and `Dependents` independently of
/// every other attribute, and the DAG gives them no edge, so each of
/// these pre-specified atoms has no effect on `Salary` and its p-value is
/// uniform. Over data seeds 0..200 at 2,000 rows, the count of the 600
/// p-values at or below 0.05 must lie in [14, 49], the two-sided 99.9 %
/// interval of Bin(600, 0.05), fixed before the run.
#[test]
fn null_p_values_are_calibrated() {
    let mut p_values = Vec::new();
    for seed in 0..200u64 {
        let ds = datagen::so::generate(2_000, seed);
        let atoms = [
            ("Hobby", "yes"),
            ("Exercise", "daily"),
            ("Dependents", "yes"),
        ]
        .map(|(name, value)| (ds.table.attr(name).unwrap(), value));
        let attrs = atoms.map(|(attr, _)| attr);
        let miner = TreatmentMiner::new(
            &ds.table,
            &ds.dag,
            ds.outcome,
            &attrs,
            LatticeOptions::default(),
        );
        let full = BitSet::full(ds.table.nrows());
        for (attr, value) in atoms {
            let r = miner
                .eval_pattern(&full, &Pattern::single(Pred::eq(attr, value)))
                .unwrap_or_else(|| panic!("seed {seed}, attr {attr}: no estimate"));
            p_values.push(r.p_value);
        }
    }
    assert_eq!(p_values.len(), 600);
    let rejected = p_values.iter().filter(|&&p| p <= 0.05).count();
    assert!(
        (14..=49).contains(&rejected),
        "{rejected} of 600 null p-values at or below 0.05"
    );
}
