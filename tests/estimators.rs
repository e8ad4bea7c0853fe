//! Estimator-backend cross-validation: the regression, IPW and matching
//! backends must agree on synthetic SCMs with known effects, the miner's
//! estimates must recover the analytic effects of the paper's synthetic
//! SCM, and the whole pipeline must run with either backend (§7's
//! propensity-weighting extension).

use causal::estimate::{estimate_cate, estimate_effect, CateOptions, EstimatorBackend};
use causal::ipw::{estimate_att_matching, estimate_cate_ipw};
use causal::NumericMode;
use causumx::{CausumxConfig, Session};
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
/// errors of it, for both backends and both numeric modes. The other
/// `j − 1` treatments are the outcome's only noise, with variance
/// `2(j − 1)`, so one standard error of a difference in arm means is
/// `√(2(j − 1)·(1/n_t + 1/n_c))`.
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
        for backend in [EstimatorBackend::Regression, EstimatorBackend::Ipw] {
            for numeric_mode in [NumericMode::Exact, NumericMode::FastV1] {
                let opts = LatticeOptions {
                    cate_opts: CateOptions {
                        backend,
                        numeric_mode,
                        ..CateOptions::default()
                    },
                    ..LatticeOptions::default()
                };
                let miner = TreatmentMiner::new(&ds.table, &ds.dag, ds.outcome, &t_attrs, opts);
                for (k, &attr) in t_attrs.iter().enumerate() {
                    for v in 1..=5i64 {
                        let case = format!(
                            "seed {seed}, {backend:?}, {numeric_mode:?}, T{} = {v}",
                            k + 1
                        );
                        let r = miner
                            .eval_pattern(&full, &Pattern::single(Pred::eq(attr, v)))
                            .unwrap_or_else(|| panic!("{case}: no estimate"));
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

#[test]
fn dispatcher_selects_backend() {
    let (table, treated) = scm(4_000, 6.0, 2.0, 17);
    let mut opts = CateOptions::default();
    let reg = estimate_effect(&table, None, &treated, 1, &[0], &opts).unwrap();
    opts.backend = EstimatorBackend::Ipw;
    let ipw = estimate_effect(&table, None, &treated, 1, &[0], &opts).unwrap();
    assert!((reg.cate - 6.0).abs() < 0.4);
    assert!((ipw.cate - 6.0).abs() < 0.6);
    assert_ne!(
        reg.cate, ipw.cate,
        "different backends, different estimators"
    );
}

#[test]
fn pipeline_runs_with_ipw_backend() {
    let ds = datagen::adult::generate(3_000, 19);
    let mut cfg = CausumxConfig::default();
    cfg.lattice.cate_opts.backend = EstimatorBackend::Ipw;
    cfg.theta = 0.5;
    let summary = Session::new(ds.table.clone(), ds.dag.clone(), cfg)
        .prepare(ds.query())
        .unwrap()
        .run();
    assert!(
        summary.covered > 0,
        "IPW-backed pipeline must produce output"
    );
    for e in &summary.explanations {
        assert!(e.has_treatment());
    }
}

#[test]
fn ipw_and_regression_pipelines_agree_on_direction() {
    let ds = datagen::so::generate(3_000, 23);
    let run = |backend| {
        let mut cfg = causumx::ConfigBuilder::new()
            .k(2)
            .theta(0.75)
            .build()
            .unwrap();
        cfg.lattice.cate_opts.backend = backend;
        Session::new(ds.table.clone(), ds.dag.clone(), cfg)
            .prepare(ds.query())
            .unwrap()
            .run()
    };
    let reg = run(EstimatorBackend::Regression);
    let ipw = run(EstimatorBackend::Ipw);
    // Both should find positive and negative treatments with sane signs.
    for s in [&reg, &ipw] {
        for e in &s.explanations {
            if let Some(t) = &e.positive {
                assert!(t.cate > 0.0);
            }
            if let Some(t) = &e.negative {
                assert!(t.cate < 0.0);
            }
        }
    }
}
