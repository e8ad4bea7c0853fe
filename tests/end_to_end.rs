//! End-to-end integration tests: the full Algorithm-1 pipeline on every
//! dataset generator, checking the Definition 4.5 contract on the output.

use causumx::{CausumxConfig, ConfigBuilder, SelectionMethod, Session, Summary};
use table::bitset::BitSet;

/// Bind a dataset to a fresh session (cloning so `ds` stays usable).
fn session(ds: &datagen::Dataset, cfg: CausumxConfig) -> Session {
    Session::new(ds.table.clone(), ds.dag.clone(), cfg)
}

fn check_contract(ds: &datagen::Dataset, cfg: &CausumxConfig, summary: &Summary) {
    // Size constraint.
    assert!(
        summary.explanations.len() <= cfg.k,
        "|Φ| = {} > k = {}",
        summary.explanations.len(),
        cfg.k
    );
    // Recompute coverage from scratch and compare.
    let view = ds.query().run(&ds.table).unwrap();
    let mut union = BitSet::new(view.num_groups());
    for e in &summary.explanations {
        let cov = view.coverage(&ds.table, &e.grouping).unwrap();
        assert_eq!(
            cov,
            e.coverage,
            "stored coverage must match recomputed coverage for {}",
            e.grouping.display(&ds.table)
        );
        union.union_with(&cov);
    }
    assert_eq!(union.count(), summary.covered, "covered count mismatch");
    // Feasibility flag consistent with θ.
    let required = (cfg.theta * summary.m as f64).ceil() as usize;
    assert_eq!(
        summary.feasible,
        summary.covered >= required && summary.covered > 0
    );
    // Incomparability: no two selected explanations share a coverage set.
    for i in 0..summary.explanations.len() {
        for j in i + 1..summary.explanations.len() {
            assert_ne!(
                summary.explanations[i].coverage, summary.explanations[j].coverage,
                "incomparability constraint violated"
            );
        }
    }
    // Weights are |CATE⁺| + |CATE⁻| and treatments pass the p-value gate.
    for e in &summary.explanations {
        let mut w = 0.0;
        if let Some(t) = &e.positive {
            assert!(t.cate > 0.0, "positive treatment must have positive CATE");
            assert!(t.p_value <= cfg.lattice.max_p_value * (1.0 + 1e-9));
            w += t.cate.abs();
        }
        if let Some(t) = &e.negative {
            assert!(t.cate < 0.0);
            assert!(t.p_value <= cfg.lattice.max_p_value * (1.0 + 1e-9));
            w += t.cate.abs();
        }
        assert!((e.weight - w).abs() < 1e-9);
        assert!(
            e.has_treatment(),
            "selected explanations must carry a treatment"
        );
    }
    let total: f64 = summary.explanations.iter().map(|e| e.weight).sum();
    assert!((total - summary.total_weight).abs() < 1e-6);
}

#[test]
fn so_pipeline_contract() {
    let ds = datagen::so::generate(4_000, 3);
    let cfg = ConfigBuilder::new().k(3).theta(1.0).build().unwrap();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    assert!(summary.feasible, "SO at θ=1 must be coverable: {summary:?}");
    check_contract(&ds, &cfg, &summary);
}

#[test]
fn adult_pipeline_contract() {
    let ds = datagen::adult::generate(4_000, 5);
    let cfg = CausumxConfig::default();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    assert!(summary.feasible);
    check_contract(&ds, &cfg, &summary);
}

#[test]
fn german_pipeline_contract_no_fds() {
    let ds = datagen::german::generate(1_000, 7);
    let cfg = ConfigBuilder::new().theta(0.4).build().unwrap();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    check_contract(&ds, &cfg, &summary);
    // German grouping patterns are per-group (no FDs): coverage 1 each.
    for e in &summary.explanations {
        assert_eq!(e.coverage.count(), 1);
    }
}

#[test]
fn impus_pipeline_contract() {
    let ds = datagen::impus::generate(6_000, 11);
    let cfg = CausumxConfig::default();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    check_contract(&ds, &cfg, &summary);
}

#[test]
fn accidents_pipeline_contract() {
    let ds = datagen::accidents::generate(6_000, 13);
    let cfg = CausumxConfig::default();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    assert!(summary.feasible);
    check_contract(&ds, &cfg, &summary);
}

#[test]
fn synthetic_recovers_ground_truth_treatment() {
    // In the synthetic schema the best positive atomic treatment within
    // any grouping bucket is T1 = 5 or a conjunction extending it
    // (true CATE +2.5 per Datagen's analytic formula).
    let ds = datagen::synthetic::generate(
        datagen::synthetic::SynthParams {
            n: 2_000,
            n_grouping: 2,
            n_treatment: 2,
            tuples_per_group: 4,
        },
        17,
    );
    let cfg = ConfigBuilder::new().k(4).theta(0.5).build().unwrap();
    let summary = session(&ds, cfg.clone()).prepare(ds.query()).unwrap().run();
    check_contract(&ds, &cfg, &summary);
    let e = &summary.explanations[0];
    let pos = e.positive.as_ref().expect("positive treatment");
    let disp = pos.pattern.display(&ds.table);
    assert!(
        disp.contains("T1 = 5") || disp.contains("T2 = 1"),
        "expected a ground-truth-optimal atom, got {disp}"
    );
    // Estimated CATE near the analytic value for whichever atoms appear.
    assert!(pos.cate > 2.0, "cate = {}", pos.cate);
}

#[test]
fn rendering_nonempty_for_feasible_summary() {
    let ds = datagen::so::generate(3_000, 19);
    let cfg = CausumxConfig::default();
    let s = session(&ds, cfg);
    let prepared = s.prepare(ds.query()).unwrap();
    let summary = prepared.run();
    let text = prepared.report(&summary).render_text();
    assert!(text.contains("effect size"));
    assert!(text.contains("coverage"));
}

#[test]
fn where_clause_respected() {
    // Restrict the SO query to Europe via WHERE; the resulting view only
    // has European countries and explanations only cover those.
    let ds = datagen::so::generate(4_000, 23);
    let cont = ds.table.attr("Continent").unwrap();
    let query = ds
        .query()
        .with_where(table::Pattern::single(table::Pred::eq(cont, "Europe")));
    let view = query.run(&ds.table).unwrap();
    assert!(view.num_groups() < 20);
    let cfg = ConfigBuilder::new().theta(0.5).build().unwrap();
    let summary = session(&ds, cfg).prepare(query).unwrap().run();
    assert!(summary.m == view.num_groups());
    assert!(summary.covered <= summary.m);
}

#[test]
fn positive_only_mode() {
    let ds = datagen::so::generate(3_000, 29);
    let cfg = ConfigBuilder::new().mine_negative(false).build().unwrap();
    let summary = session(&ds, cfg).prepare(ds.query()).unwrap().run();
    for e in &summary.explanations {
        assert!(e.negative.is_none());
        assert!(e.positive.is_some());
    }
}

#[test]
fn selection_methods_agree_on_structure() {
    let ds = datagen::adult::generate(3_000, 31);
    let cfg = CausumxConfig::default();
    let s = session(&ds, cfg);
    let prepared = s.prepare(ds.query()).unwrap();
    let candidates = prepared.mine_candidates();
    let lp = prepared.select(&candidates, SelectionMethod::LpRounding);
    let greedy = prepared.select(&candidates, SelectionMethod::Greedy);
    let exact = prepared.select(&candidates, SelectionMethod::Exhaustive);
    // The exact optimum dominates both heuristics (when feasible).
    if exact.feasible {
        assert!(exact.total_weight >= lp.total_weight - 1e-6);
        assert!(exact.total_weight >= greedy.total_weight - 1e-6);
    }
}

/// Degenerate data end to end. One hand-built table holds a constant
/// numeric confounder (`c0`), a confounder that duplicates another
/// (`zdup` = `z`), a one-row output group (`solo`), and a categorical
/// treatment attribute whose one level covers every row of the view
/// (`u`: the one row where it differs is filtered out by the WHERE
/// clause, so the FD split still counts it as a treatment attribute).
/// `region`, determined by `grp`, gives the grouping patterns. The
/// regression designs are rank-deficient and some arms are empty; every
/// run must still give a defined, finite, deterministic result whose
/// JSON is valid.
#[test]
fn degenerate_inputs_give_defined_results() {
    use causumx::NumericMode;

    let groups = ["g0", "g1", "g2", "g3"];
    let arms = ["a", "b", "c"];
    let (mut grp, mut region, mut t, mut u) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut c0, mut z, mut y) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..240 {
        let g = i % 4;
        let arm = (i / 4) % 3;
        let zi = ((i * 7) % 11) as i64;
        grp.push(groups[g].to_string());
        region.push(if g < 2 { "east" } else { "west" }.to_string());
        t.push(arms[arm].to_string());
        u.push("only".to_string());
        c0.push(5.0);
        z.push(zi);
        y.push(10.0 + zi as f64 + 2.0 * g as f64 + [40.0, 0.0, -20.0][arm] + (i % 5) as f64);
    }
    // The one-row group.
    grp.push("solo".into());
    region.push("west".into());
    t.push("a".into());
    u.push("only".into());
    c0.push(5.0);
    z.push(4);
    y.push(30.0);
    // The row the WHERE clause drops: `u`'s second level.
    grp.push("g0".into());
    region.push("east".into());
    t.push("b".into());
    u.push("other".into());
    c0.push(5.0);
    z.push(1_000);
    y.push(0.0);

    let table = table::TableBuilder::new()
        .cat_owned("grp", grp)
        .unwrap()
        .cat_owned("region", region)
        .unwrap()
        .cat_owned("t", t)
        .unwrap()
        .cat_owned("u", u)
        .unwrap()
        .float("c0", c0)
        .unwrap()
        .int("z", z.clone())
        .unwrap()
        .int("zdup", z)
        .unwrap()
        .float("y", y)
        .unwrap()
        .build()
        .unwrap();
    let dag = causal::Dag::new(
        &["grp", "region", "t", "u", "c0", "z", "zdup", "y"],
        &[
            ("c0", "t"),
            ("c0", "y"),
            ("z", "t"),
            ("z", "y"),
            ("zdup", "t"),
            ("zdup", "y"),
            ("t", "y"),
            ("u", "y"),
            ("grp", "y"),
        ],
    )
    .unwrap();
    let sql = "SELECT grp, AVG(y) FROM d WHERE z < 100 GROUP BY grp";

    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let cfg = ConfigBuilder::new()
                .numeric_mode(mode)
                .threads(threads)
                .build()
                .unwrap();
            let max_p = cfg.lattice.max_p_value;
            let session = Session::new(table.clone(), dag.clone(), cfg);
            let prepared = session.sql(sql).unwrap();
            let summary = prepared
                .try_run()
                .unwrap_or_else(|e| panic!("{mode:?} threads={threads}: {e}"));
            assert_eq!(summary.m, 5, "four groups plus the one-row group");
            assert!(summary.covered <= summary.m);
            // `t`'s backdoor set {c0, z, zdup} is rank-deficient, and its
            // atoms carry the largest effects, so they are what is returned.
            assert!(!summary.explanations.is_empty(), "{mode:?}: nothing mined");
            for e in &summary.explanations {
                for tr in [&e.positive, &e.negative].into_iter().flatten() {
                    assert!(tr.cate.is_finite(), "{mode:?}: CATE {}", tr.cate);
                    assert!(
                        tr.p_value <= max_p,
                        "{mode:?}: p = {} above {max_p}",
                        tr.p_value
                    );
                }
            }
            let json = prepared.report(&summary).to_json();
            // Numbers render through `{:.6}`/`{:e}`, which print a
            // non-finite value as `NaN`/`inf` — not JSON.
            for token in ["NaN", "inf"] {
                for (at, _) in json.match_indices(token) {
                    let before = json[..at].trim_end_matches('-').chars().last();
                    assert!(
                        !matches!(before, Some(':' | ',' | '[')),
                        "{mode:?}: non-finite number in {json}"
                    );
                }
            }
            runs.push((
                summary.total_weight.to_bits(),
                format!("{:?}", summary.explanations),
            ));
        }
        assert_eq!(runs[0], runs[1], "{mode:?}: threads 1 vs 4 diverged");
    }
}
