//! Integration tests for the session-oriented API: config-builder
//! validation, name/index/SQL query equivalence, prepared-query reuse
//! (zero redundant work, bit-identical results) and the structured JSON
//! report.

use causumx::{ConfigBuilder, Error, NumericMode, RunGuard, Session};
use table::{Table, TableBuilder};

/// Toy SO-shaped table with a country → continent FD and an education
/// effect on salary, plus an age column for WHERE clauses.
fn toy() -> (Table, causal::Dag) {
    let n = 240;
    let countries = ["US", "FR", "IN"];
    let continent = |c: &str| match c {
        "US" => "NA",
        "FR" => "EU",
        _ => "Asia",
    };
    let mut country = Vec::new();
    let mut cont = Vec::new();
    let mut edu = Vec::new();
    let mut age = Vec::new();
    let mut salary = Vec::new();
    for i in 0..n {
        let c = countries[i % 3];
        let e = if i % 2 == 0 { "PhD" } else { "BSc" };
        let a = 22 + ((i * 7) % 40) as i64;
        let base = match c {
            "US" => 120.0,
            "FR" => 90.0,
            _ => 40.0,
        };
        country.push(c.to_string());
        cont.push(continent(c).to_string());
        edu.push(e.to_string());
        age.push(a);
        salary.push(base + if e == "PhD" { 30.0 } else { 0.0 } + (i % 5) as f64);
    }
    let table = TableBuilder::new()
        .cat_owned("country", country)
        .unwrap()
        .cat_owned("continent", cont)
        .unwrap()
        .cat_owned("education", edu)
        .unwrap()
        .int("age", age)
        .unwrap()
        .float("salary", salary)
        .unwrap()
        .build()
        .unwrap();
    let dag = causal::Dag::new(
        &["country", "continent", "education", "age", "salary"],
        &[
            ("country", "salary"),
            ("education", "salary"),
            ("age", "salary"),
        ],
    )
    .unwrap();
    (table, dag)
}

fn toy_session() -> Session {
    let (table, dag) = toy();
    let config = ConfigBuilder::new()
        .k(3)
        .theta(1.0)
        .min_arm(2)
        .threads(1)
        .build()
        .unwrap();
    Session::new(table, dag, config)
}

#[test]
fn config_builder_validation_errors() {
    for (build, want_param) in [
        (ConfigBuilder::new().k(0).build(), "k"),
        (ConfigBuilder::new().theta(1.01).build(), "theta"),
        (ConfigBuilder::new().theta(-0.5).build(), "theta"),
        (
            ConfigBuilder::new().apriori_tau(-1.0).build(),
            "apriori_tau",
        ),
        (ConfigBuilder::new().apriori_tau(7.0).build(), "apriori_tau"),
        (ConfigBuilder::new().max_level(0).build(), "max_level"),
        (ConfigBuilder::new().max_p_value(1.5).build(), "max_p_value"),
    ] {
        match build {
            Err(Error::Config { param, msg }) => {
                assert_eq!(param, want_param);
                assert!(!msg.is_empty());
            }
            other => panic!("expected Config error for {want_param}, got {other:?}"),
        }
    }
    // Valid settings build.
    let cfg = ConfigBuilder::new()
        .k(5)
        .theta(0.75)
        .apriori_tau(0.1)
        .build()
        .unwrap();
    assert_eq!(cfg.k, 5);
}

/// The same query expressed by name, by index, and as SQL must produce
/// identical summaries.
#[test]
fn name_index_sql_equivalence() {
    let session = toy_session();
    let by_name = session
        .query()
        .group_by("country")
        .avg("salary")
        .prepare()
        .unwrap();
    let by_index = session
        .query()
        .group_by_index(0)
        .avg_index(4)
        .prepare()
        .unwrap();
    let by_sql = session
        .sql("SELECT country, AVG(salary) FROM toy GROUP BY country")
        .unwrap();

    let a = by_name.run();
    let b = by_index.run();
    let c = by_sql.run();
    for s in [&a, &b, &c] {
        assert_eq!(s.m, 3);
    }
    assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
    assert_eq!(a.total_weight.to_bits(), c.total_weight.to_bits());
    assert_eq!(a.covered, b.covered);
    assert_eq!(a.covered, c.covered);
    assert_eq!(a.cate_evaluations, b.cate_evaluations);
    assert_eq!(a.cate_evaluations, c.cate_evaluations);
    let keys = |s: &causumx::Summary| {
        let mut v: Vec<String> = s.explanations.iter().map(|e| e.grouping.key()).collect();
        v.sort();
        v
    };
    assert_eq!(keys(&a), keys(&b));
    assert_eq!(keys(&a), keys(&c));
}

/// WHERE clauses agree between the builder fragment and full SQL.
#[test]
fn where_sql_equivalence() {
    let session = toy_session();
    let via_builder = session
        .query()
        .group_by("country")
        .avg("salary")
        .where_sql("age < 40")
        .prepare()
        .unwrap();
    let via_sql = session
        .sql("SELECT country, AVG(salary) FROM toy WHERE age < 40 GROUP BY country")
        .unwrap();
    assert_eq!(
        via_builder.view().counts,
        via_sql.view().counts,
        "identical filtered views"
    );
    let a = via_builder.run();
    let b = via_sql.run();
    assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
}

/// Serving the same prepared query repeatedly does zero redundant
/// per-dataset work and returns bit-identical results — the headline
/// contract of the session redesign.
#[test]
fn prepared_reuse_no_redundant_work() {
    let ds = datagen::so::generate(3_000, 42);
    let config = ConfigBuilder::new().k(3).theta(1.0).build().unwrap();
    let query = ds.query();
    let session = Session::new(ds.table, ds.dag, config);
    let prepared = session.prepare(query).unwrap();

    let after_prepare = session.counters();
    assert_eq!(after_prepare.views_materialized, 1);
    assert_eq!(after_prepare.fd_closures_computed, 1);
    assert_eq!(after_prepare.queries_prepared, 1);
    assert_eq!(after_prepare.backdoor_walks, 0, "no mining yet");
    assert!(after_prepare.atom_blocks_built > 0, "the miner's atoms");

    let first = prepared.run();
    let after_first = session.counters();
    assert!(after_first.backdoor_walks > 0);

    let second = prepared.run();
    let after_second = session.counters();

    // Zero redundant view materializations, FD-closure or backdoor
    // recomputations on the repeated run.
    assert_eq!(after_second.views_materialized, 1);
    assert_eq!(after_second.fd_closures_computed, 1);
    assert_eq!(after_second.backdoor_walks, after_first.backdoor_walks);
    assert_eq!(after_second.runs, 2);

    // Bit-identical results across repeated run()s.
    assert_eq!(first.total_weight.to_bits(), second.total_weight.to_bits());
    assert_eq!(first.covered, second.covered);
    assert_eq!(first.cate_evaluations, second.cate_evaluations);
    assert_eq!(first.explanations.len(), second.explanations.len());
    for (a, b) in first.explanations.iter().zip(&second.explanations) {
        assert_eq!(a.grouping.key(), b.grouping.key());
        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        match (&a.positive, &b.positive) {
            (Some(x), Some(y)) => {
                assert_eq!(x.pattern.key(), y.pattern.key());
                assert_eq!(x.cate.to_bits(), y.cate.to_bits());
                assert_eq!(x.p_value.to_bits(), y.p_value.to_bits());
            }
            (None, None) => {}
            _ => panic!("positive treatment mismatch"),
        }
    }

    // Drill-downs also reuse the prepared state: no new views.
    let label = prepared.view().group_label(session.table(), 0);
    assert!(prepared.explain_group(&label, 2).is_some());
    assert_eq!(session.counters().views_materialized, 1);

    // A *second* query on the same session reuses the FD split and the
    // backdoor memo (same group-by set, same outcome).
    let again = session
        .query()
        .group_by("Country")
        .avg("Salary")
        .prepare()
        .unwrap();
    let c = session.counters();
    assert_eq!(c.fd_closures_computed, 1, "FD split cache hit");
    assert_eq!(
        c.atom_blocks_built, after_prepare.atom_blocks_built,
        "the second query builds no atom block"
    );
    let walks_before = c.backdoor_walks;
    let _ = again.run();
    assert_eq!(
        session.counters().backdoor_walks,
        walks_before,
        "backdoor memo shared across queries"
    );
}

/// Everything deterministic about a summary, the FP fields at full bit
/// precision (`Debug` on `f64` is bijective with the bits for non-NaN
/// values).
fn fingerprint(s: &causumx::Summary) -> (u64, usize, usize, usize, String) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.candidates,
        s.cate_evaluations,
        format!("{:?}", s.explanations),
    )
}

/// The session's memo draws each optimization-(d) sample and mines each
/// Apriori itemset list once: a repeated sampled query draws and mines
/// nothing new, another sample seed or cap draws again, another τ or
/// `max_grouping_len` mines again, and every result equals a fresh
/// session's bit for bit.
#[test]
fn sampled_queries_draw_and_mine_once_per_session() {
    let ds = datagen::so::generate(3_000, 42);
    let sql = "SELECT Country, AVG(Salary) FROM so GROUP BY Country";
    let base = ConfigBuilder::new()
        .k(3)
        .theta(1.0)
        .threads(1)
        .sample_cap(Some(200))
        .build()
        .unwrap();
    let fresh = |config: causumx::CausumxConfig| {
        let session = Session::new(ds.table.clone(), ds.dag.clone(), config);
        fingerprint(&session.sql(sql).unwrap().run())
    };
    let mut session = Session::new(ds.table.clone(), ds.dag.clone(), base.clone());
    let first = fingerprint(&session.sql(sql).unwrap().run());
    assert_eq!(first, fresh(base.clone()));
    let c = session.counters();
    assert!(c.samples_drawn > 0, "the subpopulations exceed the cap");
    assert_eq!(c.itemsets_mined, 1);

    let mut seed = base.clone();
    seed.lattice.cate_opts.seed ^= 1;
    let mut cap = base.clone();
    cap.lattice.cate_opts.sample_cap = Some(150);
    let mut tau = base.clone();
    tau.apriori_tau = 0.05;
    let mut len = base.clone();
    len.max_grouping_len = 2;
    // (change, draws again, mines again)
    let changes = [
        ("same", base.clone(), false, false),
        ("seed", seed, true, false),
        ("cap", cap, true, false),
        ("tau", tau, false, true),
        ("max_grouping_len", len, false, true),
    ];
    for (what, config, draws, mines) in changes {
        let want = fresh(config.clone());
        session.set_config(config);
        let before = session.counters();
        assert_eq!(
            fingerprint(&session.sql(sql).unwrap().run()),
            want,
            "{what}"
        );
        let after = session.counters();
        let drew = after.samples_drawn > before.samples_drawn;
        if draws {
            assert!(drew, "{what} draws its samples");
        }
        if !(draws || mines) {
            assert!(!drew, "{what} draws nothing new");
        }
        assert_eq!(
            after.itemsets_mined,
            before.itemsets_mined + usize::from(mines),
            "{what}"
        );
        // A repeat under the new configuration draws and mines nothing.
        assert_eq!(
            fingerprint(&session.sql(sql).unwrap().run()),
            want,
            "{what}"
        );
        let again = session.counters();
        assert_eq!(
            (again.samples_drawn, again.itemsets_mined),
            (after.samples_drawn, after.itemsets_mined),
            "{what} repeated"
        );
    }
}

/// Atoms belong to the session, not to a GROUP BY set: 50 distinct sets
/// on SO build at most one block per column between them.
#[test]
fn group_by_sets_share_the_atom_memo() {
    let ds = datagen::so::generate(2_000, 42);
    let outcome = ds.outcome;
    let session = Session::new(ds.table, ds.dag, ConfigBuilder::new().build().unwrap());
    let ncols = session.table().ncols();
    let cats: Vec<usize> = (0..ncols)
        .filter(|&c| c != outcome && session.table().column(c).codes().is_some())
        .collect();
    let sets: Vec<Vec<usize>> = cats
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| cats[i + 1..].iter().map(move |&b| vec![a, b]))
        .take(50)
        .collect();
    assert_eq!(sets.len(), 50);
    for set in sets {
        let query = table::query::GroupByAvgQuery::new(set, outcome);
        session.prepare(query).unwrap();
    }
    let counters = session.counters();
    assert_eq!(counters.fd_closures_computed, 50);
    assert!(
        counters.atom_blocks_built <= ncols,
        "{} blocks for {ncols} columns",
        counters.atom_blocks_built
    );
}

/// Extract the number following `"key":` in a JSON string.
fn json_num(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat).unwrap_or_else(|| panic!("missing {key}")) + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

/// The structured report's JSON round-trips the key fields of the
/// summary it was built from.
#[test]
fn report_json_round_trips_key_fields() {
    let session = toy_session();
    let prepared = session
        .query()
        .group_by("country")
        .avg("salary")
        .prepare()
        .unwrap();
    let summary = prepared.run();
    let report = prepared.report(&summary);
    assert_eq!(report.m, summary.m);
    assert_eq!(report.covered, summary.covered);
    assert_eq!(report.explanations.len(), summary.explanations.len());

    let json = report.to_json();
    assert_eq!(json_num(&json, "m") as usize, summary.m);
    assert_eq!(json_num(&json, "covered") as usize, summary.covered);
    assert_eq!(
        json_num(&json, "cate_evaluations") as usize,
        summary.cate_evaluations
    );
    assert!((json_num(&json, "total_explainability") - summary.total_weight).abs() < 1e-5);
    assert!(json.contains("\"outcome\":\"salary\""));
    // Per-explanation fields survive: first explanation's weight and the
    // (escaped) grouping string appear verbatim.
    if let Some(e) = report.explanations.first() {
        assert!(json.contains(&format!("\"grouping\":\"{}\"", e.grouping)));
        assert!((json_num(&json, "weight") - e.weight).abs() < 1e-5);
        if let Some(t) = &e.positive {
            assert!(json.contains(&format!("\"pattern\":\"{}\"", t.pattern)));
        }
    }
    // Balanced braces as a cheap well-formedness check.
    let depth: i64 = json
        .chars()
        .map(|c| match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        })
        .sum();
    assert_eq!(depth, 0);
    // And the text rendering agrees on the headline numbers.
    let text = report.render_text();
    assert!(text.contains(&format!("coverage {}/{}", summary.covered, summary.m)));
}

/// Errors surface with useful structure: SQL position, unknown names,
/// empty views.
#[test]
fn error_surface() {
    let session = toy_session();
    let sql = "SELECT country, AVG(salary) FROM toy GROUP BY wages";
    match session.sql(sql) {
        Err(Error::Sql { pos, msg }) => {
            assert_eq!(pos, sql.find("wages").unwrap());
            assert!(msg.contains("wages"));
        }
        other => panic!("expected Sql error, got {:?}", other.err()),
    }
    assert!(matches!(
        session.query().group_by("nope").avg("salary").prepare(),
        Err(Error::Table(table::TableError::UnknownAttribute(_)))
    ));
    assert!(matches!(
        session
            .query()
            .group_by("country")
            .avg("salary")
            .where_sql("age > 10000")
            .prepare(),
        Err(Error::EmptyView)
    ));
}

/// A complete guarded run's progress total is its work count: the guard's
/// `cate_evaluations` equals the summary's, with and without negative
/// mining (level 1 counts once per direction), at one and four workers,
/// in both numeric modes.
#[test]
fn guard_progress_matches_summary_evaluations() {
    let ds = datagen::so::generate(2_000, 42);
    let query = ds.query();
    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        for mine_negative in [true, false] {
            for threads in [1, 4] {
                let config = ConfigBuilder::new()
                    .k(3)
                    .theta(1.0)
                    .numeric_mode(mode)
                    .mine_negative(mine_negative)
                    .threads(threads)
                    .build()
                    .unwrap();
                let session = Session::new(ds.table.clone(), ds.dag.clone(), config);
                let prepared = session.prepare(query.clone()).unwrap();
                let guard = RunGuard::unlimited();
                let summary = prepared.run_guarded(&guard).unwrap();
                let case = format!("{mode:?}, mine_negative {mine_negative}, {threads} threads");
                assert!(summary.cate_evaluations > 0, "{case}");
                assert_eq!(
                    guard.progress().cate_evaluations,
                    summary.cate_evaluations,
                    "{case}"
                );
            }
        }
    }
}
