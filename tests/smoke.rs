//! Workspace-surface smoke test: the public API contract of the
//! quick-start in `crates/core/src/lib.rs`, pinned independently of the
//! doctest so a docs edit can never silently drop the guarantee.

use causumx::{ConfigBuilder, Session};
use table::{GroupByAvgQuery, TableBuilder};

/// The doctest's toy table: country → continent is an FD; education
/// drives salary.
fn toy() -> (table::Table, causal::Dag, GroupByAvgQuery) {
    let table = TableBuilder::new()
        .cat(
            "country",
            &[
                "US", "US", "US", "US", "FR", "FR", "FR", "FR", "IN", "IN", "IN", "IN",
            ],
        )
        .unwrap()
        .cat(
            "continent",
            &[
                "NA", "NA", "NA", "NA", "EU", "EU", "EU", "EU", "Asia", "Asia", "Asia", "Asia",
            ],
        )
        .unwrap()
        .cat(
            "education",
            &[
                "PhD", "BSc", "PhD", "BSc", "PhD", "BSc", "PhD", "BSc", "PhD", "BSc", "PhD", "BSc",
            ],
        )
        .unwrap()
        .float(
            "salary",
            vec![
                120.0, 80.0, 125.0, 82.0, 90.0, 60.0, 95.0, 61.0, 40.0, 20.0, 42.0, 21.0,
            ],
        )
        .unwrap()
        .build()
        .unwrap();
    let dag = causal::Dag::new(
        &["country", "continent", "education", "salary"],
        &[("country", "salary"), ("education", "salary")],
    )
    .unwrap();
    (table, dag, GroupByAvgQuery::new(vec![0], 3))
}

#[test]
fn quickstart_contract_covered_groups() {
    let (table, dag, query) = toy();
    let config = ConfigBuilder::new()
        .k(2)
        .theta(1.0)
        .min_arm(2) // tiny toy data
        .build()
        .unwrap();
    let session = Session::new(table, dag, config.clone());
    let summary = session.prepare(query).unwrap().run();

    // The headline contract from the crate-level doctest.
    assert!(summary.covered > 0, "toy run must cover at least one group");

    // Definition 4.5 shape: at most k explanations, coverage accounting
    // consistent, and the θ = 1 constraint reported faithfully.
    assert!(summary.explanations.len() <= config.k);
    assert_eq!(summary.m, 3, "three countries → three output groups");
    assert!(summary.covered <= summary.m);
    assert_eq!(summary.feasible, summary.covered >= summary.m);
    assert!(summary.total_weight >= 0.0);
    assert!(
        summary.explanations.iter().all(|e| e.has_treatment()),
        "selected explanations must carry a treatment pattern"
    );
}

#[test]
fn quickstart_is_deterministic() {
    let (table, dag, query) = toy();
    let config = ConfigBuilder::new()
        .k(2)
        .theta(1.0)
        .min_arm(2)
        .build()
        .unwrap();
    let session = Session::new(table, dag, config);
    let prepared = session.prepare(query).unwrap();
    let a = prepared.run();
    let b = prepared.run();
    assert_eq!(a.covered, b.covered);
    assert_eq!(a.total_weight, b.total_weight);
    assert_eq!(a.explanations.len(), b.explanations.len());
}
