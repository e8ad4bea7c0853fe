//! Integration tests for the session's bounded prepared-statement cache:
//! hit/miss/eviction accounting, key normalization (SQL spelling and
//! builder-built queries share entries), LRU eviction order, bit-identity
//! of cache-hit reports, `set_config` keeping the cache (trimmed to the
//! new capacity) and the `capacity = 0` kill switch — and for the
//! session's atom memo underneath it: a miss builds no atom block an
//! earlier prepare built, under concurrent misses too, and other atom
//! options get blocks of their own.

use std::sync::Barrier;

use causumx::{ConfigBuilder, Session, Summary};
use table::{Table, TableBuilder};

/// Toy SO-shaped table: country → salary with an education effect and an
/// age column for WHERE clauses.
fn toy() -> (Table, causal::Dag) {
    let n = 240;
    let countries = ["US", "FR", "IN"];
    let mut country = Vec::new();
    let mut edu = Vec::new();
    let mut age = Vec::new();
    let mut salary = Vec::new();
    for i in 0..n {
        let c = countries[i % 3];
        let e = if i % 2 == 0 { "PhD" } else { "BSc" };
        let base = match c {
            "US" => 120.0,
            "FR" => 90.0,
            _ => 40.0,
        };
        country.push(c.to_string());
        edu.push(e.to_string());
        age.push(22 + ((i * 7) % 40) as i64);
        salary.push(base + if e == "PhD" { 30.0 } else { 0.0 } + (i % 5) as f64);
    }
    let table = TableBuilder::new()
        .cat_owned("country", country)
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
        &["country", "education", "age", "salary"],
        &[
            ("country", "salary"),
            ("education", "salary"),
            ("age", "salary"),
        ],
    )
    .unwrap();
    (table, dag)
}

fn session_with_capacity(capacity: usize) -> Session {
    let (table, dag) = toy();
    let config = ConfigBuilder::new()
        .k(2)
        .theta(0.6)
        .min_arm(2)
        .threads(1)
        .prepared_statements(capacity)
        .build()
        .unwrap();
    Session::new(table, dag, config)
}

/// Everything deterministic about a summary, with the FP fields captured
/// at full bit precision (Debug on `f64` prints the shortest roundtrip
/// form, which is bijective with the bit pattern for non-NaN values).
fn fingerprint(s: &Summary) -> (u64, usize, usize, usize, String) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.candidates,
        s.cate_evaluations,
        format!("{:?}", s.explanations),
    )
}

const SQL: &str = "SELECT country, AVG(salary) FROM t GROUP BY country";

#[test]
fn hits_are_counted_and_bit_identical_to_fresh_prepares() {
    let session = session_with_capacity(8);

    let fresh = session.prepare(table::sql::parse_query(session.table(), SQL).unwrap());
    let expected = fingerprint(&fresh.unwrap().run());
    // Plain `prepare` never touches the cache.
    assert_eq!(session.prepared_cache_stats().misses, 0);

    let miss = session.sql_cached(SQL).unwrap().run();
    let hit = session.sql_cached(SQL).unwrap().run();
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (1, 1, 1));
    assert_eq!(stats.evictions, 0);
    assert_eq!(fingerprint(&miss), expected, "cache miss diverged");
    assert_eq!(fingerprint(&hit), expected, "cache hit diverged");

    // The session-level counters mirror the cache stats.
    let counters = session.counters();
    assert_eq!(counters.prepared_cache_hits, 1);
    assert_eq!(counters.prepared_cache_misses, 1);
    // The hit skipped view materialization: only the un-cached fresh
    // prepare and the one miss built views.
    assert_eq!(counters.views_materialized, 2);
}

#[test]
fn statement_key_normalizes_sql_spelling_and_builder_queries() {
    let session = session_with_capacity(8);
    session.sql_cached(SQL).unwrap();

    // Different whitespace and keyword case, same normalized statement.
    let respelled = "  select   country,  avg(salary)   from somewhere  group by   country  ";
    session.sql_cached(respelled).unwrap();

    // The same query built by name through the builder.
    session
        .query()
        .group_by("country")
        .avg("salary")
        .prepare_cached()
        .unwrap();

    let stats = session.prepared_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.len),
        (1, 2, 1),
        "all three spellings must share one cache entry"
    );

    // A WHERE clause is part of the key: same projection, new entry.
    let filtered = "SELECT country, AVG(salary) FROM t WHERE age < 40 GROUP BY country";
    session.sql_cached(filtered).unwrap();
    session.sql_cached(filtered).unwrap();
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (2, 3, 2));
}

#[test]
fn lru_evicts_the_least_recently_used_statement() {
    let session = session_with_capacity(2);
    let a = "SELECT country, AVG(salary) FROM t GROUP BY country";
    let b = "SELECT education, AVG(salary) FROM t GROUP BY education";
    let c = "SELECT country, AVG(salary) FROM t WHERE age < 50 GROUP BY country";

    session.sql_cached(a).unwrap(); // miss: {a}
    session.sql_cached(b).unwrap(); // miss: {a, b}
    session.sql_cached(a).unwrap(); // hit, a is now most recent
    session.sql_cached(c).unwrap(); // miss: evicts b (LRU), {a, c}

    let stats = session.prepared_cache_stats();
    assert_eq!((stats.misses, stats.hits), (3, 1));
    assert_eq!((stats.len, stats.capacity, stats.evictions), (2, 2, 1));

    // a survived the eviction (it was touched after b)…
    session.sql_cached(a).unwrap();
    assert_eq!(session.prepared_cache_stats().hits, 2);
    // …and b was the victim: asking for it again misses.
    session.sql_cached(b).unwrap();
    let stats = session.prepared_cache_stats();
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.len, 2);
}

/// Cached cores (view, group bitsets, FD split) do not depend on the
/// configuration, so `set_config` keeps them: the next prepare of a
/// cached statement is a hit that runs under the new configuration. A
/// lower capacity trims the cache by the LRU rule.
#[test]
fn set_config_keeps_the_cache_and_trims_to_capacity() {
    let mut session = session_with_capacity(8);
    let filtered = "SELECT country, AVG(salary) FROM t WHERE age < 40 GROUP BY country";
    let old_run = fingerprint(&session.sql_cached(SQL).unwrap().run());
    session.sql_cached(filtered).unwrap();
    session.sql_cached(SQL).unwrap(); // hit: `SQL` is now the most recent

    let mut config = session.config().clone();
    config.k = 1;
    session.set_config(config.clone());
    let views = session.counters().views_materialized;
    let hit = fingerprint(&session.sql_cached(SQL).unwrap().run());
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (2, 2, 2));
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        session.counters().views_materialized,
        views,
        "a hit after set_config materialized a view"
    );
    let (table, dag) = toy();
    let fresh = Session::new(table, dag, config.clone());
    assert_eq!(hit, fingerprint(&fresh.sql(SQL).unwrap().run()));
    assert_ne!(hit, old_run, "k = 1 must change the summary");

    // Capacity 1 keeps the most recently used statement only.
    config.prepared_statements = 1;
    session.set_config(config.clone());
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.len, stats.capacity, stats.evictions), (1, 1, 1));
    session.sql_cached(SQL).unwrap();
    assert_eq!(session.prepared_cache_stats().hits, 3);

    // Capacity 0 empties it.
    config.prepared_statements = 0;
    session.set_config(config);
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.len, stats.evictions), (0, 2));
}

#[test]
fn capacity_zero_disables_caching() {
    let session = session_with_capacity(0);
    let first = session.sql_cached(SQL).unwrap().run();
    let second = session.sql_cached(SQL).unwrap().run();
    let stats = session.prepared_cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (2, 0, 0));
    assert_eq!(stats.capacity, 0);
    assert_eq!(fingerprint(&first), fingerprint(&second));
}

/// `SQL` with a WHERE bound on age: a new statement per bound, with the
/// same treatment attributes.
fn bounded(bound: i64) -> String {
    format!("SELECT country, AVG(salary) FROM t WHERE age < {bound} GROUP BY country")
}

#[test]
fn where_variants_build_each_atom_block_once() {
    let session = session_with_capacity(8);
    let first = session.sql(&bounded(70)).unwrap();
    let built = session.counters().atom_blocks_built;
    assert_eq!(built, first.attr_split().treatment.len());
    for bound in [40, 50] {
        session.sql(&bounded(bound)).unwrap();
    }
    for bound in [30, 35, 45, 55, 60] {
        session.sql_cached(&bounded(bound)).unwrap();
    }
    let counters = session.counters();
    assert_eq!(counters.prepared_cache_misses, 5);
    assert_eq!(
        counters.atom_blocks_built, built,
        "statements differing only in WHERE rebuilt atoms"
    );

    // A miss assembled from the memo reports what a fresh session does.
    let fresh = session_with_capacity(8);
    let want = fingerprint(&fresh.sql(&bounded(65)).unwrap().run());
    assert_eq!(
        fingerprint(&session.sql_cached(&bounded(65)).unwrap().run()),
        want
    );
    assert_eq!(session.counters().atom_blocks_built, built);
}

/// A cache hit after `set_config` assembles its miner under the new atom
/// options, which get atom blocks of their own.
#[test]
fn set_config_with_other_atom_options_builds_its_own_blocks() {
    let mut session = session_with_capacity(8);
    let default_run = fingerprint(&session.sql_cached(SQL).unwrap().run());
    let built = session.counters().atom_blocks_built;

    let default_config = session.config().clone();
    let mut config = default_config.clone();
    config.lattice.numeric_bins = 8;
    session.set_config(config.clone());
    let got = fingerprint(&session.sql_cached(SQL).unwrap().run());
    assert_eq!(session.prepared_cache_stats().hits, 1);
    assert_eq!(
        session.counters().atom_blocks_built,
        2 * built,
        "numeric_bins 8 must get blocks of its own, not the session's"
    );
    let (table, dag) = toy();
    let fresh = Session::new(table, dag, config);
    assert_eq!(got, fingerprint(&fresh.sql(SQL).unwrap().run()));
    assert_ne!(got, default_run, "eight bins cut age into other atoms");

    // The old options still get their own blocks back.
    session.set_config(default_config);
    assert_eq!(
        fingerprint(&session.sql_cached(SQL).unwrap().run()),
        default_run
    );
    assert_eq!(session.counters().atom_blocks_built, 2 * built);
}

#[test]
fn concurrent_misses_build_each_atom_block_once() {
    let reference = session_with_capacity(16);
    reference.sql(SQL).unwrap();
    let want = reference.counters().atom_blocks_built;
    for round in 0..20 {
        let session = session_with_capacity(16);
        let barrier = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (session, barrier) = (&session, &barrier);
                s.spawn(move || {
                    let sql = bounded(70 + t);
                    barrier.wait();
                    session.sql_cached(&sql).unwrap();
                });
            }
        });
        assert_eq!(session.prepared_cache_stats().misses, 8);
        assert_eq!(session.counters().atom_blocks_built, want, "round {round}");
    }
}
