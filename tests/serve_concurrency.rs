//! Concurrency contract of the service layer: one shared [`Session`]
//! behind an `Arc` serves N threads × M queries through the
//! prepared-statement cache, and one shared `serve::Handler` serves a
//! concurrent mixed load; every response is bit-identical to a clean
//! serial session answering the same statements. Also pins the
//! `Send + Sync` bounds the whole design rests on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use causumx::{CausumxConfig, ConfigBuilder, Session, Summary};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn session_types_are_send_sync() {
    assert_send_sync::<Session>();
    assert_send_sync::<causumx::PreparedQuery<'static>>();
    assert_send_sync::<causumx::PreparedCacheStats>();
    assert_send_sync::<serve::Handler>();
    assert_send_sync::<serve::AdmissionQueue>();
}

fn config() -> CausumxConfig {
    // Light per-query mining (single-literal lattice) keeps the hammer
    // fast in debug builds; the bit-identity contract is independent of
    // these knobs.
    ConfigBuilder::new()
        .threads(1)
        .max_level(1)
        .prepared_statements(8)
        .build()
        .unwrap()
}

const STATEMENTS: [&str; 3] = [
    "SELECT Country, AVG(Salary) FROM so GROUP BY Country",
    "SELECT Continent, AVG(Salary) FROM so GROUP BY Continent",
    "SELECT Country, AVG(Salary) FROM so WHERE Age < 40 GROUP BY Country",
];

fn fingerprint(s: &Summary) -> (u64, usize, usize, usize, String) {
    (
        s.total_weight.to_bits(),
        s.covered,
        s.candidates,
        s.cate_evaluations,
        format!("{:?}", s.explanations),
    )
}

#[test]
fn shared_session_hammer_is_bit_identical_to_serial() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 9;

    let ds = datagen::so::generate(1_500, 11);

    // Serial reference: a fresh session, every statement once, no cache.
    let reference = Session::new(ds.table.clone(), ds.dag.clone(), config());
    let expected: Vec<_> = STATEMENTS
        .iter()
        .map(|sql| fingerprint(&reference.sql(sql).unwrap().run()))
        .collect();

    // Hammer: THREADS threads, each running PER_THREAD queries round-robin
    // over the statement pool, all through one shared session's cache.
    let shared = Arc::new(Session::new(ds.table, ds.dag, config()));
    let results: Vec<(usize, Vec<(usize, (u64, usize, usize, usize, String))>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for q in 0..PER_THREAD {
                            let stmt = (t + q) % STATEMENTS.len();
                            let prepared = shared.sql_cached(STATEMENTS[stmt]).unwrap();
                            out.push((stmt, fingerprint(&prepared.run())));
                        }
                        (t, out)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    for (t, observations) in &results {
        for (stmt, got) in observations {
            assert_eq!(
                got, &expected[*stmt],
                "thread {t} statement {stmt}: concurrent result diverged from serial"
            );
        }
    }

    // Accounting: every query either hit or missed; views were built only
    // on misses; at most one racing miss-group per statement escaped the
    // cache, and the steady state holds all three entries.
    let stats = shared.prepared_cache_stats();
    let total = THREADS * PER_THREAD;
    assert_eq!(stats.hits + stats.misses, total);
    assert!(
        stats.misses >= STATEMENTS.len(),
        "each distinct statement must miss at least once"
    );
    assert!(
        stats.misses <= STATEMENTS.len() * THREADS,
        "misses are bounded by racing first-preparations: {}",
        stats.misses
    );
    assert_eq!(stats.len, STATEMENTS.len());
    assert_eq!(stats.evictions, 0);
    let counters = shared.counters();
    assert_eq!(counters.views_materialized, stats.misses);
    assert_eq!(counters.runs, total);
}

/// Wall-clock stage timings are the one nondeterministic report field.
fn strip_timings(body: &str) -> String {
    let Some(start) = body.find("\"timings\":{") else {
        return body.into();
    };
    let Some(end_rel) = body[start..].find('}') else {
        return body.into();
    };
    let mut end = start + end_rel + 1;
    if body[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &body[..start], &body[end..])
}

fn post(sql: &str) -> serve::Request {
    serve::Request {
        method: "POST".into(),
        target: "/query".into(),
        headers: Vec::new(),
        body: sql.as_bytes().to_vec(),
    }
}

/// The service layer under concurrent mixed load: one [`serve::Handler`]
/// (prepared-statement cache, admission, guards, chaos) driven by four
/// client threads through a seeded, shuffled script of warm repeats,
/// cold statements whose reports all differ, and one `x-chaos: panic`
/// request for the warm statement, served from the same cached core.
/// Every 200 body, `timings` stripped, must equal a fresh serial
/// session's report; the poisoned request must answer a 500
/// `worker_panic` envelope and the handler must keep serving after it.
#[test]
fn handler_mixed_load_is_bit_identical_to_serial() {
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    const CLIENTS: usize = 4;
    const WARM: usize = 16;
    const WARM_SQL: &str = "SELECT Country, AVG(Salary) FROM so GROUP BY Country";
    const COLD_SQLS: [&str; 4] = [
        "SELECT Continent, AVG(Salary) FROM so GROUP BY Continent",
        "SELECT Country, AVG(Salary) FROM so WHERE Age < 40 GROUP BY Country",
        "SELECT Country, AVG(Salary) FROM so WHERE Age >= 30 GROUP BY Country",
        "SELECT Continent, AVG(Salary) FROM so WHERE Age < 45 GROUP BY Continent",
    ];

    let ds = datagen::so::generate(1_500, 42);
    // The service-shaped config: single-literal treatments and groupings
    // under a CATE sample cap keep each query light in debug builds.
    let config = ConfigBuilder::new()
        .threads(1)
        .max_level(1)
        .max_grouping_len(1)
        .sample_cap(Some(400))
        .build()
        .unwrap();

    // Reference bodies from a pristine session, fully serial; index 0 is
    // the warm statement, 1.. the cold ones.
    let reference = Session::new(ds.table.clone(), ds.dag.clone(), config.clone());
    let expected: Vec<String> = std::iter::once(WARM_SQL)
        .chain(COLD_SQLS)
        .map(|sql| {
            let prepared = reference.sql(sql).unwrap();
            strip_timings(&prepared.report(&prepared.run()).to_json())
        })
        .collect();
    for (i, a) in expected.iter().enumerate() {
        for b in &expected[i + 1..] {
            assert_ne!(a, b, "every statement must yield its own report");
        }
    }

    let handler = serve::Handler::new(
        Arc::new(Session::new(ds.table, ds.dag, config)),
        serve::ServeOptions {
            default_deadline: None,
            memory_budget_mb: None,
            max_inflight: CLIENTS,
            max_queued: WARM + COLD_SQLS.len() + 1,
            allow_chaos: true,
        },
    );
    // The warm statement's one cache miss happens here, so every warm
    // repeat below is a hit.
    assert_eq!(handler.handle(&post(WARM_SQL)).status, 200);

    // Script: `Some(i)` expects `expected[i]`, `None` is the poisoned
    // request.
    let mut script: Vec<(Option<usize>, serve::Request)> = Vec::new();
    script.extend((0..WARM).map(|_| (Some(0), post(WARM_SQL))));
    script.extend((1..).zip(COLD_SQLS).map(|(i, sql)| (Some(i), post(sql))));
    let mut poisoned = post(WARM_SQL);
    poisoned.headers.push(("x-chaos".into(), "panic".into()));
    script.push((None, poisoned));
    script.shuffle(&mut StdRng::seed_from_u64(42));

    let cursor = AtomicUsize::new(0);
    let observed: Vec<(Option<usize>, u16, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((want, request)) =
                        script.get(cursor.fetch_add(1, Ordering::Relaxed))
                    {
                        let response = handler.handle(request);
                        let body = String::from_utf8(response.body).unwrap();
                        out.push((*want, response.status, body));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });

    assert_eq!(observed.len(), script.len());
    for (want, status, body) in &observed {
        match want {
            Some(i) => {
                assert_eq!(*status, 200, "statement {i}: {body}");
                assert_eq!(
                    strip_timings(body),
                    expected[*i],
                    "statement {i}: served report diverged from the serial reference"
                );
            }
            None => {
                assert_eq!(*status, 500, "poisoned request: {body}");
                assert!(body.contains("\"code\":\"worker_panic\""), "{body}");
            }
        }
    }

    // The shared session survived the panic.
    let after = handler.handle(&post(WARM_SQL));
    assert_eq!(after.status, 200);
    assert_eq!(
        strip_timings(&String::from_utf8(after.body).unwrap()),
        expected[0]
    );
    // Every warm repeat, the poisoned request and the request after it
    // hit the warm core: the fault lived on the poisoned request's guard,
    // so the bit-identity asserts above prove the shared core stayed
    // clean.
    let cache = handler.session().prepared_cache_stats();
    assert_eq!(cache.hits, WARM + 2);
}
