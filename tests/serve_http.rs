//! End-to-end tests of `causumx-serve`'s HTTP surface over real TCP:
//! spawn the accept loop on an ephemeral port, speak raw HTTP/1.1 and
//! assert the full contract — 200 report JSON matching a direct session
//! run, structured error envelopes with stable `code`s on the right
//! statuses (400/404/405/429/504), per-request deadlines via
//! `X-Deadline-Ms`, saturation shedding from the bounded admission
//! queue, and `/stats` accounting.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causumx::{error_json, ConfigBuilder, Error, MineError, QueryProgress, Session};
use serve::{Handler, Request, Response, ServeOptions};
use table::{TableBuilder, TableError};

/// Tiny fixed table: two group-by attributes and one outcome — queries
/// complete in microseconds, so tests exercise the transport, not the
/// miner.
fn session() -> Session {
    let table = TableBuilder::new()
        .cat("country", &["US", "US", "US", "FR", "FR", "FR", "IN", "IN"])
        .unwrap()
        .cat(
            "education",
            &["PhD", "BSc", "PhD", "BSc", "PhD", "BSc", "PhD", "BSc"],
        )
        .unwrap()
        .float(
            "salary",
            vec![120.0, 80.0, 125.0, 60.0, 90.0, 61.0, 30.0, 20.0],
        )
        .unwrap()
        .build()
        .unwrap();
    let dag = causal::Dag::new(
        &["country", "education", "salary"],
        &[("country", "salary"), ("education", "salary")],
    )
    .unwrap();
    let config = ConfigBuilder::new()
        .k(2)
        .theta(0.6)
        .min_arm(1)
        .threads(1)
        .build()
        .unwrap();
    Session::new(table, dag, config)
}

fn spawn(opts: ServeOptions) -> (serve::RunningServer, Arc<Handler>) {
    let handler = Arc::new(Handler::new(Arc::new(session()), opts));
    let server = serve::spawn(Arc::clone(&handler), "127.0.0.1:0").expect("bind ephemeral port");
    (server, handler)
}

/// One raw HTTP exchange; returns (status, body).
fn http(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_query(addr: SocketAddr, sql: &str, headers: &[(&str, &str)]) -> (u16, String) {
    let mut raw = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
        sql.len()
    );
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(sql);
    http(addr, raw)
}

const SQL: &str = "SELECT country, AVG(salary) FROM t GROUP BY country";

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

#[test]
fn query_over_tcp_matches_direct_session_run() {
    let (server, handler) = spawn(ServeOptions::default());

    let (status, body) = post_query(server.addr, SQL, &[]);
    assert_eq!(status, 200, "{body}");

    // The served body is the same report a direct in-process run yields.
    let direct = {
        let prepared = handler.session().sql(SQL).unwrap();
        let summary = prepared.run();
        prepared.report(&summary).to_json()
    };
    assert_eq!(strip_timings(&body), strip_timings(&direct));

    let (status, stats) = get(server.addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"queries_ok\":1"), "{stats}");
    assert!(stats.contains("\"prepared_cache\""), "{stats}");
    server.stop();
}

#[test]
fn routing_health_and_error_envelopes() {
    let (server, _handler) = spawn(ServeOptions::default());
    let addr = server.addr;

    assert_eq!(get(addr, "/healthz"), (200, "{\"status\":\"ok\"}".into()));

    let (status, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("\"code\":\"not_found\""), "{body}");

    let (status, body) = http(
        addr,
        "DELETE /query HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n".into(),
    );
    assert_eq!(status, 405);
    assert!(body.contains("\"code\":\"method_not_allowed\""), "{body}");

    // Engine errors arrive as the `error_json` envelope on a 400.
    let (status, body) = post_query(
        addr,
        "SELECT country, AVG(wages) FROM t GROUP BY country",
        &[],
    );
    assert_eq!(status, 400);
    assert!(body.starts_with("{\"error\":{\"code\":\"sql\","), "{body}");
    assert!(!body.contains("\"kind\""), "{body}");

    let (status, body) = http(addr, "NOT-HTTP\r\n\r\n".into());
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    server.stop();
}

#[test]
fn deadline_header_trips_as_504_with_structured_envelope() {
    let (server, _handler) = spawn(ServeOptions {
        allow_chaos: true,
        ..ServeOptions::default()
    });

    // A 60 ms injected stall against a 20 ms deadline: the guard trips
    // mid-mining and the error maps to 504 without killing the server.
    let (status, body) = post_query(
        server.addr,
        SQL,
        &[("X-Chaos", "delay:60"), ("X-Deadline-Ms", "20")],
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");
    assert!(body.contains("\"after_ms\""), "{body}");

    // The server keeps serving afterwards.
    let (status, _) = post_query(server.addr, SQL, &[]);
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn saturation_sheds_load_with_429() {
    // One run slot, one queue slot: the third concurrent query must be
    // rejected immediately with the structured saturation envelope.
    let (server, _handler) = spawn(ServeOptions {
        allow_chaos: true,
        max_inflight: 1,
        max_queued: 1,
        ..ServeOptions::default()
    });
    let addr = server.addr;

    // Occupy the run slot with a long injected stall.
    let slow = std::thread::spawn(move || post_query(addr, SQL, &[("X-Chaos", "delay:600")]));
    std::thread::sleep(Duration::from_millis(150));
    // Occupy the single queue slot.
    let queued = std::thread::spawn(move || post_query(addr, SQL, &[]));
    std::thread::sleep(Duration::from_millis(150));

    // Both stages full: shed.
    let (status, body) = post_query(addr, SQL, &[]);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("\"code\":\"saturated\""), "{body}");
    assert!(body.contains("\"inflight\":1"), "{body}");
    assert!(body.contains("\"queued\":1"), "{body}");

    // The stalled and queued requests both complete fine.
    let (status, _) = slow.join().unwrap();
    assert_eq!(status, 200);
    let (status, _) = queued.join().unwrap();
    assert_eq!(status, 200);

    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"rejected_saturated\":1"), "{stats}");
    server.stop();
}

/// A client that sends half a request head and stalls holds only its own
/// connection thread: a full request on a second connection is answered
/// at once, not after the stalled read's timeout, and the stalled request
/// is answered once its head is complete.
#[test]
fn stalled_client_does_not_delay_other_connections() {
    let (server, _handler) = spawn(ServeOptions::default());
    let addr = server.addr;
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
        SQL.len()
    );
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(head.as_bytes())
        .expect("send half a head");
    // The server has accepted the stalled connection and is blocked
    // reading the rest of its head.
    std::thread::sleep(Duration::from_millis(100));

    let started = std::time::Instant::now();
    let (status, body) = post_query(addr, SQL, &[]);
    assert_eq!(status, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "a full request waited {:?} behind a stalled one",
        started.elapsed()
    );

    // Nothing has been answered on the stalled connection yet.
    stalled
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut byte = [0u8; 1];
    assert!(
        stalled.read(&mut byte).is_err(),
        "the half head got a response"
    );
    // Completing the head gets the stalled request its answer.
    stalled.set_read_timeout(None).unwrap();
    stalled.write_all(format!("\r\n{SQL}").as_bytes()).unwrap();
    let mut response = String::new();
    stalled.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    server.stop();
}

/// A request head past `MAX_HEAD_BYTES` is answered `431` with the
/// structured error envelope, and the server keeps serving.
#[test]
fn oversized_head_gets_431_envelope() {
    let (server, _handler) = spawn(ServeOptions::default());
    let addr = server.addr;
    let pad = "a".repeat(serve::http::MAX_HEAD_BYTES + 1024);
    let (status, body) = http(
        addr,
        format!("GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n\r\n"),
    );
    assert_eq!(status, 431, "{body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    let limit = serve::http::MAX_HEAD_BYTES.to_string();
    assert!(body.contains(&limit), "{body}");
    assert_eq!(get(addr, "/healthz").0, 200);
    server.stop();
}

/// Poll `ready` until it holds; a test that waits longer fails.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let started = Instant::now();
    while !ready() {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every error body the service sends is one envelope: it starts
/// `{"error":{"code":<code>,"message":` and carries no `kind` field.
/// The table covers `error_json` of every `Error` and `MineError` kind,
/// the handler's own 400, 404, 405 and 429 answers, and the transport's
/// 400, 413, 431 and 501 answers over real TCP.
#[test]
fn every_error_body_is_one_envelope() {
    // (what, status or 0 for a bare engine body, code, body)
    let mut rows: Vec<(&str, u16, &str, String)> = Vec::new();

    let progress = QueryProgress {
        levels_completed: 1,
        cate_evaluations: 7,
    };
    let engine = [
        (
            "table error",
            Error::from(TableError::UnknownAttribute("x".into())),
        ),
        (
            "sql error",
            Error::Sql {
                pos: 3,
                msg: "bad \"token\"".into(),
            },
        ),
        (
            "config error",
            Error::Config {
                param: "k",
                msg: "must be positive".into(),
            },
        ),
        ("invalid query", Error::InvalidQuery("no group-by".into())),
        ("empty view", Error::EmptyView),
        (
            "cancelled run",
            Error::Run(MineError::Cancelled { progress }),
        ),
        (
            "deadline trip",
            Error::Run(MineError::DeadlineExceeded {
                after_ms: 20,
                progress,
            }),
        ),
        (
            "memory trip",
            Error::Run(MineError::MemoryBudget {
                budget_mb: 1,
                observed_mb: 4,
                progress,
            }),
        ),
        (
            "worker panic",
            Error::Run(MineError::Worker {
                task: "pattern 0 level 1 chunk 0".into(),
                payload: "boom\n".into(),
            }),
        ),
    ];
    for (what, e) in &engine {
        rows.push((what, 0, e.code(), error_json(e)));
    }

    // The handler's HTTP-level answers, saturation included: one run
    // slot held by an injected stall, one queue slot held by a waiter.
    let handler = Handler::new(
        Arc::new(session()),
        ServeOptions {
            allow_chaos: true,
            max_inflight: 1,
            max_queued: 1,
            ..ServeOptions::default()
        },
    );
    let request = |method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]| Request {
        method: method.into(),
        target: target.into(),
        headers: headers
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect(),
        body: body.to_vec(),
    };
    let query = |headers: &[(&str, &str)]| request("POST", "/query", headers, SQL.as_bytes());
    let mut answer = |what, code, resp: Response| {
        rows.push((
            what,
            resp.status,
            code,
            String::from_utf8(resp.body).unwrap(),
        ));
    };
    answer(
        "non-UTF-8 body",
        "bad_request",
        handler.handle(&request("POST", "/query", &[], &[0xff, 0xfe])),
    );
    answer(
        "empty body",
        "bad_request",
        handler.handle(&request("POST", "/query", &[], b"")),
    );
    answer(
        "bad deadline header",
        "bad_request",
        handler.handle(&query(&[("x-deadline-ms", "0")])),
    );
    answer(
        "bad chaos header",
        "invalid_query",
        handler.handle(&query(&[("x-chaos", "meteor")])),
    );
    answer(
        "unknown route",
        "not_found",
        handler.handle(&request("GET", "/nope", &[], b"")),
    );
    answer(
        "wrong method",
        "method_not_allowed",
        handler.handle(&request("DELETE", "/query", &[], b"")),
    );
    let occupied = |inflight: usize, queued: usize| {
        let (handler, want) = (
            &handler,
            format!("\"inflight\":{inflight},\"queued\":{queued}"),
        );
        move || handler.stats_json().contains(&want)
    };
    std::thread::scope(|scope| {
        let stalled = scope.spawn(|| handler.handle(&query(&[("x-chaos", "delay:2000")])));
        wait_until("the stalled query to take the run slot", occupied(1, 0));
        let waiter = scope.spawn(|| handler.handle(&query(&[])));
        wait_until("a query to wait for the run slot", occupied(1, 1));
        answer("saturated", "saturated", handler.handle(&query(&[])));
        assert_eq!(stalled.join().unwrap().status, 200);
        assert_eq!(waiter.join().unwrap().status, 200);
    });

    // The transport's answers to requests it cannot read.
    let (server, _handler) = spawn(ServeOptions::default());
    let pad = "a".repeat(serve::http::MAX_HEAD_BYTES);
    let over = serve::http::MAX_BODY_BYTES + 1;
    for (what, raw) in [
        ("malformed request", "NOT-HTTP\r\n\r\n".to_string()),
        (
            "oversized head",
            format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
        ),
        (
            "oversized body",
            format!("POST /query HTTP/1.1\r\nContent-Length: {over}\r\n\r\n"),
        ),
        (
            "chunked body",
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_string(),
        ),
    ] {
        let (status, body) = http(server.addr, raw);
        rows.push((what, status, "bad_request", body));
    }
    server.stop();

    let statuses: Vec<u16> = rows.iter().map(|r| r.1).filter(|&s| s != 0).collect();
    assert_eq!(
        statuses,
        [400, 400, 400, 400, 404, 405, 429, 400, 431, 413, 501],
        "{rows:?}"
    );
    for (what, _, code, body) in &rows {
        let head = format!("{{\"error\":{{\"code\":\"{code}\",\"message\":\"");
        assert!(body.starts_with(&head), "{what}: {body}");
        assert!(body.ends_with("}}"), "{what}: {body}");
        assert!(!body.contains("\"kind\""), "{what}: {body}");
    }
}
