//! Routing, per-request lifeguard wiring, and the error→status mapping.
//!
//! One [`Handler`] wraps one shared [`Session`] and is itself `Send +
//! Sync`: connection threads (or an in-process load harness) call
//! [`Handler::handle`] concurrently. Each `POST /query` request:
//!
//! 1. builds its [`RunGuard`] *first* (deadline from the `X-Deadline-Ms`
//!    header or the configured default, plus the memory budget), so time
//!    spent waiting for admission counts against the deadline,
//! 2. passes the bounded [`AdmissionQueue`] (or is rejected with `429` +
//!    a structured envelope),
//! 3. prepares through the session's prepared-statement cache
//!    ([`Session::sql_cached`]) — repeat statements skip view
//!    materialization and atom building,
//! 4. runs guarded; any [`causumx::Error`] maps onto an HTTP status via
//!    [`status_for`] with the [`causumx::error_json`] envelope as body.
//!
//! The process never dies on a request: mining panics are already
//! isolated into [`causumx::Error::Worker`] by the session layer, and
//! network parse failures were turned into `4xx` by [`crate::http`]
//! before reaching this module.
//!
//! [`Session`]: causumx::Session
//! [`RunGuard`]: mining::RunGuard

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use causumx::{error_json, json_escape, Error, Session};
use mining::{FaultKind, FaultPlan, FaultSite, RunGuard};

use crate::admission::AdmissionQueue;
use crate::http::{Request, Response};

/// Service-level knobs, fixed at handler construction.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Deadline applied to requests that do not send `X-Deadline-Ms`.
    /// `None` = unlimited (the guard still isolates panics).
    pub default_deadline: Option<Duration>,
    /// Peak-RSS growth budget per query, in mebibytes.
    pub memory_budget_mb: Option<u64>,
    /// Queries allowed to run concurrently.
    pub max_inflight: usize,
    /// Requests allowed to wait for a run slot beyond that.
    pub max_queued: usize,
    /// Honor the `X-Chaos` request header (deterministic fault
    /// injection: `panic`, `cancel`, or `delay:<ms>` at the first
    /// lattice site). Off by default — only the load harness and the
    /// chaos tests opt in; production requests cannot inject faults.
    pub allow_chaos: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            default_deadline: None,
            memory_budget_mb: None,
            max_inflight: 4,
            max_queued: 16,
            allow_chaos: false,
        }
    }
}

/// Monotone request counters surfaced by `GET /stats`.
#[derive(Default)]
struct ServeCounters {
    requests: AtomicUsize,
    queries_ok: AtomicUsize,
    queries_err: AtomicUsize,
    rejected_saturated: AtomicUsize,
    not_found: AtomicUsize,
}

/// The shared request handler — see the [module docs](self).
pub struct Handler {
    session: Arc<Session>,
    admission: AdmissionQueue,
    opts: ServeOptions,
    counters: ServeCounters,
}

// One handler is shared by every connection thread; a regression here
// must fail compilation.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Handler>();
};

/// Map an engine [`Error`] onto the HTTP status of its response.
///
/// * caller mistakes (`Sql`, `Table`, `InvalidQuery`, `Config`) → `400`;
/// * a well-formed query over an empty view (`EmptyView`) → `422`;
/// * cooperative cancellation (`Cancelled`) → `503` (the server gave up,
///   not the client);
/// * a blown deadline (`DeadlineExceeded`) → `504`;
/// * a blown memory budget (`MemoryBudget`) → `507`;
/// * an isolated mining panic (`Worker`) → `500`.
pub fn status_for(e: &Error) -> u16 {
    match e {
        Error::Sql { .. } | Error::Table(_) | Error::InvalidQuery(_) | Error::Config { .. } => 400,
        Error::EmptyView => 422,
        Error::Cancelled { .. } => 503,
        Error::DeadlineExceeded { .. } => 504,
        Error::MemoryBudget { .. } => 507,
        Error::Worker { .. } => 500,
    }
}

/// An HTTP-level error envelope in the same shape as
/// [`causumx::error_json`]: `{"error":{"kind":…,"code":…,"message":…}}`,
/// with optional extra pre-rendered JSON fields.
fn envelope(code: &str, message: &str, extra: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":\"{code}\",\"code\":\"{code}\",\"message\":\"{}\"{}{extra}}}}}",
        json_escape(message),
        if extra.is_empty() { "" } else { "," },
    )
}

impl Handler {
    /// Wrap `session` under `opts`.
    pub fn new(session: Arc<Session>, opts: ServeOptions) -> Self {
        Handler {
            admission: AdmissionQueue::new(opts.max_inflight, opts.max_queued),
            session,
            opts,
            counters: ServeCounters::default(),
        }
    }

    /// The shared session.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// The options this handler was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Route one parsed request to a response. Never panics on request
    /// content.
    pub fn handle(&self, req: &Request) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match (req.method.as_str(), req.path()) {
            ("POST", "/query") => self.post_query(req),
            ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
            ("GET", "/stats") => Response::json(200, self.stats_json()),
            (_, "/query") | (_, "/healthz") | (_, "/stats") => Response::json(
                405,
                envelope(
                    "method_not_allowed",
                    &format!("{} not supported on {}", req.method, req.path()),
                    "",
                ),
            ),
            (_, path) => {
                self.counters.not_found.fetch_add(1, Ordering::Relaxed);
                Response::json(
                    404,
                    envelope("not_found", &format!("no route for {path}"), ""),
                )
            }
        }
    }

    /// `POST /query`: SQL text in, report JSON (or error envelope) out.
    fn post_query(&self, req: &Request) -> Response {
        let sql = match std::str::from_utf8(&req.body) {
            Ok(s) => s.trim(),
            Err(_) => {
                self.counters.queries_err.fetch_add(1, Ordering::Relaxed);
                return Response::json(
                    400,
                    envelope("bad_request", "query body is not valid UTF-8", ""),
                );
            }
        };
        if sql.is_empty() {
            self.counters.queries_err.fetch_add(1, Ordering::Relaxed);
            return Response::json(
                400,
                envelope(
                    "bad_request",
                    "empty query body (expected a SQL statement)",
                    "",
                ),
            );
        }

        // Per-request deadline override. The guard starts *now*: time
        // queued for admission is charged to the request.
        let deadline = match req.header("x-deadline-ms") {
            Some(v) => match v.parse::<u64>() {
                Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
                _ => {
                    self.counters.queries_err.fetch_add(1, Ordering::Relaxed);
                    return Response::json(
                        400,
                        envelope(
                            "bad_request",
                            &format!("bad X-Deadline-Ms value `{v}` (expected positive integer)"),
                            "",
                        ),
                    );
                }
            },
            None => self.opts.default_deadline,
        };
        let mut guard = RunGuard::unlimited();
        if let Some(d) = deadline {
            guard = guard.with_deadline(d);
        }
        if let Some(mb) = self.opts.memory_budget_mb {
            guard = guard.with_memory_budget_mb(mb);
        }

        let permit = match self.admission.admit() {
            Ok(p) => p,
            Err(sat) => {
                self.counters
                    .rejected_saturated
                    .fetch_add(1, Ordering::Relaxed);
                let extra = format!("\"inflight\":{},\"queued\":{}", sat.inflight, sat.queued);
                return Response::json(
                    429,
                    envelope(
                        "saturated",
                        "server saturated: admission queue full, retry later",
                        &extra,
                    ),
                );
            }
        };

        let result = self.run_query(sql, req, &guard);
        drop(permit);
        match result {
            Ok(json) => {
                self.counters.queries_ok.fetch_add(1, Ordering::Relaxed);
                Response::json(200, json)
            }
            Err(e) => {
                self.counters.queries_err.fetch_add(1, Ordering::Relaxed);
                Response::json(status_for(&e), error_json(&e))
            }
        }
    }

    /// Prepare (through the statement cache) and run one query under
    /// `guard`, rendering the report on success.
    fn run_query(&self, sql: &str, req: &Request, guard: &RunGuard) -> Result<String, Error> {
        // A deadline blown while queued is reported before any work.
        guard
            .check()
            .map_err(|trip| mining::treatment::MineError::from_trip(trip, guard.progress()))?;
        let prepared = match self.chaos_plan(req)? {
            Some(plan) => {
                // Chaos requests bypass the statement cache: the fault
                // must arm on exactly this query, and a poisoned core
                // must never be shared.
                let query = table::sql::parse_query(self.session.table(), sql)?;
                let mut config = self.session.config().clone();
                config.lattice.fault_plan = Some(Arc::new(plan));
                self.session.prepare_with(query, config)?
            }
            None => self.session.sql_cached(sql)?,
        };
        let summary = prepared.run_guarded(guard)?;
        Ok(prepared.report(&summary).to_json())
    }

    /// Parse the `X-Chaos` header into a fault plan, if enabled.
    fn chaos_plan(&self, req: &Request) -> Result<Option<FaultPlan>, Error> {
        let Some(value) = req.header("x-chaos") else {
            return Ok(None);
        };
        if !self.opts.allow_chaos {
            return Err(Error::InvalidQuery(
                "X-Chaos rejected: fault injection is not enabled on this server".into(),
            ));
        }
        let site = FaultSite {
            pattern: 0,
            level: 1,
            chunk: 0,
        };
        let kind = match value {
            "panic" => FaultKind::Panic,
            "cancel" => FaultKind::Cancel,
            delay if delay.starts_with("delay:") => {
                let ms = delay["delay:".len()..]
                    .parse::<u64>()
                    .map_err(|_| Error::InvalidQuery(format!("bad X-Chaos delay `{value}`")))?;
                FaultKind::Delay(Duration::from_millis(ms))
            }
            other => {
                return Err(Error::InvalidQuery(format!(
                    "unknown X-Chaos kind `{other}` (expected panic|cancel|delay:<ms>)"
                )))
            }
        };
        Ok(Some(FaultPlan::new().inject(site, kind)))
    }

    /// The `GET /stats` body: request counters, admission occupancy,
    /// session work counters, prepared-statement cache stats, and the
    /// configured numeric mode (`"exact"` or `"fast_v1"`).
    pub fn stats_json(&self) -> String {
        let (inflight, queued) = self.admission.snapshot();
        let (max_inflight, max_queued) = self.admission.limits();
        let sc = self.session.counters();
        let cache = self.session.prepared_cache_stats();
        let mode = self.session.config().lattice.cate_opts.numeric_mode;
        format!(
            concat!(
                "{{\"requests\":{},\"queries_ok\":{},\"queries_err\":{},",
                "\"rejected_saturated\":{},\"not_found\":{},",
                "\"numeric_mode\":\"{}\",",
                "\"admission\":{{\"inflight\":{},\"queued\":{},",
                "\"max_inflight\":{},\"max_queued\":{}}},",
                "\"session\":{{\"views_materialized\":{},\"queries_prepared\":{},",
                "\"runs\":{},\"fd_closures_computed\":{},\"backdoor_walks\":{}}},",
                "\"prepared_cache\":{{\"len\":{},\"capacity\":{},\"hits\":{},",
                "\"misses\":{},\"evictions\":{}}}}}"
            ),
            self.counters.requests.load(Ordering::Relaxed),
            self.counters.queries_ok.load(Ordering::Relaxed),
            self.counters.queries_err.load(Ordering::Relaxed),
            self.counters.rejected_saturated.load(Ordering::Relaxed),
            self.counters.not_found.load(Ordering::Relaxed),
            mode.as_str(),
            inflight,
            queued,
            max_inflight,
            max_queued,
            sc.views_materialized,
            sc.queries_prepared,
            sc.runs,
            sc.fd_closures_computed,
            sc.backdoor_walks,
            cache.len,
            cache.capacity,
            cache.hits,
            cache.misses,
            cache.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causumx::ConfigBuilder;
    use table::TableBuilder;

    fn handler(opts: ServeOptions) -> Handler {
        let table = TableBuilder::new()
            .cat("country", &["US", "US", "US", "FR", "FR", "FR"])
            .unwrap()
            .cat("education", &["PhD", "BSc", "PhD", "BSc", "PhD", "BSc"])
            .unwrap()
            .float("salary", vec![120.0, 80.0, 125.0, 60.0, 90.0, 61.0])
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
            .theta(1.0)
            .min_arm(1)
            .threads(1)
            .build()
            .unwrap();
        Handler::new(Arc::new(Session::new(table, dag, config)), opts)
    }

    fn post(body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: "/query".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn health_stats_and_routing() {
        let h = handler(ServeOptions::default());
        let get = |path: &str| Request {
            method: "GET".into(),
            target: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(h.handle(&get("/healthz")).status, 200);
        let stats = h.handle(&get("/stats"));
        assert_eq!(stats.status, 200);
        let body = String::from_utf8(stats.body).unwrap();
        assert!(body.contains("\"prepared_cache\""), "{body}");
        assert!(body.contains("\"numeric_mode\":\"exact\""), "{body}");
        assert_eq!(h.handle(&get("/nope")).status, 404);
        let mut del = get("/query");
        del.method = "DELETE".into();
        assert_eq!(h.handle(&del).status, 405);
    }

    #[test]
    fn query_roundtrip_and_errors() {
        let h = handler(ServeOptions::default());
        let ok = h.handle(&post("SELECT country, AVG(salary) FROM t GROUP BY country"));
        assert_eq!(ok.status, 200);
        let body = String::from_utf8(ok.body).unwrap();
        assert!(body.contains("\"explanations\""), "{body}");

        let bad = h.handle(&post("SELECT country, AVG(salary) FROM t GROUP BY wages"));
        assert_eq!(bad.status, 400);
        let body = String::from_utf8(bad.body).unwrap();
        assert!(body.contains("\"code\":\"sql\""), "{body}");

        let empty = h.handle(&post(""));
        assert_eq!(empty.status, 400);
        let body = String::from_utf8(empty.body).unwrap();
        assert!(body.contains("\"code\":\"bad_request\""), "{body}");
    }

    #[test]
    fn error_status_mapping_is_total() {
        let progress = mining::QueryProgress {
            levels_completed: 0,
            cate_evaluations: 0,
        };
        assert_eq!(status_for(&Error::EmptyView), 422);
        assert_eq!(status_for(&Error::InvalidQuery("x".into())), 400);
        assert_eq!(status_for(&Error::Cancelled { progress }), 503);
        assert_eq!(
            status_for(&Error::DeadlineExceeded {
                after_ms: 1,
                progress
            }),
            504
        );
        assert_eq!(
            status_for(&Error::MemoryBudget {
                budget_mb: 1,
                observed_mb: 2,
                progress
            }),
            507
        );
        assert_eq!(
            status_for(&Error::Worker {
                task: "t".into(),
                payload: "p".into()
            }),
            500
        );
    }

    #[test]
    fn chaos_header_gated_and_panic_becomes_500() {
        let sql = "SELECT country, AVG(salary) FROM t GROUP BY country";
        let chaos = |h: &Handler, kind: &str| {
            let mut req = post(sql);
            req.headers.push(("x-chaos".into(), kind.into()));
            h.handle(&req)
        };
        // Gated off: rejected as invalid_query.
        let off = handler(ServeOptions::default());
        assert_eq!(chaos(&off, "panic").status, 400);

        let on = handler(ServeOptions {
            allow_chaos: true,
            ..ServeOptions::default()
        });
        let resp = chaos(&on, "panic");
        assert_eq!(resp.status, 500);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"code\":\"worker_panic\""), "{body}");
        // The session survives: the same statement runs clean afterwards.
        assert_eq!(on.handle(&post(sql)).status, 200);
        // Unknown kinds are rejected.
        assert_eq!(chaos(&on, "meteor").status, 400);
    }

    #[test]
    fn bad_deadline_header_rejected_and_tiny_deadline_trips() {
        let h = handler(ServeOptions::default());
        let sql = "SELECT country, AVG(salary) FROM t GROUP BY country";
        let mut req = post(sql);
        req.headers.push(("x-deadline-ms".into(), "soon".into()));
        assert_eq!(h.handle(&req).status, 400);
        let mut req = post(sql);
        req.headers.push(("x-deadline-ms".into(), "0".into()));
        assert_eq!(h.handle(&req).status, 400);
    }
}
