//! The four workloads, their set-up, the untraced closed loops that give
//! the end-to-end metrics, and the checks every operation's output must
//! pass. Why each workload exists is recorded in `BENCHMARK.json` and the
//! README next to this file.

use std::sync::Arc;
use std::time::{Duration, Instant};

use causumx::{CausumxConfig, ConfigBuilder, NumericMode, Session, Summary};
use datagen::synthetic::SynthParams;
use datagen::Dataset;
use serve::{Handler, Request, ServeOptions};

use crate::metrics::{json_field, Diag, Metric, PER_LAYER};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoExact,
    SoFastV1,
    SyntheticWide,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoExact,
        Workload::SoFastV1,
        Workload::SyntheticWide,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoExact => "so_exact",
            Workload::SoFastV1 => "so_fastv1",
            Workload::SyntheticWide => "synthetic_wide",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine configuration. Mining always runs on one thread: the
    /// work-stealing scheduler is not measured on a 2-vCPU shared host.
    pub fn config(self) -> CausumxConfig {
        let b = ConfigBuilder::new().threads(1);
        let b = match self {
            Workload::SoExact | Workload::SyntheticWide => b,
            Workload::SoFastV1 => b.numeric_mode(NumericMode::FastV1),
            // The interactive-service shape: single-literal treatments and
            // groupings with a CATE sample cap, so prepare is a visible
            // share of a request.
            Workload::ServeMix => b.max_level(1).max_grouping_len(1).sample_cap(Some(400)),
        };
        b.build().expect("workload configurations are valid")
    }

    /// The data instances a run explains: a fixed pool, whatever the seed.
    /// The work of a query is a property of its data (one synthetic_wide
    /// query took 126 to 340 ms across data seeds 42–65; SO's evaluation
    /// count moves by 3 % from seed to seed), so instances generated from
    /// the seed would make a run's median a property of its seed rather
    /// than of the code. The seed draws the order the pool is visited in,
    /// and serve_mix's request script. serve_mix serves the pool's first
    /// SO instance.
    fn pool(self) -> &'static [PoolEntry] {
        match self {
            Workload::SoExact | Workload::SoFastV1 => &SO_POOL,
            Workload::SyntheticWide => &SYNTH_POOL,
            Workload::ServeMix => &SO_POOL[..1],
        }
    }

    pub fn pool_len(self) -> usize {
        self.pool().len()
    }

    /// Generate instance `i` (below [`Workload::pool_len`]), with what its
    /// results must equal.
    pub fn instance(self, i: usize) -> Instance {
        let mode = self.config().lattice.cate_opts.numeric_mode;
        let (data_seed, cate_evaluations, candidates, covered, weight) = self.pool()[i];
        let (data, m) = match self {
            Workload::SyntheticWide => (
                datagen::synthetic::generate(
                    SynthParams {
                        n: SYNTH_ROWS,
                        tuples_per_group: SYNTH_ROWS / SYNTH_GROUPS,
                        ..SynthParams::default()
                    },
                    data_seed,
                ),
                SYNTH_GROUPS,
            ),
            _ => (datagen::so::generate(SO_ROWS, data_seed), SO_GROUPS),
        };
        // The pins hold for the default mining configuration; serve_mix's
        // responses are checked against a reference session instead.
        let pin = (self != Workload::ServeMix).then_some(Pin {
            cate_evaluations,
            candidates,
            covered,
            m,
            weight,
        });
        Instance {
            data,
            expect: Expectation::new(mode, pin),
        }
    }

    /// The order in which a run visits its instances, drawn from the seed.
    pub fn order(self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.pool_len()).collect();
        shuffle(&mut order, splitmix(seed));
        order
    }

    /// The statement the query workloads repeat.
    pub fn statement(self) -> &'static str {
        match self {
            Workload::SyntheticWide => "SELECT G, AVG(O) FROM synthetic GROUP BY G",
            _ => HOT[0],
        }
    }
}

const SO_ROWS: usize = 30_000;
/// Groups (countries) of the SO `GROUP BY Country` view.
const SO_GROUPS: usize = 20;
const SYNTH_ROWS: usize = 50_000;
const SYNTH_GROUPS: usize = 500;
/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Operations measured at least, however short `--seconds` is.
const MIN_OPS: usize = 10;

/// Whether the run's next fresh set-up is due, `done` of them in. The
/// set-ups are spread evenly over the measured loop, between operations,
/// so that `setup_s` samples the host's speed over the whole run as the
/// operations do, not over the few seconds before them. Any still missing
/// when a short loop ends run after it.
fn setup_due(start: Instant, budget: Duration, done: usize) -> bool {
    done < SETUPS && start.elapsed() >= budget.mul_f64(done as f64 / SETUPS as f64)
}

/// Hot serve statements (cache hits once warm); `HOT[0]` is also the
/// query of the SO workloads.
const HOT: [&str; 3] = [
    "SELECT Country, AVG(Salary) FROM so GROUP BY Country",
    "SELECT Country, AVG(Salary) FROM so WHERE Age < 45 GROUP BY Country",
    "SELECT Country, Gender, AVG(Salary) FROM so GROUP BY Country, Gender",
];

/// Malformed statements; each must come back as a 400 with code `sql`.
const MALFORMED: [&str; 3] = [
    "SELECT Country, AVG(Salary) FROM so GROUP BY Wages",
    "SELECT Country AVG(Salary) FROM so GROUP BY Country",
    "SELECT Country, AVG(Salary) FROM so WHERE GROUP BY Country",
];

/// A unique cold statement. SO ages stay below 100, so the bound filters
/// out no rows: mining costs what `HOT[0]` costs and the report is
/// `HOT[0]`'s, while the statement still misses the prepared cache.
fn cold_statement(i: usize) -> String {
    format!(
        "SELECT Country, AVG(Salary) FROM so WHERE Age < {} GROUP BY Country",
        100 + i
    )
}

/// One serve request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot(usize),
    Cold(usize),
    Malformed(usize),
}

impl Kind {
    pub fn sql(self) -> String {
        match self {
            Kind::Hot(h) => HOT[h].to_string(),
            Kind::Cold(i) => cold_statement(i),
            Kind::Malformed(i) => MALFORMED[i].to_string(),
        }
    }

    /// The class whose latencies share one median: each hot statement on
    /// its own, every cold statement together, every malformed one
    /// together.
    fn class(self) -> usize {
        match self {
            Kind::Hot(h) => h,
            Kind::Cold(_) => COLD_CLASS,
            Kind::Malformed(_) => COLD_CLASS + 1,
        }
    }
}

const COLD_CLASS: usize = HOT.len();

/// The serve mix: every block of 100 requests holds 72 hot, 25 cold and 3
/// malformed ones in a seeded order.
pub struct Script {
    seed: u64,
}

impl Script {
    const BLOCK: usize = 100;
    const HOT_PER_BLOCK: usize = 72;
    const COLD_PER_BLOCK: usize = 25;

    pub fn new(seed: u64) -> Self {
        Script { seed }
    }

    pub fn kind(&self, j: usize) -> Kind {
        let block = j / Self::BLOCK;
        let mut order: Vec<usize> = (0..Self::BLOCK).collect();
        shuffle(
            &mut order,
            splitmix(self.seed ^ (block as u64).wrapping_mul(0x9E37_79B9)),
        );
        let slot = order[j % Self::BLOCK];
        if slot < Self::HOT_PER_BLOCK {
            Kind::Hot(slot % HOT.len())
        } else if slot < Self::HOT_PER_BLOCK + Self::COLD_PER_BLOCK {
            Kind::Cold(block * Self::COLD_PER_BLOCK + slot - Self::HOT_PER_BLOCK)
        } else {
            Kind::Malformed(slot - Self::HOT_PER_BLOCK - Self::COLD_PER_BLOCK)
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fisher–Yates driven by a splitmix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

pub fn post(sql: &str) -> Request {
    Request {
        method: "POST".into(),
        target: "/query".into(),
        headers: Vec::new(),
        body: sql.as_bytes().to_vec(),
    }
}

/// Admission for the serve mix's one client.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        default_deadline: None,
        memory_budget_mb: None,
        max_inflight: 1,
        max_queued: 4,
        allow_chaos: false,
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Drop the report's `"timings":{...}` object, the only field of a report
/// that legitimately differs between two runs of the same query.
pub fn strip_timings(body: &str) -> String {
    let Some(start) = body.find("\"timings\":{") else {
        return body.into();
    };
    let Some(len) = body[start..].find('}') else {
        return body.into();
    };
    let mut end = start + len + 1;
    if body[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &body[..start], &body[end..])
}

/// The parts of a summary that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    m: usize,
    downdates: usize,
    regathers: usize,
    weight_bits: u64,
}

impl Fingerprint {
    pub fn of(s: &Summary) -> Self {
        Fingerprint {
            cate_evaluations: s.cate_evaluations,
            candidates: s.candidates,
            covered: s.covered,
            m: s.m,
            downdates: s.downdates,
            regathers: s.regathers,
            weight_bits: s.total_weight.to_bits(),
        }
    }
}

/// A data instance of a run and the expectation its results must meet.
pub struct Instance {
    pub data: Dataset,
    pub expect: Expectation,
}

/// A pinned result, `total_weight` to six decimals.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    m: usize,
    weight: f64,
}

/// An instance of a data pool: `(data seed, cate_evaluations, candidates,
/// covered, total_weight)` under the default mining configuration.
type PoolEntry = (u64, usize, usize, usize, f64);

/// The SO instances of `so_exact` and `so_fastv1`, each over 20 groups.
/// The first is also serve_mix's data.
const SO_POOL: [PoolEntry; 4] = [
    (42, 6382, 27, 16, 664.680408),
    (43, 6138, 27, 15, 706.036022),
    (44, 6321, 27, 19, 719.430259),
    (45, 6221, 27, 19, 651.685149),
];

/// The synthetic_wide instances, each over 500 groups.
const SYNTH_POOL: [PoolEntry; 16] = [
    (42, 1431, 14, 375, 62.119019),
    (43, 1429, 14, 375, 62.148242),
    (44, 1435, 14, 375, 63.052405),
    (45, 1432, 14, 437, 62.799451),
    (46, 1445, 14, 500, 62.250526),
    (47, 1437, 14, 375, 62.289504),
    (48, 1437, 14, 437, 63.409189),
    (49, 1428, 14, 438, 63.081771),
    (50, 1427, 14, 375, 62.116737),
    (51, 1426, 14, 375, 62.666743),
    (52, 1432, 14, 437, 61.863661),
    (53, 1427, 14, 375, 61.873539),
    (54, 1437, 14, 376, 62.514096),
    (55, 1437, 14, 375, 62.612327),
    (56, 1432, 14, 375, 62.597332),
    (57, 1440, 14, 437, 63.071702),
];

/// What every result on one instance must equal: its pin when it has
/// one, and always the first result of the run.
pub struct Expectation {
    mode: NumericMode,
    pin: Option<Pin>,
    first: Option<Fingerprint>,
}

impl Expectation {
    fn new(mode: NumericMode, pin: Option<Pin>) -> Self {
        Expectation {
            mode,
            pin,
            first: None,
        }
    }

    pub fn check(&mut self, s: &Summary) -> Result<(), String> {
        let fp = Fingerprint::of(s);
        if let Some(first) = self.first {
            return if fp == first {
                Ok(())
            } else {
                Err(format!(
                    "result {fp:?} differs from the run's first result {first:?}"
                ))
            };
        }
        match self.mode {
            NumericMode::Exact if fp.downdates != 0 => {
                return Err(format!("Exact mode downdated {} candidates", fp.downdates))
            }
            NumericMode::FastV1 if fp.downdates == 0 => {
                return Err("FastV1 mode never downdated".into())
            }
            _ => {}
        }
        if let Some(pin) = self.pin {
            // FastV1 may also sit 1e-9 (relative) from the Exact weight the
            // pin was taken from.
            let tolerance = 5e-7 + 1e-9 * pin.weight;
            let counts = (fp.cate_evaluations, fp.candidates, fp.covered, fp.m);
            let want = (pin.cate_evaluations, pin.candidates, pin.covered, pin.m);
            if counts != want || (s.total_weight - pin.weight).abs() > tolerance {
                return Err(format!(
                    "result (evaluations, candidates, covered, m) = {counts:?}, weight {} \
                     differs from the pin {want:?}, weight {}",
                    s.total_weight, pin.weight
                ));
            }
        }
        self.first = Some(fp);
        Ok(())
    }
}

/// Result of one benchmark run of one workload.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub diags: Vec<Diag>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            diags: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Record a failed check (the first few messages are kept).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Count one operation; `Err` counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            self.error(msg);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn diag(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.diags.push(Diag {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// The tail percentile of `samples` that the sample supports.
    pub fn tail_diag(&mut self, prefix: &str, samples: &[f64]) {
        match stats::supported_tail(samples) {
            Some((p, v, beyond)) => self.diag(
                &format!("{prefix}_p{p}_ms"),
                v,
                "ms",
                format!("samples={} beyond={beyond}", samples.len()),
            ),
            None => self.diag(
                &format!("{prefix}_tail_ms"),
                f64::NAN,
                "ms",
                format!(
                    "samples={} (fewer than {} beyond any tail)",
                    samples.len(),
                    stats::TAIL_MIN_BEYOND
                ),
            ),
        }
    }

    /// Diagnostics every run reports at its end.
    pub fn finish(&mut self, datagen_s: f64, started: Instant) {
        self.diag(
            "host_parallelism",
            host_parallelism() as f64,
            "count",
            String::new(),
        );
        self.diag("datagen_s", datagen_s, "s", String::new());
        self.diag(
            "wall_s",
            started.elapsed().as_secs_f64(),
            "s",
            String::new(),
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    mining::sched::guard::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Run one workload untraced: the end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::new();
    let t = Instant::now();
    let instances: Vec<Instance> = (0..w.pool_len()).map(|i| w.instance(i)).collect();
    let datagen_s = t.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64(seconds);
    let (ops, setup_s) = match w {
        Workload::ServeMix => run_serve(&instances[0].data, seed, budget, &mut out),
        _ => run_queries(w, instances, seed, budget, &mut out),
    };
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let query_p50 = stats::class_median(&ops).unwrap_or(f64::NAN);
    out.metric("query_p50_ms", query_p50, "ms");
    let all: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
    if w == Workload::ServeMix {
        let cold: Vec<f64> = ops
            .iter()
            .filter(|&&(class, _)| class == COLD_CLASS)
            .map(|&(_, ms)| ms)
            .collect();
        out.metric("cold_p50_ms", median(&cold), "ms");
        out.tail_diag("cold", &cold);
    } else {
        // Every operation of a query workload prepares from scratch.
        out.metric("cold_p50_ms", query_p50, "ms");
    }
    out.metric("setup_s", median(&setup_s), "s");
    match peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MiB"),
        None => {
            out.error("VmHWM is unavailable (no /proc/self/status)".into());
            out.metric("peak_rss_mb", f64::NAN, "MiB");
        }
    }
    out.tail_diag("query", &all);
    out.finish(datagen_s, started);
    out
}

/// `so_exact`, `so_fastv1` and `synthetic_wide`: one client, one query
/// after another. Every operation prepares its statement from scratch.
/// Returns each operation's `(instance, ms)` and the set-up times.
fn run_queries(
    w: Workload,
    instances: Vec<Instance>,
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<(usize, f64)>, Vec<f64>) {
    let cfg = w.config();
    let query = match table::sql::parse_query(&instances[0].data.table, w.statement()) {
        Ok(q) => q,
        Err(e) => {
            out.error(format!("statement does not parse: {e}"));
            return (Vec::new(), Vec::new());
        }
    };

    // A fresh set-up on the data of `like`, the pool's first instance.
    let setup = |(like, expect): &mut (Session, Expectation), out: &mut Outcome| {
        let (table, dag) = (like.table().clone(), like.dag().clone());
        let t = Instant::now();
        let session = Session::new(table, dag, cfg.clone());
        let result = session.prepare(query.clone()).map(|pq| pq.run());
        let secs = t.elapsed().as_secs_f64();
        match result {
            Ok(summary) => {
                if let Err(e) = expect.check(&summary) {
                    out.error(format!("set-up: {e}"));
                }
            }
            Err(e) => out.error(format!("set-up: prepare failed: {e}")),
        }
        secs
    };

    // One session per instance, visited in the seeded order and in whole
    // rounds, so every instance weighs the same. Each session answers once
    // untimed first, so lazy per-session work (FD closure, backdoor memo)
    // stays out of the samples. All sessions stay resident, so
    // synthetic_wide's peak RSS is mostly its pool.
    let order = w.order(seed);
    let mut pool: Vec<(Session, Expectation)> = Vec::new();
    for Instance { data, mut expect } in instances {
        let session = Session::new(data.table, data.dag, cfg.clone());
        match session.prepare(query.clone()).map(|pq| pq.run()) {
            Ok(s) => {
                if let Err(e) = expect.check(&s) {
                    out.error(format!("warm-up: {e}"));
                }
            }
            Err(e) => out.error(format!("warm-up: prepare failed: {e}")),
        }
        pool.push((session, expect));
    }
    let mut ops = Vec::new();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    for j in 0.. {
        if j % order.len() == 0 && start.elapsed() >= budget && ops.len() >= MIN_OPS {
            break;
        }
        if setup_due(start, budget, setup_s.len()) {
            setup_s.push(setup(&mut pool[0], out));
        }
        let i = order[j % order.len()];
        let (session, expect) = &mut pool[i];
        let t = Instant::now();
        let result = session.prepare(query.clone()).map(|pq| pq.run());
        ops.push((i, ms(t.elapsed())));
        out.op(match result {
            Ok(s) => expect.check(&s),
            Err(e) => Err(format!("prepare failed: {e}")),
        });
    }
    while setup_s.len() < SETUPS {
        setup_s.push(setup(&mut pool[0], out));
    }
    (ops, setup_s)
}

/// `serve_mix`: one client in a closed loop over one handler: it sends its
/// next request when the previous answer arrives. Returns each request's
/// `(Kind::class, ms)` and the set-up times.
fn run_serve(
    ds: &Dataset,
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<(usize, f64)>, Vec<f64>) {
    let cfg = Workload::ServeMix.config();
    let reference = match ServeReference::new(ds, &cfg) {
        Ok(r) => r,
        Err(e) => {
            out.error(e);
            return (Vec::new(), Vec::new());
        }
    };

    // A fresh handler over a fresh session, up to its first answer.
    let setup = |out: &mut Outcome| {
        let (table, dag) = (ds.table.clone(), ds.dag.clone());
        let t = Instant::now();
        let session = Arc::new(Session::new(table, dag, cfg.clone()));
        let handler = Handler::new(session, serve_options());
        let resp = handler.handle(&post(HOT[0]));
        let secs = t.elapsed().as_secs_f64();
        if let Err(e) = reference.check(Kind::Hot(0), resp.status, &resp.body) {
            out.error(format!("set-up: {e}"));
        }
        (secs, handler)
    };

    // The measured handler answers once untimed first, like the query
    // workloads' sessions.
    let (_, handler) = setup(out);
    let script = Script::new(seed);
    let mut ops = Vec::new();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    for j in 0.. {
        if start.elapsed() >= budget && j >= MIN_OPS {
            break;
        }
        if setup_due(start, budget, setup_s.len()) {
            setup_s.push(setup(out).0);
        }
        let kind = script.kind(j);
        let req = post(&kind.sql());
        let t = Instant::now();
        let resp = handler.handle(&req);
        ops.push((kind.class(), ms(t.elapsed())));
        out.op(reference.check(kind, resp.status, &resp.body));
    }
    while setup_s.len() < SETUPS {
        setup_s.push(setup(out).0);
    }
    match serve_counters(&handler) {
        Ok(counters) => {
            for (name, value) in counters {
                let unit = PER_LAYER
                    .iter()
                    .find(|l| l.0 == name)
                    .map_or("count", |l| l.1);
                out.diag(name, value, unit, String::new());
            }
        }
        Err(e) => out.error(format!("serve stats: {e}")),
    }
    (ops, setup_s)
}

/// Expected serve responses, computed serially on a separate session with
/// plain (uncached) prepares.
pub struct ServeReference {
    hot: Vec<String>,
}

impl ServeReference {
    pub fn new(ds: &Dataset, cfg: &CausumxConfig) -> Result<Self, String> {
        let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg.clone());
        let body = |sql: &str| -> Result<String, String> {
            let pq = session
                .sql(sql)
                .map_err(|e| format!("reference prepare of `{sql}` failed: {e}"))?;
            Ok(strip_timings(&pq.report(&pq.run()).to_json()))
        };
        let hot = HOT.iter().map(|s| body(s)).collect::<Result<Vec<_>, _>>()?;
        if body(&cold_statement(0))? != hot[0] {
            return Err("a vacuous WHERE bound changed the report: cold statements \
                        no longer mirror the hot one"
                .into());
        }
        Ok(ServeReference { hot })
    }

    /// Check one response against the expectation for its request.
    pub fn check(&self, kind: Kind, status: u16, body: &[u8]) -> Result<(), String> {
        let body = String::from_utf8_lossy(body);
        let ok = match kind {
            Kind::Hot(h) => status == 200 && strip_timings(&body) == self.hot[h],
            Kind::Cold(_) => status == 200 && strip_timings(&body) == self.hot[0],
            Kind::Malformed(_) => return check_malformed(status, body.as_bytes()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{kind:?} answered {status}: {}", head(&body)))
        }
    }
}

/// A handler's cache and admission counters, named as the per-layer
/// metrics they feed.
pub fn serve_counters(handler: &Handler) -> Result<Vec<(&'static str, f64)>, String> {
    let cache = handler.session().prepared_cache_stats();
    let lookups = cache.hits + cache.misses;
    // The handler publishes its admission counters only in `/stats`.
    let rejected = json_field(&handler.stats_json(), "rejected_saturated")
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("`/stats` has no rejected_saturated count")?;
    Ok(vec![
        (
            "serve.cache_hit_rate",
            if lookups > 0 {
                cache.hits as f64 / lookups as f64
            } else {
                0.0
            },
        ),
        ("serve.cache_evictions", cache.evictions as f64),
        ("serve.rejected", rejected),
    ])
}

/// A malformed statement must be rejected as a client error of kind `sql`.
pub fn check_malformed(status: u16, body: &[u8]) -> Result<(), String> {
    let body = String::from_utf8_lossy(body);
    if status == 400 && body.contains("\"code\":\"sql\"") {
        Ok(())
    } else {
        Err(format!("malformed SQL answered {status}: {}", head(&body)))
    }
}

fn head(body: &str) -> String {
    body.chars().take(160).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_script_mix_and_uniqueness() {
        let script = Script::new(7);
        let kinds: Vec<Kind> = (0..1000).map(|j| script.kind(j)).collect();
        let hot = kinds.iter().filter(|k| matches!(k, Kind::Hot(_))).count();
        let malformed = kinds
            .iter()
            .filter(|k| matches!(k, Kind::Malformed(_)))
            .count();
        let mut cold: Vec<usize> = kinds
            .iter()
            .filter_map(|k| match k {
                Kind::Cold(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!((hot, cold.len(), malformed), (720, 250, 30));
        // Every cold statement is issued once: all of them miss the cache.
        cold.sort_unstable();
        assert_eq!(cold, (0..250).collect::<Vec<_>>());
        // All three hot statements are used.
        for h in 0..HOT.len() {
            assert!(kinds.contains(&Kind::Hot(h)));
        }
        // Same seed, same script; another seed, another order.
        let again: Vec<Kind> = (0..1000).map(|j| Script::new(7).kind(j)).collect();
        assert_eq!(kinds, again);
        let other: Vec<Kind> = (0..1000).map(|j| Script::new(8).kind(j)).collect();
        assert_ne!(kinds, other);
    }

    #[test]
    fn visit_order_is_a_seeded_permutation() {
        let w = Workload::SyntheticWide;
        let a = w.order(7);
        assert_eq!(a, w.order(7));
        assert_ne!(a, w.order(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..SYNTH_POOL.len()).collect::<Vec<_>>());
        assert_eq!(Workload::ServeMix.order(7), vec![0]);
        // Set-ups time each pool's first instance, seed 42 for both.
        assert_eq!((SO_POOL[0].0, SYNTH_POOL[0].0), (42, 42));
        assert_eq!(Workload::ServeMix.pool(), &SO_POOL[..1]);
    }

    #[test]
    fn strip_timings_removes_only_the_timings_object() {
        let body = "{\"m\":2,\"timings\":{\"grouping_ms\":0.8,\"treatment_ms\":1.2},\"x\":[{}]}";
        assert_eq!(strip_timings(body), "{\"m\":2,\"x\":[{}]}");
        assert_eq!(strip_timings("{\"m\":2}"), "{\"m\":2}");
    }

    #[test]
    fn serve_counters_of_a_live_handler() {
        let ds = datagen::so::generate(300, 1);
        let cfg = Workload::ServeMix.config();
        let session = Arc::new(Session::new(ds.table, ds.dag, cfg));
        let handler = Handler::new(session, serve_options());
        for _ in 0..2 {
            assert_eq!(handler.handle(&post(HOT[0])).status, 200);
        }
        assert_eq!(
            serve_counters(&handler).unwrap(),
            vec![
                ("serve.cache_hit_rate", 0.5),
                ("serve.cache_evictions", 0.0),
                ("serve.rejected", 0.0)
            ]
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
