//! The traced run (`--trace 1`): per-layer numbers.
//!
//! Each operation is served once through [`Handler::handle`], then replayed
//! on a second session over the same data, one public call at a time in
//! the order `PreparedQuery::run` makes them, with a span around each
//! call. A few layers are also called once more on their own (the view,
//! Apriori, and the panel build and estimate behind every mined
//! treatment). Finally the plain `Session::sql` + `run` + render is timed
//! as the untraced reference: every replay must reproduce it exactly, and
//! the two timings give the tracing overhead.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use causal::SubpopPanel;
use causumx::{
    CausumxConfig, Explanation, NumericMode, PreparedQuery, Session, StepTimings, Summary,
};
use lpsolve::cover::{randomized_rounding, solve_lp_relaxation, CoverInstance};
use mining::apriori::apriori;
use mining::grouping::{mine_grouping_patterns, GroupingPattern};
use mining::treatment::{LatticeStats, TreatmentMiner};
use mining::RunGuard;
use serve::{Handler, Response};
use table::BitSet;

use crate::metrics::PER_LAYER;
use crate::stats;
use crate::trace::{self_time_ns, Span, SpanId, Tracer};
use crate::workloads::{
    check_malformed, post, serve_counters, serve_options, strip_timings, Fingerprint, Instance,
    Kind, Outcome, Script, Workload,
};

/// Operations traced at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

/// Layer values of one operation, keyed by per-layer metric name.
type OpValues = BTreeMap<&'static str, f64>;

/// Per-layer metrics whose value is the summed self time of one span
/// name within an operation.
const SPAN_TIMES: [(&str, &str); 10] = [
    ("table.view_ms", "table.view"),
    ("core.prepare_ms", "core.prepare"),
    ("core.prepare_hit_ms", "core.prepare_hit"),
    ("core.prepare_miss_ms", "core.prepare_miss"),
    ("core.render_ms", "core.render"),
    ("mining.apriori_ms", "mining.apriori"),
    ("mining.grouping_ms", "mining.grouping"),
    ("causal.panel_build_ms", "causal.panel_build"),
    ("lpsolve.lp_ms", "lpsolve.lp"),
    ("lpsolve.rounding_ms", "lpsolve.rounding"),
];

/// State of one traced run.
struct Replay<'s> {
    shadow: &'s Session,
    cfg: CausumxConfig,
    tracer: Tracer,
    estimate_us: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// Run one workload traced. Returns the outcome (per-layer metrics) and
/// every recorded span.
pub fn run(w: Workload, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let started = Instant::now();
    let mut out = Outcome::new();
    // The first instance of the run's visiting order (serve_mix has only
    // one).
    let t = Instant::now();
    let Instance {
        data: ds,
        mut expect,
    } = w.instance(w.order(seed)[0]);
    let datagen_s = t.elapsed().as_secs_f64();
    let cfg = w.config();
    let served = Arc::new(Session::new(ds.table.clone(), ds.dag.clone(), cfg.clone()));
    let handler = Handler::new(served, serve_options());
    let shadow = Session::new(ds.table, ds.dag, cfg.clone());
    let script = Script::new(seed);

    let mut replay = Replay {
        shadow: &shadow,
        cfg,
        tracer: Tracer::new(),
        estimate_us: Vec::new(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
    };
    let mut ops: Vec<OpValues> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    for i in 0.. {
        if start.elapsed() >= budget && i >= MIN_OPS {
            break;
        }
        let kind = (w == Workload::ServeMix).then(|| script.kind(i));
        let sql = kind.map_or_else(|| w.statement().to_string(), Kind::sql);
        replay.tracer.set_trace(i as u64);
        let first_span = replay.tracer.spans().len();
        let mut values = OpValues::new();
        let resp = replay
            .tracer
            .time("serve.handle", None, || handler.handle(&post(&sql)));
        let verdict = match kind {
            Some(Kind::Malformed(_)) => check_malformed(resp.status, &resp.body),
            _ => replay
                .op(&sql, &resp, &mut values)
                .and_then(|reference| match kind {
                    // Serve statements are checked against the untraced
                    // reference inside `op`; query workloads also against
                    // their pins and first result.
                    None => expect.check(&reference),
                    Some(_) => Ok(()),
                }),
        };
        out.op(verdict);
        span_values(
            &replay.tracer.spans()[first_span..],
            first_span,
            &mut values,
        );
        ops.push(values);
    }

    // Run-wide values: session and serve counters, estimate calls and the
    // traced-vs-untraced ratio.
    let mut run_values = OpValues::new();
    run_values.insert(
        "core.backdoor_walks",
        shadow.counters().backdoor_walks as f64,
    );
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    run_values.insert("causal.estimate_us", median(&replay.estimate_us));
    run_values.insert(
        "trace.overhead_pct",
        (median(&replay.traced_ms) / median(&replay.untraced_ms) - 1.0) * 100.0,
    );
    match serve_counters(&handler) {
        Ok(counters) => run_values.extend(counters),
        Err(e) => out.error(format!("serve stats: {e}")),
    }
    for (name, unit, _) in PER_LAYER {
        let value = match run_values.get(name) {
            Some(v) => *v,
            None => {
                let samples: Vec<f64> = ops.iter().filter_map(|o| o.get(name).copied()).collect();
                // A layer that never ran in this workload reads 0.
                stats::median(&samples).unwrap_or(0.0)
            }
        };
        out.metric(name, value, unit);
    }
    out.diag(
        "traced_p50_ms",
        median(&replay.traced_ms),
        "ms",
        format!("samples={}", replay.traced_ms.len()),
    );
    out.diag(
        "untraced_p50_ms",
        median(&replay.untraced_ms),
        "ms",
        format!("samples={}", replay.untraced_ms.len()),
    );
    out.finish(datagen_s, started);
    (out, replay.tracer)
}

/// What the step-by-step run of one statement produced, kept for the
/// probes.
struct Stepped<'s> {
    pq: PreparedQuery<'s>,
    groupings: Vec<GroupingPattern>,
    miner: TreatmentMiner<'s>,
    /// Candidate explanations with the index of their grouping pattern.
    candidates: Vec<(usize, Explanation)>,
    summary: Summary,
    json: String,
}

impl<'s> Replay<'s> {
    /// Replay one served statement layer by layer, then run it untraced.
    /// Returns the untraced summary, which the replay and the served
    /// response must both match.
    fn op(
        &mut self,
        sql: &str,
        served: &Response,
        values: &mut OpValues,
    ) -> Result<Summary, String> {
        // The handler's statement-cache step. The shadow session has seen
        // the same statements, so it hits or misses exactly when the
        // handler's session did.
        let hits = self.shadow.counters().prepared_cache_hits;
        let t = self.tracer.now();
        let cached = self.shadow.sql_cached(sql).map(drop);
        let name = if self.shadow.counters().prepared_cache_hits > hits {
            "core.prepare_hit"
        } else {
            "core.prepare_miss"
        };
        self.tracer.close(name, t, None);
        cached.map_err(|e| format!("cached prepare of `{sql}` failed: {e}"))?;

        let root = self.tracer.open("query", None);
        let stepped = self.steps(sql, root, values);
        self.tracer.end(root);
        let stepped = stepped?;
        self.traced_ms.push(span_ms(&self.tracer.spans()[root]));
        self.probes(&stepped, values)?;

        let t = self.tracer.now();
        let reference = self.shadow.sql(sql).map(|pq| {
            let s = pq.run();
            let json = pq.report(&s).to_json();
            (s, json)
        });
        let id = self.tracer.close("untraced", t, None);
        self.untraced_ms.push(span_ms(&self.tracer.spans()[id]));
        let (reference, reference_json) =
            reference.map_err(|e| format!("untraced prepare of `{sql}` failed: {e}"))?;
        let reference_json = strip_timings(&reference_json);

        let (got, want) = (
            Fingerprint::of(&stepped.summary),
            Fingerprint::of(&reference),
        );
        if got != want || strip_timings(&stepped.json) != reference_json {
            return Err(format!(
                "step-by-step run of `{sql}` differs from run(): {got:?} vs {want:?}"
            ));
        }
        if served.status != 200
            || strip_timings(&String::from_utf8_lossy(&served.body)) != reference_json
        {
            return Err(format!(
                "served `{sql}` ({}) differs from the untraced reference",
                served.status
            ));
        }
        Ok(reference)
    }

    /// Algorithm 1 through its layers' public calls, under `root`:
    /// prepare, grouping patterns, one treatment walk per pattern, LP,
    /// rounding, render.
    fn steps(
        &mut self,
        sql: &str,
        root: SpanId,
        values: &mut OpValues,
    ) -> Result<Stepped<'s>, String> {
        let shadow: &'s Session = self.shadow;
        let tr = &mut self.tracer;
        let cfg = &self.cfg;
        let (table, dag) = (shadow.table(), shadow.dag());

        let pq = tr
            .time("core.prepare", Some(root), || shadow.sql(sql))
            .map_err(|e| format!("prepare of `{sql}` failed: {e}"))?;
        let split = pq.attr_split();
        let view = pq.view();
        let groupings = tr.time("mining.grouping", Some(root), || {
            mine_grouping_patterns(
                table,
                view,
                &split.grouping,
                cfg.apriori_tau,
                cfg.max_grouping_len,
            )
        });
        // The prepared query keeps its miner private, so the replay builds
        // its own: the one piece of work tracing from outside adds.
        let miner = tr.time("mining.miner", Some(root), || {
            TreatmentMiner::new(
                table,
                dag,
                pq.query().avg,
                &split.treatment,
                cfg.lattice.clone(),
            )
        });
        let guard = RunGuard::unlimited();
        let mut lattice = LatticeStats::default();
        let mut candidates: Vec<(usize, Explanation)> = Vec::new();
        for (gi, gp) in groupings.iter().enumerate() {
            let mined = tr.time("mining.treatment", Some(root), || {
                miner.mine_paired_many_guarded(
                    &[&gp.rows],
                    1,
                    cfg.mine_negative,
                    cfg.effective_threads(),
                    &guard,
                )
            });
            let mut paired = mined
                .map_err(|e| format!("treatment walk failed: {e}"))?
                .pop()
                .ok_or("treatment walk returned no result")?;
            lattice.evaluated += paired.stats.evaluated;
            lattice.levels += paired.stats.levels;
            lattice.contexts_built += paired.stats.contexts_built;
            lattice.downdates += paired.stats.downdates;
            lattice.regathers += paired.stats.regathers;
            let e = Explanation::new(
                gp.pattern.clone(),
                gp.coverage.clone(),
                paired.positive.pop(),
                paired.negative.pop(),
            );
            if e.has_treatment() {
                candidates.push((gi, e));
            }
        }
        let inst = CoverInstance {
            weights: candidates.iter().map(|(_, e)| e.weight).collect(),
            covers: candidates.iter().map(|(_, e)| e.coverage.clone()).collect(),
            m: view.num_groups(),
            k: cfg.k,
            theta: cfg.theta,
        };
        let lp = tr.time("lpsolve.lp", Some(root), || solve_lp_relaxation(&inst));
        let lp = lp.ok_or("LP relaxation is infeasible")?;
        let chosen = tr.time("lpsolve.rounding", Some(root), || {
            randomized_rounding(&inst, &lp, cfg.rounding_rounds, cfg.seed)
        });
        let chosen = chosen.ok_or("rounding chose nothing")?;
        let summary = Summary {
            explanations: chosen
                .chosen
                .iter()
                .map(|&j| candidates[j].1.clone())
                .collect(),
            m: inst.m,
            covered: chosen.coverage,
            feasible: chosen.feasible,
            total_weight: chosen.total_weight,
            candidates: candidates.len(),
            cate_evaluations: lattice.evaluated,
            downdates: lattice.downdates,
            regathers: lattice.regathers,
            // Step times live in the spans; reports are compared without
            // their timings.
            timings: StepTimings::default(),
        };
        let json = tr.time("core.render", Some(root), || pq.report(&summary).to_json());

        for (name, v) in [
            ("mining.grouping_patterns", groupings.len()),
            ("mining.cate_evaluations", lattice.evaluated),
            ("mining.levels", lattice.levels),
            ("mining.contexts_built", lattice.contexts_built),
            ("mining.downdates", lattice.downdates),
            ("mining.regathers", lattice.regathers),
            ("lpsolve.candidates", inst.len()),
            ("lpsolve.groups", inst.m),
        ] {
            values.insert(name, v as f64);
        }
        let eligible = lattice.downdates + lattice.regathers;
        values.insert(
            "mining.downdate_ratio",
            if eligible == 0 {
                0.0
            } else {
                lattice.downdates as f64 / eligible as f64
            },
        );
        Ok(Stepped {
            pq,
            groupings,
            miner,
            candidates,
            summary,
            json,
        })
    }

    /// Layers the pipeline calls internally, called again on their own so
    /// their cost shows: the view, Apriori, and the panel build and
    /// estimate behind every mined treatment, whose CATE must come out
    /// as mined.
    fn probes(&mut self, st: &Stepped<'s>, values: &mut OpValues) -> Result<(), String> {
        let tr = &mut self.tracer;
        let cfg = &self.cfg;
        let table = self.shadow.table();
        let split = st.pq.attr_split();
        let outcome = st.pq.query().avg;
        let probe = tr.open("probe", None);
        let view = tr.time("table.view", Some(probe), || st.pq.query().run(table));
        let mut mismatch = None;
        if view.map(|v| v.num_groups()).ok() != Some(st.pq.view().num_groups()) {
            mismatch = Some("re-materialized view differs".to_string());
        }
        let min_support = ((cfg.apriori_tau * table.nrows() as f64).ceil() as usize).max(1);
        let frequent = tr.time("mining.apriori", Some(probe), || {
            apriori(table, &split.grouping, min_support, cfg.max_grouping_len)
        });
        std::hint::black_box(frequent);
        let exact = cfg.lattice.cate_opts.numeric_mode == NumericMode::Exact;
        let (mut attrs_built, mut pairs_built) = (0, 0);
        for (gi, e) in &st.candidates {
            let rows = &st.groupings[*gi].rows;
            for t in [&e.positive, &e.negative].into_iter().flatten() {
                let (ctx, attrs, pairs) = tr.time("causal.panel_build", Some(probe), || {
                    let confounders = st.miner.confounders_for(&t.pattern.attrs());
                    let mut panel =
                        SubpopPanel::new(table, Some(rows), outcome, &cfg.lattice.cate_opts);
                    let ctx = panel.assemble(table, &confounders);
                    (ctx, panel.attrs_built(), panel.pairs_built())
                });
                attrs_built += attrs;
                pairs_built += pairs;
                let treated = t.pattern.eval(table).map(|mask| BitSet::from_mask(&mask));
                let (Some(ctx), Ok(treated)) = (ctx, treated) else {
                    mismatch
                        .get_or_insert_with(|| "panel or treatment mask unavailable".to_string());
                    continue;
                };
                let s = tr.now();
                let estimate = ctx.estimate(&treated);
                let id = tr.close("causal.estimate", s, Some(probe));
                self.estimate_us.push(span_ms(&tr.spans()[id]) * 1e3);
                let same = estimate.is_some_and(|r| {
                    if exact {
                        r.cate.to_bits() == t.cate.to_bits()
                    } else {
                        (r.cate - t.cate).abs() <= 1e-9 * t.cate.abs().max(1.0)
                    }
                });
                if !same {
                    mismatch.get_or_insert_with(|| {
                        format!(
                            "re-estimated CATE of {} differs from the mined {}",
                            t.pattern.key(),
                            t.cate
                        )
                    });
                }
            }
        }
        tr.end(probe);
        values.insert("causal.panel_attrs_built", attrs_built as f64);
        values.insert("causal.panel_pairs_built", pairs_built as f64);
        mismatch.map_or(Ok(()), Err)
    }
}

fn span_ms(span: &Span) -> f64 {
    span.duration_ns() as f64 / 1e6
}

/// Fill the span-derived layer values of one operation from its spans
/// (`spans[k]` has id `first + k`).
fn span_values(spans: &[Span], first: SpanId, values: &mut OpValues) {
    let local: Vec<Span> = spans
        .iter()
        .map(|s| Span {
            parent: s.parent.map(|p| p - first),
            ..s.clone()
        })
        .collect();
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut max_pattern: Option<f64> = None;
    for (id, s) in local.iter().enumerate() {
        let self_ms = self_time_ns(&local, id) as f64 / 1e6;
        *by_name.entry(s.name).or_default() += self_ms;
        if s.name == "mining.treatment" {
            max_pattern = Some(max_pattern.map_or(self_ms, |m: f64| m.max(self_ms)));
        }
    }
    for (metric, span) in SPAN_TIMES {
        if let Some(v) = by_name.get(span) {
            values.insert(metric, *v);
        }
    }
    let get = |name: &str| by_name.get(name).copied();
    if let Some(handle) = get("serve.handle") {
        values.insert("serve.handle_ms", handle);
    }
    if let Some(patterns) = get("mining.treatment") {
        values.insert(
            "mining.treatment_ms",
            patterns + get("mining.miner").unwrap_or(0.0),
        );
    }
    if let Some(m) = max_pattern {
        values.insert("mining.treatment_max_pattern_ms", m);
    }
    // What the handler adds around the work the replay also does: its
    // cached prepare, mining, selection and render. The replay's own
    // fresh prepare and miner build are not part of a served request.
    let cached = get("core.prepare_hit").or(get("core.prepare_miss"));
    if let (Some(handle), Some(cached), Some(render)) =
        (get("serve.handle"), cached, get("core.render"))
    {
        let work = cached
            + get("mining.grouping").unwrap_or(0.0)
            + get("mining.treatment").unwrap_or(0.0)
            + get("lpsolve.lp").unwrap_or(0.0)
            + get("lpsolve.rounding").unwrap_or(0.0)
            + render;
        values.insert("serve.overhead_ms", handle - work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            trace_id: 3,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn layer_values_use_self_time_and_rebased_parents() {
        // Ids 10.. as if earlier operations' spans came first.
        let ms = 1_000_000;
        let spans = vec![
            span("serve.handle", 0, 100 * ms, None),
            span("core.prepare_hit", 100 * ms, 101 * ms, None),
            span("query", 101 * ms, 200 * ms, None),
            span("core.prepare", 101 * ms, 111 * ms, Some(12)),
            span("mining.grouping", 111 * ms, 115 * ms, Some(12)),
            span("mining.miner", 115 * ms, 120 * ms, Some(12)),
            span("mining.treatment", 120 * ms, 150 * ms, Some(12)),
            span("mining.treatment", 150 * ms, 190 * ms, Some(12)),
            span("lpsolve.lp", 190 * ms, 195 * ms, Some(12)),
            span("lpsolve.rounding", 195 * ms, 196 * ms, Some(12)),
            span("core.render", 196 * ms, 198 * ms, Some(12)),
        ];
        let mut values = OpValues::new();
        span_values(&spans, 10, &mut values);
        assert_eq!(values["core.prepare_ms"], 10.0);
        assert_eq!(values["mining.treatment_ms"], 75.0);
        assert_eq!(values["mining.treatment_max_pattern_ms"], 40.0);
        assert_eq!(values["core.prepare_hit_ms"], 1.0);
        assert!(!values.contains_key("core.prepare_miss_ms"));
        assert_eq!(values["serve.handle_ms"], 100.0);
        // 100 − (1 + 4 + 70 + 5 + 1 + 2)
        assert_eq!(values["serve.overhead_ms"], 17.0);
    }
}
