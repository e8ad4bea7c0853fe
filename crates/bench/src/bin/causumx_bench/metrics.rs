//! The metric catalogue (mirrored by `BENCHMARK.json` at the repository
//! root) and the output formats.

use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Reported by every workload with `--trace 1`: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 31] = [
    ("table.view_ms", "ms", Better::Lower),
    ("core.prepare_ms", "ms", Better::Lower),
    ("core.prepare_hit_ms", "ms", Better::Lower),
    ("core.prepare_miss_ms", "ms", Better::Lower),
    ("core.backdoor_walks", "count", Better::Lower),
    ("core.render_ms", "ms", Better::Lower),
    ("mining.apriori_ms", "ms", Better::Lower),
    ("mining.grouping_ms", "ms", Better::Lower),
    ("mining.grouping_patterns", "count", Better::Lower),
    ("mining.treatment_ms", "ms", Better::Lower),
    ("mining.treatment_max_pattern_ms", "ms", Better::Lower),
    ("mining.cate_evaluations", "count", Better::Lower),
    ("mining.levels", "count", Better::Lower),
    ("mining.contexts_built", "count", Better::Lower),
    ("mining.downdates", "count", Better::Higher),
    ("mining.regathers", "count", Better::Lower),
    ("mining.downdate_ratio", "fraction", Better::Higher),
    ("causal.panel_build_ms", "ms", Better::Lower),
    ("causal.panel_attrs_built", "count", Better::Lower),
    ("causal.panel_pairs_built", "count", Better::Lower),
    ("causal.estimate_us", "us", Better::Lower),
    ("lpsolve.lp_ms", "ms", Better::Lower),
    ("lpsolve.rounding_ms", "ms", Better::Lower),
    ("lpsolve.candidates", "count", Better::Lower),
    ("lpsolve.groups", "count", Better::Lower),
    ("serve.handle_ms", "ms", Better::Lower),
    ("serve.overhead_ms", "ms", Better::Lower),
    ("serve.cache_hit_rate", "fraction", Better::Higher),
    ("serve.cache_evictions", "count", Better::Lower),
    ("serve.rejected", "count", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A diagnostic: printed and recorded, but without a bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form context, e.g. the sample count behind a percentile.
    pub note: String,
}

/// `metric workload value unit`, the value with all its digits.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    format!("{} {workload} {} {}", m.name, m.value, m.unit)
}

/// `diag workload name value unit [note]`.
pub fn diag_line(workload: &str, d: &Diag) -> String {
    let mut line = format!("diag {workload} {} {} {}", d.name, d.value, d.unit);
    if !d.note.is_empty() {
        line.push(' ');
        line.push_str(&d.note);
    }
    line
}

fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The value of the first `"key":` in a JSON text of scalar fields, such
/// as a `--out` record or the serve layer's `/stats` body: the text up to
/// the next `,` or `}`, without quotes. Enough for the flat documents
/// this benchmark reads back; not a JSON parser.
pub fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = text[text.find(&pattern)? + pattern.len()..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_end().trim_matches('"'))
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result object printed as the last line of a single-workload run.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// One line of a `--out` file: the result plus what produced it and the
/// diagnostics. `--compare` reads files of these.
pub fn record_json(
    workload: &str,
    seed: u64,
    trace: bool,
    result: (bool, usize, usize),
    metrics: &[Metric],
    diags: &[Diag],
) -> String {
    let (correct, attempted, failed) = result;
    let mut d = String::from("{");
    for (i, diag) in diags.iter().enumerate() {
        if i > 0 {
            d.push_str(", ");
        }
        let _ = write!(
            d,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
            escape(&diag.name),
            number(diag.value),
            diag.unit,
            escape(&diag.note)
        );
    }
    d.push('}');
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}, \"diagnostics\": {d}}}",
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    #[test]
    fn metric_line_format() {
        assert_eq!(
            metric_line("so_exact", &m("query_p50_ms", 236.123456789, "ms")),
            "query_p50_ms so_exact 236.123456789 ms"
        );
        assert_eq!(
            metric_line("serve_mix", &m("peak_rss_mb", 41.0, "MiB")),
            "peak_rss_mb serve_mix 41 MiB"
        );
        let d = Diag {
            name: "query_p75_ms".into(),
            value: 250.5,
            unit: "ms",
            note: "samples=42 beyond=10".into(),
        };
        assert_eq!(
            diag_line("so_exact", &d),
            "diag so_exact query_p75_ms 250.5 ms samples=42 beyond=10"
        );
    }

    #[test]
    fn result_and_record_are_json() {
        let ms = [m("query_p50_ms", 1.25, "ms"), m("setup_s", 0.5, "s")];
        let line = result_json(true, 40, 0, &ms);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // A value that is not a number never produces invalid JSON.
        assert_eq!(
            result_json(false, 1, 1, &[m("x", f64::NAN, "ms")]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": \
             {\"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );

        let diag = Diag {
            name: "wall_s".into(),
            value: 12.5,
            unit: "s",
            note: "say \"hi\"".into(),
        };
        let rec = record_json("so_exact", 42, false, (true, 40, 0), &ms, &[diag]);
        assert_eq!(
            rec,
            "{\"workload\": \"so_exact\", \"seed\": 42, \"trace\": false, \"correct\": true, \
             \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}, \"diagnostics\": \
             {\"wall_s\": {\"value\": 12.5, \"unit\": \"s\", \"note\": \"say \\\"hi\\\"\"}}}"
        );
    }

    #[test]
    fn json_field_reads_flat_values() {
        let rec = record_json("so_fastv1", 7, true, (false, 12, 3), &[], &[]);
        assert_eq!(json_field(&rec, "workload"), Some("so_fastv1"));
        assert_eq!(json_field(&rec, "trace"), Some("true"));
        assert_eq!(json_field(&rec, "failed"), Some("3"));
        assert_eq!(json_field(&rec, "missing"), None);
        // The serve layer's `/stats` body has no spaces and nested objects.
        let stats = "{\"requests\":5,\"rejected_saturated\":1,\"prepared_cache\":\
                     {\"len\":2,\"evictions\":0}}";
        assert_eq!(json_field(stats, "rejected_saturated"), Some("1"));
        assert_eq!(json_field(stats, "evictions"), Some("0"));
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, with the same units, directions and bounds.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = include_str!("../../../../../BENCHMARK.json");
        let mut entries: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()))
            .collect();
        for m in &END_TO_END {
            entries.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                direction(m.better),
                m.bound
            ));
        }
        for (name, unit, better) in &PER_LAYER {
            entries.push(format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                direction(*better)
            ));
        }
        // Every entry appears, in catalogue order, and there are no others.
        let mut from = 0;
        for e in &entries {
            let at = doc[from..].find(e.as_str());
            assert!(at.is_some(), "BENCHMARK.json lacks (or misorders) {e}");
            from += at.unwrap_or(0) + e.len();
        }
        assert_eq!(doc.matches("{\"name\": ").count(), entries.len());
    }
}
