//! Structured reports and their renderings.
//!
//! [`Report`] is the machine-facing output of a run: a plain-data mirror
//! of a [`Summary`] with every pattern resolved to display strings, so
//! bench binaries and service front-ends consume fields instead of
//! scraping rendered text. It serializes itself to JSON with a hand-rolled
//! writer (the core crate stays dependency-free) and renders the paper's
//! Fig. 2 / Fig. 7 natural-language bullets via
//! [`Report::render_text`] — the paper's templates are static text
//! ("Those templates were generated via prompt questions to ChatGPT", §6),
//! which we author directly.
//!
//! The free functions [`render_summary`] and [`summary_json`] are the
//! pre-`Report` entry points, kept as thin wrappers.

use std::fmt::Write as _;

use table::query::AggView;
use table::Table;

use crate::error::Error;
use crate::explanation::{StepTimings, Summary};

/// Render a `p < 10^e` bound like the paper's report lines.
pub fn p_bound(p: f64) -> String {
    if !(p.is_finite()) {
        return "p n/a".to_string();
    }
    if p <= 0.0 {
        return "p < 1e-300".to_string();
    }
    let e = p.log10().ceil() as i32;
    format!("p < 1e{e}")
}

/// One treatment side of a [`ReportExplanation`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTreatment {
    /// Display string of the treatment pattern (`"education = MSc"`).
    pub pattern: String,
    /// Estimated CATE.
    pub cate: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Treated units used by the estimator.
    pub n_treated: usize,
    /// Control units.
    pub n_control: usize,
}

/// One selected explanation, fully resolved to display strings.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportExplanation {
    /// Display string of the grouping pattern (empty for "all groups").
    pub grouping: String,
    /// Labels of the covered output groups, sorted.
    pub groups: Vec<String>,
    /// Top positive treatment, if any.
    pub positive: Option<ReportTreatment>,
    /// Top negative treatment, if any.
    pub negative: Option<ReportTreatment>,
    /// Selection weight `|CATE⁺| + |CATE⁻|`.
    pub weight: f64,
}

/// Structured result of a run: the summary-level metrics plus one
/// [`ReportExplanation`] per selected explanation. Built by
/// [`Report::new`] or [`crate::session::PreparedQuery::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Name of the averaged (outcome) attribute.
    pub outcome: String,
    /// Number of groups in the view, `m`.
    pub m: usize,
    /// Groups covered by the union of selected grouping patterns.
    pub covered: usize,
    /// Whether `covered ≥ ⌈θ·m⌉`.
    pub feasible: bool,
    /// Total explainability Σ w_j.
    pub total_weight: f64,
    /// Candidate explanation patterns fed to selection.
    pub candidates: usize,
    /// Lattice candidates evaluated during treatment mining (see
    /// [`crate::Summary::cate_evaluations`]).
    pub cate_evaluations: usize,
    /// Subset candidates served by incremental Gram downdating
    /// (`NumericMode::FastV1` only).
    pub downdates: usize,
    /// Parented cached-walk candidates that re-gathered instead.
    pub regathers: usize,
    /// Per-phase wall-clock.
    pub timings: StepTimings,
    /// The selected explanations.
    pub explanations: Vec<ReportExplanation>,
}

impl Report {
    /// Resolve a [`Summary`] against its table and view.
    pub fn new(table: &Table, view: &AggView, summary: &Summary, outcome_name: &str) -> Self {
        let explanations = summary
            .explanations
            .iter()
            .map(|e| {
                let mut groups: Vec<String> = e
                    .coverage
                    .iter()
                    .map(|g| view.group_label(table, g))
                    .collect();
                groups.sort();
                let treatment = |t: &mining::treatment::TreatmentResult| ReportTreatment {
                    pattern: t.pattern.display(table),
                    cate: t.cate,
                    p_value: t.p_value,
                    n_treated: t.n_treated,
                    n_control: t.n_control,
                };
                ReportExplanation {
                    grouping: e.grouping.display(table),
                    groups,
                    positive: e.positive.as_ref().map(treatment),
                    negative: e.negative.as_ref().map(treatment),
                    weight: e.weight,
                }
            })
            .collect();
        Report {
            outcome: outcome_name.to_string(),
            m: summary.m,
            covered: summary.covered,
            feasible: summary.feasible,
            total_weight: summary.total_weight,
            candidates: summary.candidates,
            cate_evaluations: summary.cate_evaluations,
            downdates: summary.downdates,
            regathers: summary.regathers,
            timings: summary.timings,
            explanations,
        }
    }

    /// Coverage as a fraction of `m`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.covered as f64 / self.m as f64
        }
    }

    /// Render the Fig. 2-style natural-language bullets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.explanations.is_empty() {
            out.push_str("No explanation patterns satisfied the constraints.\n");
            return out;
        }
        let outcome = &self.outcome;
        for e in &self.explanations {
            let examples: Vec<&str> = e.groups.iter().take(3).map(String::as_str).collect();
            let group_desc = if e.grouping.is_empty() {
                "all groups".to_string()
            } else {
                format!("groups where {}", e.grouping.replace(" AND ", " and "))
            };
            let _ = write!(
                out,
                "\u{2022} For {group_desc} (e.g., {}; {} group{}),",
                examples.join(", "),
                e.groups.len(),
                if e.groups.len() == 1 { "" } else { "s" },
            );
            match &e.positive {
                Some(t) => {
                    let _ = write!(
                        out,
                        " the most substantial effect on high {outcome} (effect size {:.2}, {}) is observed for {}.",
                        t.cate,
                        p_bound(t.p_value),
                        t.pattern.replace(" AND ", " and "),
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        " no statistically significant positive treatment on {outcome} was found.",
                    );
                }
            }
            match &e.negative {
                Some(t) => {
                    let _ = write!(
                        out,
                        " Conversely, {} has the greatest adverse impact on {outcome} (effect size {:.2}, {}).",
                        t.pattern.replace(" AND ", " and "),
                        t.cate,
                        p_bound(t.p_value),
                    );
                }
                None => out.push_str(" No significant adverse treatment was found."),
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "[coverage {}/{} groups, total explainability {:.2}{}]",
            self.covered,
            self.m,
            self.total_weight,
            if self.feasible {
                ""
            } else {
                ", coverage constraint NOT met"
            },
        );
        out
    }

    /// Serialize as JSON. Hand-rolled to keep the core crate
    /// dependency-free; the structure is stable and pinned by tests.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"outcome\":\"{}\",\"m\":{},\"covered\":{},\"feasible\":{},\
             \"total_explainability\":{:.6},\"candidates\":{},\"cate_evaluations\":{},\
             \"downdates\":{},\"regathers\":{},\
             \"timings\":{{\"grouping_ms\":{:.3},\"treatment_ms\":{:.3},\"selection_ms\":{:.3}}},\
             \"explanations\":[",
            json_escape(&self.outcome),
            self.m,
            self.covered,
            self.feasible,
            self.total_weight,
            self.candidates,
            self.cate_evaluations,
            self.downdates,
            self.regathers,
            self.timings.grouping_ms,
            self.timings.treatment_ms,
            self.timings.selection_ms,
        );
        for (i, e) in self.explanations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let groups: Vec<String> = e
                .groups
                .iter()
                .map(|g| format!("\"{}\"", json_escape(g)))
                .collect();
            let _ = write!(
                out,
                "{{\"grouping\":\"{}\",\"groups\":[{}]",
                json_escape(&e.grouping),
                groups.join(",")
            );
            for (key, t) in [("positive", &e.positive), ("negative", &e.negative)] {
                match t {
                    Some(t) => {
                        let _ = write!(
                            out,
                            ",\"{key}\":{{\"pattern\":\"{}\",\"cate\":{:.6},\"p_value\":{:e},\
                             \"n_treated\":{},\"n_control\":{}}}",
                            json_escape(&t.pattern),
                            t.cate,
                            t.p_value,
                            t.n_treated,
                            t.n_control
                        );
                    }
                    None => {
                        let _ = write!(out, ",\"{key}\":null");
                    }
                }
            }
            let _ = write!(out, ",\"weight\":{:.6}}}", e.weight);
        }
        out.push_str("]}");
        out
    }
}

/// Render a whole summary in the Fig. 2 bullet style (wrapper over
/// [`Report::render_text`]).
pub fn render_summary(
    table: &Table,
    view: &AggView,
    summary: &Summary,
    outcome_name: &str,
) -> String {
    Report::new(table, view, summary, outcome_name).render_text()
}

/// Minimal JSON string escaping — exposed so layers composing their own
/// envelopes around [`error_json`] (e.g. the serve crate's HTTP-level
/// errors) escape identically.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize a summary as JSON (wrapper over [`Report::to_json`], naming
/// the outcome after the view's averaged attribute).
pub fn summary_json(table: &Table, view: &AggView, summary: &Summary) -> String {
    let outcome = table.schema().field(view.avg_attr).name.clone();
    Report::new(table, view, summary, &outcome).to_json()
}

/// Serialize an [`Error`] as JSON — the failure-side counterpart of
/// [`summary_json`], so services surfacing query results as JSON can
/// render a tripped lifeguard or an isolated worker panic without
/// string-matching `Display` output. `code` is the stable snake_case tag
/// from [`Error::code`] (`kind` carries the same value for historical
/// consumers); the guard variants attach their limits and the
/// [`mining::QueryProgress`] snapshot.
pub fn error_json(e: &Error) -> String {
    let progress_json = |p: &mining::QueryProgress| {
        format!(
            "{{\"levels_completed\":{},\"cate_evaluations\":{}}}",
            p.levels_completed, p.cate_evaluations
        )
    };
    let mut out = String::from("{\"error\":{");
    // `kind` predates `code`; both carry [`Error::code`] — `kind` for
    // existing consumers, `code` as the documented stable contract.
    let _ = write!(out, "\"kind\":\"{0}\",\"code\":\"{0}\",", e.code());
    match e {
        Error::Cancelled { progress } => {
            let _ = write!(
                out,
                "\"message\":\"{}\",\"progress\":{}",
                json_escape(&e.to_string()),
                progress_json(progress)
            );
        }
        Error::DeadlineExceeded { after_ms, progress } => {
            let _ = write!(
                out,
                "\"message\":\"{}\",\"after_ms\":{},\"progress\":{}",
                json_escape(&e.to_string()),
                after_ms,
                progress_json(progress)
            );
        }
        Error::MemoryBudget {
            budget_mb,
            observed_mb,
            progress,
        } => {
            let _ = write!(
                out,
                "\"message\":\"{}\",\"budget_mb\":{},\
                 \"observed_mb\":{},\"progress\":{}",
                json_escape(&e.to_string()),
                budget_mb,
                observed_mb,
                progress_json(progress)
            );
        }
        Error::Worker { task, payload } => {
            let _ = write!(
                out,
                "\"message\":\"{}\",\"task\":\"{}\",\"payload\":\"{}\"",
                json_escape(&e.to_string()),
                json_escape(task),
                json_escape(payload)
            );
        }
        other => {
            let _ = write!(out, "\"message\":\"{}\"", json_escape(&other.to_string()));
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explanation::Explanation;
    use mining::treatment::TreatmentResult;
    use table::bitset::BitSet;
    use table::pattern::{Pattern, Pred};
    use table::{GroupByAvgQuery, TableBuilder};

    fn setup() -> (Table, AggView, Summary) {
        let table = TableBuilder::new()
            .cat("country", &["FR", "DE", "IN", "IN"])
            .unwrap()
            .cat("continent", &["EU", "EU", "Asia", "Asia"])
            .unwrap()
            .cat("edu", &["MSc", "BSc", "MSc", "BSc"])
            .unwrap()
            .float("salary", vec![90.0, 60.0, 30.0, 20.0])
            .unwrap()
            .build()
            .unwrap();
        let view = GroupByAvgQuery::new(vec![0], 3).run(&table).unwrap();
        let mut cov = BitSet::new(view.num_groups());
        cov.insert(0);
        cov.insert(1);
        let pos = TreatmentResult {
            pattern: Pattern::single(Pred::eq(2, "MSc")),
            cate: 36.0,
            p_value: 4e-4,
            n_treated: 2,
            n_control: 2,
        };
        let e = Explanation::new(Pattern::single(Pred::eq(1, "EU")), cov, Some(pos), None);
        let summary = Summary {
            total_weight: e.weight,
            explanations: vec![e],
            m: 3,
            covered: 2,
            feasible: true,
            candidates: 1,
            cate_evaluations: 10,
            downdates: 4,
            regathers: 2,
            timings: Default::default(),
        };
        (table, view, summary)
    }

    #[test]
    fn renders_fig2_style_bullet() {
        let (table, view, summary) = setup();
        let text = render_summary(&table, &view, &summary, "salary");
        assert!(text.contains("groups where continent = EU"), "{text}");
        assert!(text.contains("edu = MSc"), "{text}");
        assert!(text.contains("effect size 36.00"), "{text}");
        assert!(text.contains("p < 1e-3"), "{text}");
        assert!(text.contains("No significant adverse treatment"), "{text}");
        assert!(text.contains("coverage 2/3"), "{text}");
    }

    #[test]
    fn summary_json_is_valid_shape() {
        let (table, view, summary) = setup();
        let j = summary_json(&table, &view, &summary);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"m\":3"));
        assert!(j.contains("\"covered\":2"));
        assert!(j.contains("\"grouping\":\"continent = EU\""));
        assert!(j.contains("\"negative\":null"));
        assert!(j.contains("\"cate\":36.000000"));
        assert!(j.contains("\"outcome\":\"salary\""));
        assert!(j.contains("\"cate_evaluations\":10"));
        assert!(j.contains("\"downdates\":4"));
        assert!(j.contains("\"regathers\":2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
    }

    #[test]
    fn report_fields_mirror_summary() {
        let (table, view, summary) = setup();
        let report = Report::new(&table, &view, &summary, "salary");
        assert_eq!(report.m, summary.m);
        assert_eq!(report.covered, summary.covered);
        assert_eq!(report.candidates, 1);
        assert_eq!(report.explanations.len(), 1);
        let e = &report.explanations[0];
        assert_eq!(e.grouping, "continent = EU");
        assert_eq!(e.groups, vec!["DE".to_string(), "FR".to_string()]);
        let pos = e.positive.as_ref().unwrap();
        assert_eq!(pos.pattern, "edu = MSc");
        assert_eq!(pos.cate, 36.0);
        assert!(e.negative.is_none());
        assert!((report.coverage_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn p_bound_formats() {
        assert_eq!(p_bound(4e-4), "p < 1e-3");
        assert_eq!(p_bound(0.04), "p < 1e-1");
        assert_eq!(p_bound(1e-12), "p < 1e-12");
        assert_eq!(p_bound(0.0), "p < 1e-300");
    }

    #[test]
    fn empty_summary_message() {
        let (table, view, mut summary) = setup();
        summary.explanations.clear();
        let text = render_summary(&table, &view, &summary, "salary");
        assert!(text.contains("No explanation patterns"));
    }

    #[test]
    fn error_json_covers_guard_variants() {
        let progress = mining::QueryProgress {
            levels_completed: 2,
            cate_evaluations: 523,
        };
        let j = error_json(&Error::DeadlineExceeded {
            after_ms: 1500,
            progress,
        });
        assert!(j.contains("\"kind\":\"deadline_exceeded\""), "{j}");
        assert!(j.contains("\"code\":\"deadline_exceeded\""), "{j}");
        assert!(j.contains("\"after_ms\":1500"), "{j}");
        assert!(j.contains("\"levels_completed\":2"), "{j}");
        assert!(j.contains("\"cate_evaluations\":523"), "{j}");

        let j = error_json(&Error::MemoryBudget {
            budget_mb: 64,
            observed_mb: 66,
            progress,
        });
        assert!(j.contains("\"kind\":\"memory_budget\""), "{j}");
        assert!(j.contains("\"budget_mb\":64"), "{j}");

        let j = error_json(&Error::Worker {
            task: "pattern 1 level 2 chunk 0".into(),
            payload: "boom \"quoted\"".into(),
        });
        assert!(j.contains("\"kind\":\"worker_panic\""), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "{j}");

        let j = error_json(&Error::Cancelled { progress });
        assert!(j.contains("\"kind\":\"cancelled\""), "{j}");

        let j = error_json(&Error::EmptyView);
        assert!(j.contains("\"kind\":\"empty_view\""), "{j}");
        assert!(j.contains("\"code\":\"empty_view\""), "{j}");

        // Every variant stays balanced.
        for j in [
            error_json(&Error::InvalidQuery("no group-by".into())),
            error_json(&Error::Sql {
                pos: 3,
                msg: "bad token".into(),
            }),
        ] {
            let braces: i64 = j
                .chars()
                .map(|c| match c {
                    '{' => 1,
                    '}' => -1,
                    _ => 0,
                })
                .sum();
            assert_eq!(braces, 0, "{j}");
        }
    }
}
