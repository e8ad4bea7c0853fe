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

use std::fmt::Write as _;

use mining::{MineError, QueryProgress};
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
    /// Parented candidates that re-gathered instead.
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

/// Minimal JSON string escaping.
fn json_escape(s: &str) -> String {
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

/// The value of one extra field of an [`error_envelope`].
#[derive(Debug, Clone, Copy)]
pub enum ErrorField<'a> {
    /// A JSON number.
    Count(u64),
    /// A JSON string, escaped on write.
    Text(&'a str),
    /// How far a stopped run got, as
    /// `{"levels_completed":…,"cate_evaluations":…}`.
    Progress(QueryProgress),
}

/// Write an error envelope: `{"error":{"code":…,"message":…}}`, with
/// `fields` appended in order after `message`. Every error body the
/// engine and the service send is written here — engine errors through
/// [`error_json`], HTTP-level and transport errors by the serve crate —
/// so all of them share one shape and one escaping. `code` is a stable
/// snake_case tag that clients branch on, never the message.
pub fn error_envelope(code: &str, message: &str, fields: &[(&str, ErrorField<'_>)]) -> String {
    let mut out = format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"",
        json_escape(code),
        json_escape(message)
    );
    for (name, value) in fields {
        let _ = write!(out, ",\"{}\":", json_escape(name));
        let _ = match value {
            ErrorField::Count(n) => write!(out, "{n}"),
            ErrorField::Text(s) => write!(out, "\"{}\"", json_escape(s)),
            ErrorField::Progress(p) => write!(
                out,
                "{{\"levels_completed\":{},\"cate_evaluations\":{}}}",
                p.levels_completed, p.cate_evaluations
            ),
        };
    }
    out.push_str("}}");
    out
}

/// Serialize an [`Error`] as its [`error_envelope`] — the failure-side
/// counterpart of [`Report::to_json`], so services surfacing query
/// results as JSON can render a tripped lifeguard or an isolated worker
/// panic without string-matching `Display` output. `code` is
/// [`Error::code`]; a stopped run ([`Error::Run`]) also carries its
/// limits and its [`QueryProgress`] snapshot, or the failed task and its
/// payload.
pub fn error_json(e: &Error) -> String {
    use ErrorField::{Count, Progress, Text};
    let fields: &[(&str, ErrorField<'_>)] = match e {
        Error::Run(MineError::Cancelled { progress }) => &[("progress", Progress(*progress))],
        Error::Run(MineError::DeadlineExceeded { after_ms, progress }) => &[
            ("after_ms", Count(*after_ms)),
            ("progress", Progress(*progress)),
        ],
        Error::Run(MineError::MemoryBudget {
            budget_mb,
            observed_mb,
            progress,
        }) => &[
            ("budget_mb", Count(*budget_mb)),
            ("observed_mb", Count(*observed_mb)),
            ("progress", Progress(*progress)),
        ],
        Error::Run(MineError::Worker { task, payload }) => {
            &[("task", Text(task)), ("payload", Text(payload))]
        }
        _ => &[],
    };
    error_envelope(e.code(), &e.to_string(), fields)
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
        let text = Report::new(&table, &view, &summary, "salary").render_text();
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
        let j = Report::new(&table, &view, &summary, "salary").to_json();
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
        let text = Report::new(&table, &view, &summary, "salary").render_text();
        assert!(text.contains("No explanation patterns"));
    }

    #[test]
    fn error_json_covers_guard_variants() {
        let progress = mining::QueryProgress {
            levels_completed: 2,
            cate_evaluations: 523,
        };
        let run = |e: MineError| error_json(&Error::Run(e));
        // Each run failure's whole body: code, message wording, limits in
        // ms and MiB, and the progress snapshot.
        let progress_json = "\"progress\":{\"levels_completed\":2,\"cate_evaluations\":523}";
        assert_eq!(
            run(MineError::DeadlineExceeded {
                after_ms: 1500,
                progress
            }),
            format!(
                "{{\"error\":{{\"code\":\"deadline_exceeded\",\
                 \"message\":\"deadline of 1500 ms exceeded after 2 levels / 523 CATE evaluations\",\
                 \"after_ms\":1500,{progress_json}}}}}"
            )
        );
        assert_eq!(
            run(MineError::MemoryBudget {
                budget_mb: 64,
                observed_mb: 66,
                progress
            }),
            format!(
                "{{\"error\":{{\"code\":\"memory_budget\",\
                 \"message\":\"memory budget of 64 MiB exceeded (66 MiB observed) after 2 levels / 523 CATE evaluations\",\
                 \"budget_mb\":64,\"observed_mb\":66,{progress_json}}}}}"
            )
        );
        assert_eq!(
            run(MineError::Worker {
                task: "pattern 1 level 2 chunk 0".into(),
                payload: "boom \"quoted\"".into(),
            }),
            "{\"error\":{\"code\":\"worker_panic\",\
             \"message\":\"worker task 'pattern 1 level 2 chunk 0' panicked: boom \\\"quoted\\\"\",\
             \"task\":\"pattern 1 level 2 chunk 0\",\"payload\":\"boom \\\"quoted\\\"\"}}"
        );
        assert_eq!(
            run(MineError::Cancelled { progress }),
            format!(
                "{{\"error\":{{\"code\":\"cancelled\",\
                 \"message\":\"query cancelled after 2 levels / 523 CATE evaluations\",\
                 {progress_json}}}}}"
            )
        );
        assert_eq!(
            error_json(&Error::EmptyView),
            "{\"error\":{\"code\":\"empty_view\",\"message\":\"aggregate view is empty\"}}"
        );

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
