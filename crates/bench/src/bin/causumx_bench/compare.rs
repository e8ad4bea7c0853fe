//! `--compare BASE NEW`: decide, for every (end-to-end metric, workload)
//! pair, whether NEW improved on BASE, left it unchanged, regressed it or
//! cannot tell.
//!
//! Both files hold run records, one JSON object per line, as `--out`
//! appends them. Records are paired in file order within a workload, so
//! run both sides with the same seeds, alternating which side goes first.
//! The rule:
//!
//! * fewer than [`MIN_RUNS`] runs on either side: **unresolved**;
//! * NEW wins at least nine tenths of the pairs (ties count for neither)
//!   and the medians differ by more than BASE's own quartile spread:
//!   **improved**;
//! * NEW's median is worse than BASE's by more than the metric's bound:
//!   **regressed**;
//! * BASE's quartile spread is wider than the bound, unless every NEW run
//!   beats every BASE run: **unresolved**;
//! * otherwise **unchanged**.
//!
//! The failed fraction (failed / attempted over all runs) is compared
//! exactly: any increase is a regression.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::metrics::{json_field, Better, END_TO_END};
use crate::stats;

pub const MIN_RUNS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The evidence behind a verdict on one (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    /// `(q1, median, q3)` of each side, when it has two or more runs.
    pub base: Option<(f64, f64, f64)>,
    pub new: Option<(f64, f64, f64)>,
    /// Pairs NEW won, of pairs compared.
    pub won: usize,
    pub pairs: usize,
}

/// Apply the rule in the module docs to one metric's runs.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Judgement {
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = base.len().min(new.len());
    let won = base
        .iter()
        .zip(new)
        .filter(|(b, n)| beats(**n, **b))
        .count();
    let (bq, nq) = (stats::quartiles(base), stats::quartiles(new));
    let mut j = Judgement {
        verdict: Verdict::Unresolved,
        base: bq,
        new: nq,
        won,
        pairs,
    };
    let (Some((b1, bmed, b3)), Some((_, nmed, _))) = (bq, nq) else {
        return j;
    };
    if base.len() < MIN_RUNS || new.len() < MIN_RUNS {
        return j;
    }
    let worse_by = match better {
        Better::Lower => (nmed - bmed) / bmed.abs(),
        Better::Higher => (bmed - nmed) / bmed.abs(),
    };
    let all_beat = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    j.verdict = if won * 10 >= pairs * 9 && beats(nmed, bmed) && (nmed - bmed).abs() > b3 - b1 {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if (b3 - b1) / bmed.abs() > bound && !all_beat {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    j
}

/// The failed fraction is compared exactly.
pub fn judge_failures(base: (f64, f64), new: (f64, f64)) -> Verdict {
    let frac = |(failed, attempted): (f64, f64)| failed / attempted.max(1.0);
    let (b, n) = (frac(base), frac(new));
    if n > b {
        Verdict::Regressed
    } else if n < b {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Untraced runs of one file: workload → (metric → values in file order,
/// (failed, attempted) summed).
type Runs = BTreeMap<String, (BTreeMap<&'static str, Vec<f64>>, (f64, f64))>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(&text, path)
}

/// Read the records `--out` wrote (see `metrics::record_json`).
fn parse_runs(text: &str, path: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let field =
            |k: &str| json_field(line, k).ok_or_else(|| format!("{path}:{}: no `{k}`", n + 1));
        if field("trace")? == "true" {
            continue;
        }
        let count = |k: &str| {
            field(k)?
                .parse::<f64>()
                .map_err(|_| format!("{path}:{}: `{k}` is not a number", n + 1))
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let entry = runs.entry(field("workload")?.to_string()).or_default();
        entry.1 .0 += failed;
        entry.1 .1 += attempted;
        // The metrics object ends where the diagnostics begin.
        let metrics = line.split("\"diagnostics\":").next().unwrap_or(line);
        for m in &END_TO_END {
            let Some(at) = metrics.find(&format!("\"{}\":", m.name)) else {
                continue;
            };
            // A value that was not measured is written as null.
            if let Some(v) = json_field(&metrics[at..], "value").and_then(|v| v.parse().ok()) {
                entry.0.entry(m.name).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn fmt_side(q: Option<(f64, f64, f64)>, n: usize) -> String {
    match q {
        Some((q1, med, q3)) => format!("{med:.4} [{q1:.4}, {q3:.4}] (n={n})"),
        None => format!("- (n={n})"),
    }
}

/// Entry point of `--compare`. Exit status 1 when anything regressed.
pub fn main(base_path: &str, new_path: &str) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    for (workload, (base_metrics, base_fail)) in &base {
        let Some((new_metrics, new_fail)) = new.get(workload) else {
            println!("{workload}: missing from {new_path}");
            continue;
        };
        for m in &END_TO_END {
            let empty = Vec::new();
            let b = base_metrics.get(m.name).unwrap_or(&empty);
            let n = new_metrics.get(m.name).unwrap_or(&empty);
            let j = judge(b, n, m.better, m.bound);
            regressed |= j.verdict == Verdict::Regressed;
            println!(
                "{} {workload} ({}): base {}, new {}, new better in {}/{} pairs, bound {:+}%: {}",
                m.name,
                m.unit,
                fmt_side(j.base, b.len()),
                fmt_side(j.new, n.len()),
                j.won,
                j.pairs,
                m.bound * 100.0,
                j.verdict.as_str()
            );
        }
        let v = judge_failures(*base_fail, *new_fail);
        regressed |= v == Verdict::Regressed;
        println!(
            "failed_frac {workload}: base {}/{}, new {}/{}: {}",
            base_fail.0,
            base_fail.1,
            new_fail.0,
            new_fail.1,
            v.as_str()
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        // Ten runs spread evenly over center ± jitter.
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        let j = judge(&runs(100.0, 2.0), &runs(80.0, 2.0), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.won, j.pairs), (10, 10));
    }

    #[test]
    fn small_shift_within_bound_is_unchanged() {
        let j = judge(&runs(100.0, 2.0), &runs(103.0, 2.0), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Unchanged);
        // Better on every pair, but by less than the base spread: not a
        // gain.
        let base = runs(100.0, 5.0);
        let new: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        assert_eq!(
            judge(&base, &new, Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn slowdown_beyond_bound_is_regressed() {
        let j = judge(&runs(100.0, 2.0), &runs(115.0, 2.0), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Regressed);
        // Direction matters: for a higher-is-better metric the same drop
        // is a regression.
        let j = judge(&runs(100.0, 2.0), &runs(85.0, 2.0), Better::Higher, 0.10);
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn noisy_or_short_samples_are_unresolved() {
        // Base spread (±30 %) is wider than the 10 % bound.
        let j = judge(&runs(100.0, 40.0), &runs(101.0, 40.0), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ... unless every new run beats every base run.
        let j = judge(&runs(100.0, 40.0), &runs(30.0, 5.0), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Improved);
        // Fewer than ten runs a side.
        let j = judge(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Unresolved);
    }

    #[test]
    fn failed_fraction_is_exact() {
        assert_eq!(
            judge_failures((0.0, 100.0), (0.0, 90.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge_failures((0.0, 100.0), (1.0, 100.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge_failures((2.0, 100.0), (1.0, 100.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn records_load_untraced_runs_only() {
        use crate::metrics::{record_json, Diag, Metric};
        let rec = |v: f64, trace: bool| {
            let metrics = [
                Metric {
                    name: "query_p50_ms",
                    value: v,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: f64::NAN,
                    unit: "s",
                },
            ];
            // A diagnostic named like a metric is not read as one.
            let diag = Diag {
                name: "setup_s".into(),
                value: 4.0,
                unit: "s",
                note: String::new(),
            };
            record_json("so_exact", 1, trace, (true, 10, 0), &metrics, &[diag]) + "\n"
        };
        let text = rec(1.5, false) + &rec(9.0, true) + "\n" + &rec(2.5, false);
        let runs = parse_runs(&text, "runs.jsonl").unwrap();
        let (metrics, fail) = &runs["so_exact"];
        assert_eq!(metrics["query_p50_ms"], vec![1.5, 2.5]);
        assert!(!metrics.contains_key("setup_s"));
        assert_eq!(*fail, (0.0, 20.0));
        assert!(parse_runs("{\"workload\": 1", "bad.jsonl").is_err());
        assert!(parse_runs(&rec(1.0, false).replace("10", "x"), "bad.jsonl").is_err());
    }
}
