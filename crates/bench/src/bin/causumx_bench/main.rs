//! `causumx_bench` — the repository benchmark.
//!
//! Four closed-loop workloads over the public engine APIs (`table`,
//! `causumx`, `mining`, `causal`, `lpsolve`, `serve`, `datagen`); see the
//! README next to this file for what each one stresses and why.
//!
//! ```text
//! causumx_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE]
//! causumx_bench --compare BASE NEW
//! ```
//!
//! With one workload the run happens in this process: it prints
//! `metric workload value unit` for each metric (end-to-end metrics
//! untraced, per-layer metrics with `--trace 1`), `diag …` lines without
//! bounds, and as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero when any output was wrong.
//! Without `--workload` (or with `all`) it runs every workload once, each
//! in a child process of its own so that peak RSS is the workload's own.
//! `--out` appends one record per run to FILE; `--compare` judges two
//! such files.

mod compare;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use metrics::{diag_line, metric_line, record_json, result_json};
use workloads::Workload;

const USAGE: &str = "usage: causumx_bench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       \
                     causumx_bench --compare BASE NEW\n\
                     workloads: so_exact so_fastv1 synthetic_wide serve_mix";

/// Spans of traced runs are written here, relative to the working
/// directory (the repository root's ignored `target/`).
const TRACE_DIR: &str = "target/causumx_bench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    ),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            "--compare" => {
                let base = value()?.clone();
                let new = value()?.clone();
                args.compare = Some((base, new));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("causumx_bench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return compare::main(base, new);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Run one workload in this process and report it.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let mut outcome = if args.trace {
        let (mut outcome, tracer) = layers::run(w, args.seed, args.seconds);
        let path = format!("{TRACE_DIR}/trace-{}-{}.jsonl", w.name(), args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, tracer.write_jsonl()));
        match written {
            Ok(()) => outcome.diag("spans", tracer.spans().len() as f64, "count", path),
            Err(e) => outcome.error(format!("writing {path}: {e}")),
        }
        outcome
    } else {
        workloads::run(w, args.seed, args.seconds)
    };
    let bad: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !bad.is_empty() {
        outcome.error(format!("metrics without a value: {}", bad.join(", ")));
    }
    if outcome.attempted == 0 {
        outcome.error("no operation was attempted".into());
    }

    for e in &outcome.errors {
        eprintln!("{} check failed: {e}", w.name());
    }
    for m in &outcome.metrics {
        println!("{}", metric_line(w.name(), m));
    }
    for d in &outcome.diags {
        println!("{}", diag_line(w.name(), d));
    }
    let correct = outcome.correct();
    if let Some(path) = &args.out {
        let record = record_json(
            w.name(),
            args.seed,
            args.trace,
            (correct, outcome.attempted, outcome.failed),
            &outcome.metrics,
            &outcome.diags,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("causumx_bench: appending to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("causumx_bench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.args(["--out", out]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("{}: {status}", w.name())),
            Err(e) => failures.push(format!("{}: {e}", w.name())),
        }
    }
    for f in &failures {
        eprintln!("causumx_bench: failed: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn benchmark_arguments_parse() {
        let a = parse(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeMix));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse(&[]).unwrap();
        assert_eq!((a.workload, a.seed, a.out), (None, 42, None));
        assert!(parse(&["--workload", "all"]).unwrap().workload.is_none());
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
