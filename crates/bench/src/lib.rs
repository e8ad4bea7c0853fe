//! # bench — shared experiment harness
//!
//! Utilities used by the per-figure experiment binaries in `src/bin/`:
//! markdown/CSV emitters, wall-clock timing, strict flag parsing (every
//! binary accepts `--scale small|paper` and `--seed N`, and rejects
//! anything else with a usage line and exit status 2), and the standard
//! §6.1 configuration (k = 5, θ = 0.75, τ = 0.1).
//!
//! Each binary prints the same rows/series its paper artifact reports and
//! writes a machine-readable copy under `results/`.

pub mod workloads;

use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use causumx::CausumxConfig;
use datagen::ScaleProfile;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Dataset scale profile.
    pub scale: ScaleProfile,
    /// Scale label ("small"/"paper") for output headers.
    pub scale_name: String,
    /// Seed for data generation and randomized steps.
    pub seed: u64,
}

impl ExpOptions {
    /// Parse `--scale small|paper` and `--seed N` (defaults `small` and
    /// 42) from this process's arguments. Any other argument, or a value
    /// that does not parse, prints the usage line and exits with status 2.
    pub fn from_args() -> Self {
        parse_args_or_exit("[--scale small|paper] [--seed N]", Self::parse)
    }

    /// Parse an argument list without the program name.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let flags = Flags::parse(args, &[], &["--scale", "--seed"])?;
        let scale_name = flags.value("--scale").unwrap_or("small");
        let scale = match scale_name {
            "small" => ScaleProfile::small(),
            "paper" => ScaleProfile::paper(),
            other => return Err(format!("unknown --scale `{other}` (small|paper)")),
        };
        Ok(ExpOptions {
            scale,
            scale_name: scale_name.to_string(),
            seed: flags.parsed("--seed", 42)?,
        })
    }
}

/// Command-line flags parsed against the flags one binary accepts: an
/// unknown argument or a valued flag without its value is an error, and so
/// is a value that [`Flags::parsed`] cannot parse, never a silent default.
#[derive(Debug)]
pub struct Flags {
    /// `(flag, value)` in command-line order; a switch has no value.
    seen: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse `args` (without the program name): each of `switches` stands
    /// alone, and each of `valued` takes the next argument as its value.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Self, String> {
        let mut seen = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = if valued.contains(&flag.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                Some(value.clone())
            } else if switches.contains(&flag.as_str()) {
                None
            } else {
                return Err(format!("unknown argument `{flag}`"));
            };
            seen.push((flag.clone(), value));
        }
        Ok(Flags { seen })
    }

    /// Was the switch `name` given?
    pub fn has(&self, name: &str) -> bool {
        self.seen.iter().any(|(flag, _)| flag == name)
    }

    /// The value of the last `name` given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.seen.iter().rev().find(|(flag, _)| flag == name)?;
        value.as_deref()
    }

    /// The value of the last `name` given, parsed, or `default` when the
    /// flag is absent.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{name} `{v}`: {e}"))
        })
    }
}

/// Run `parse` on this process's arguments (without the program name).
/// On an error, print it and the usage line `usage: <program> <flags>` to
/// stderr and exit with status 2.
pub fn parse_args_or_exit<T>(flags: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let program = Path::new(&program)
        .file_name()
        .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
    let args: Vec<String> = args.collect();
    parse(&args).unwrap_or_else(|e| {
        eprintln!("{program}: {e}\nusage: {program} {flags}");
        std::process::exit(2)
    })
}

/// The paper's default configuration (§6.1).
pub fn paper_config() -> CausumxConfig {
    CausumxConfig::default()
}

/// Bind a generated dataset to a [`causumx::Session`] under `config`,
/// cloning the table and DAG so the [`datagen::Dataset`] stays usable for
/// labels, schema lookups and re-binding under other configurations.
pub fn session_for(ds: &datagen::Dataset, config: CausumxConfig) -> causumx::Session {
    causumx::Session::new(ds.table.clone(), ds.dag.clone(), config)
}

/// Time a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

// The VmHWM probe moved into the engine (`mining::sched::guard`) when
// per-query memory budgets started sampling it; re-exported here so the
// experiment binaries keep one canonical implementation.
pub use mining::sched::guard::{peak_rss_bytes, peak_rss_mb};

/// A simple column-aligned markdown table builder.
#[derive(Debug, Default)]
pub struct Report {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report with column names.
    pub fn new(header: &[&str]) -> Self {
        Report {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Render as a markdown table.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Render as CSV.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.join(","));
        }
        out
    }

    /// Print the markdown table and also save CSV under `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.markdown());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if std::fs::write(&path, self.csv()).is_ok() {
                eprintln!("[saved {}]", path.display());
            }
        }
    }
}

/// `results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → ../../results
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Format a float with fixed precision, trimming noise.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_markdown_and_csv() {
        let mut r = Report::new(&["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        let md = r.markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = r.csv();
        assert!(csv.starts_with("a,b\n1,2"));
    }

    #[test]
    fn timed_measures() {
        let (v, ms) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(ms >= 4.0);
    }

    /// The experiment binaries' parser accepts its two flags in any order
    /// and rejects unknown flags, unknown scales, unparsable seeds and a
    /// flag without its value; switches and other valued flags parse
    /// against the lists they are given.
    #[test]
    fn flags_are_parsed_strictly() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = ExpOptions::parse(&[]).unwrap();
        assert_eq!((o.scale_name.as_str(), o.seed), ("small", 42));
        let o = ExpOptions::parse(&args("--seed 7 --scale paper")).unwrap();
        assert_eq!((o.scale_name.as_str(), o.seed), ("paper", 7));
        for bad in [
            "--scale Paper",
            "--scale bogus",
            "--seed 4x",
            "--seed -1",
            "--seed",
            "--bogus",
            "--scale small extra",
        ] {
            assert!(ExpOptions::parse(&args(bad)).is_err(), "{bad} accepted");
        }

        let (switches, valued) = (["--quick", "--matrix"], ["--seed", "--out", "--baseline"]);
        let f = Flags::parse(&args("--quick --out a --out b"), &switches, &valued).unwrap();
        assert!(f.has("--quick") && !f.has("--matrix"));
        assert_eq!(f.value("--out"), Some("b"));
        assert_eq!(f.value("--baseline"), None);
        assert_eq!(f.parsed("--seed", 42u64), Ok(42));
        let err = Flags::parse(&args("--quick --baselin x"), &switches, &valued).unwrap_err();
        assert!(err.contains("--baselin"), "{err}");
    }

    #[test]
    fn fmt_digits() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn peak_rss_is_positive_and_monotone_on_linux() {
        if cfg!(target_os = "linux") {
            let before = peak_rss_bytes().expect("VmHWM available on Linux");
            assert!(before > 0);
            // Touch a few MB so the high-water mark cannot shrink.
            let buf = vec![1u8; 4 << 20];
            std::hint::black_box(&buf);
            let after = peak_rss_bytes().unwrap();
            assert!(
                after >= before,
                "high-water mark regressed: {before} -> {after}"
            );
        }
    }
}
