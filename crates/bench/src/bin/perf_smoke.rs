//! `perf_smoke` — the deterministic counter and weight pins of the
//! pipeline.
//!
//! Runs the full CauSumX pipeline (grouping mining → treatment mining →
//! selection) on the seeded Stack-Overflow-shaped generator at three
//! sizes with the fixed representative query (`GROUP BY Country,
//! AVG(Salary)`), plus a million-row synthetic point, and writes each
//! run's work counters, total weight, per-step clocks and peak RSS to
//! `results/bench_pipeline.json`. The counters and weights are the pins;
//! the clocks are single best-of-3 reads. Timing questions go to
//! `causumx_bench`, the harness `BENCHMARK.json` runs, which reports
//! medians and spread.
//!
//! Flags (any other argument, or a value that does not parse, prints the
//! usage line and exits with status 2):
//!
//! * `--quick` — smallest size only, one repetition, no million-row
//!   point (the CI smoke gate),
//! * `--seed N` — data seed (default 42),
//! * `--out PATH` — JSON output path (default `results/bench_pipeline.json`),
//! * `--baseline PATH` — a JSON file produced by an earlier `perf_smoke`
//!   run. Every deterministic field of each matching size entry
//!   (including the million-row scale point) is hard-asserted against
//!   it: `cate_evaluations`, `candidates`, `covered`, `groups` and
//!   `total_weight` (to the file's 1e-6 precision). A baseline that
//!   cannot be read or holds no size entry is fatal,
//! * `--matrix` — additionally run the committed workload matrix
//!   ([`bench::workloads`]): five datasets × three query shapes ×
//!   {Exact, FastV1}, each cell at `threads = 1` and `threads = 0`
//!   (auto). Emits a `matrix` JSON section with one cell per line —
//!   per-cell clocks, work counters and `downdates`/`regathers` — which
//!   `tests/workload_matrix.rs` pins fingerprint by
//!   fingerprint. Within a cell the two thread legs are hard-asserted
//!   bit-identical, and each FastV1 cell is hard-asserted against its
//!   Exact sibling (equal counters, total weight within 1e-9 relative).
//!
//! Peak RSS (`VmHWM`, via [`bench::peak_rss_bytes`]) is recorded as a
//! first-class metric: each per-size entry and each scale point carries
//! `peak_rss_mb`. The value is a *process-wide* high-water mark, so
//! within one invocation it is monotone across the ascending sizes — a
//! per-size reading attributes the peak up to that point, which is what
//! a memory-regression gate needs. Matrix cells carry none: the matrix
//! runs after the million-row point, whose peak every cell would read.
//!
//! Each per-size entry also records `ns_per_row_estimate` — treatment
//! nanoseconds divided by (rows × CATE evaluations), the size-free cost
//! of one row's worth of one estimation, comparable across sizes.
//!
//! Timings are wall-clock and machine-dependent; `cate_evaluations`,
//! candidate counts, coverage, group counts and total weight are
//! deterministic for a fixed seed, and `--baseline` holds them to the
//! committed artifact.

use std::fmt::Write as _;

use bench::{fmt, results_dir, Flags, Report};
use causumx::{CausumxConfig, Session};
use datagen::so;

/// One measured pipeline run.
struct SizePoint {
    n: usize,
    grouping_ms: f64,
    treatment_ms: f64,
    selection_ms: f64,
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    m: usize,
    total_weight: f64,
    /// Process peak RSS after this size's runs (MiB); `None` off Linux.
    peak_rss_mb: Option<f64>,
}

fn main() {
    let (flags, seed) = bench::parse_args_or_exit(
        "[--quick] [--matrix] [--seed N] [--out PATH] [--baseline PATH]",
        |args| {
            let flags = Flags::parse(
                args,
                &["--quick", "--matrix"],
                &["--seed", "--out", "--baseline"],
            )?;
            let seed: u64 = flags.parsed("--seed", 42)?;
            Ok((flags, seed))
        },
    );
    let quick = flags.has("--quick");
    let matrix = flags.has("--matrix");
    let out_path = flags.value("--out");
    let baseline_path = flags.value("--baseline");

    let sizes: &[usize] = if quick {
        &[4_000]
    } else {
        &[4_000, 12_000, 30_000]
    };
    let reps = if quick { 1 } else { 3 };

    let mut points: Vec<SizePoint> = Vec::new();
    for &n in sizes {
        let ds = so::generate(n, seed);
        let query = ds.query();
        // Best-of-`reps` to damp scheduler noise; counters are identical
        // across repetitions (same seed, deterministic pipeline). Each
        // repetition gets a *fresh* session so every cache (FD split,
        // backdoor memo, prepared state) is cold — the per-size table
        // stays comparable to the pre-session engine's per-call cost.
        let mut best: Option<SizePoint> = None;
        for _ in 0..reps {
            let session = Session::new(ds.table.clone(), ds.dag.clone(), CausumxConfig::default());
            let summary = session
                .prepare(query.clone())
                .expect("pipeline must run on generated data")
                .run();
            let p = size_point(n, &summary);
            if best
                .as_ref()
                .is_none_or(|b| p.treatment_ms < b.treatment_ms)
            {
                best = Some(p);
            }
        }
        let mut best = best.expect("at least one repetition");
        best.peak_rss_mb = bench::peak_rss_mb();
        points.push(best);
    }

    // Million-row scale sweep (synthetic generator; skipped in --quick).
    let scale_points = if quick {
        Vec::new()
    } else {
        vec![run_million_rows(seed)]
    };

    // Workload matrix: dataset × shape × mode grid (behind --matrix).
    let matrix_points = if matrix {
        Some(run_matrix(seed, quick))
    } else {
        None
    };

    let prior = baseline_path.map(read_prior_sizes).unwrap_or_default();
    // The rework contract: identical work counters and bit-identical
    // summaries (the baseline stores total_weight at 1e-6 precision, so
    // that is the strongest cross-artifact check available).
    for p in points.iter().chain(&scale_points) {
        if let Some(prev) = prior.iter().find(|b| b.n == p.n) {
            for (field, got, want) in [
                (
                    "cate_evaluations",
                    p.cate_evaluations,
                    prev.cate_evaluations,
                ),
                ("candidates", p.candidates, prev.candidates),
                ("covered", p.covered, prev.covered),
                ("groups", p.m, prev.groups),
            ] {
                assert_eq!(got, want, "{field} changed at n={} vs baseline", p.n);
            }
            assert!(
                (p.total_weight - prev.total_weight).abs() < 1e-6,
                "total_weight changed at n={}: {} vs baseline {}",
                p.n,
                p.total_weight,
                prev.total_weight
            );
        }
    }

    let mut report = Report::new(&[
        "n",
        "grouping_ms",
        "treatment_ms",
        "selection_ms",
        "cate_evals",
        "candidates",
        "covered",
        "peak_rss_mb",
    ]);
    for p in &points {
        report.row(&[
            p.n.to_string(),
            fmt(p.grouping_ms, 1),
            fmt(p.treatment_ms, 1),
            fmt(p.selection_ms, 1),
            p.cate_evaluations.to_string(),
            p.candidates.to_string(),
            format!("{}/{}", p.covered, p.m),
            p.peak_rss_mb.map_or("-".into(), |v| fmt(v, 1)),
        ]);
    }
    println!("# perf_smoke — end-to-end pipeline (dataset: so, seed {seed})\n");
    println!("{}", report.markdown());
    for p in &scale_points {
        println!(
            "scale point (synthetic, n = {}): treatment {:.1} ms, {} cate evaluations, \
             peak RSS {}\n",
            p.n,
            p.treatment_ms,
            p.cate_evaluations,
            p.peak_rss_mb
                .map_or("n/a".into(), |v| format!("{v:.1} MiB")),
        );
    }
    if let Some(cells) = &matrix_points {
        println!(
            "# workload matrix ({} cells: dataset \u{00d7} shape \u{00d7} mode, \
             threads {{1, auto}} inside each cell)\n",
            cells.len()
        );
        let mut mreport = Report::new(&[
            "cell",
            "n",
            "groups",
            "t1_ms",
            "auto_ms",
            "cate_evals",
            "covered",
            "dd/rg",
        ]);
        for c in cells {
            mreport.row(&[
                format!("{}/{}/{}", c.dataset, c.shape, c.mode),
                c.n.to_string(),
                c.m.to_string(),
                fmt(c.t1_ms, 1),
                fmt(c.auto_ms, 1),
                c.cate_evaluations.to_string(),
                format!("{}/{}", c.covered, c.m),
                format!("{}/{}", c.downdates, c.regathers),
            ]);
        }
        println!("{}", mreport.markdown());
    }

    let json = render_json(
        seed,
        quick,
        &points,
        &scale_points,
        matrix_points.as_deref(),
    );
    let path = out_path.map(std::path::PathBuf::from).unwrap_or_else(|| {
        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        dir.join("bench_pipeline.json")
    });
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &json).expect("write results JSON");
    eprintln!("[saved {}]", path.display());
}

/// One measured workload-matrix cell: a (dataset, shape, numeric-mode)
/// combination from [`bench::workloads`], run at `threads = 1` and
/// `threads = 0` (auto). Counters are shared by both legs — they were
/// hard-asserted identical before the cell was recorded.
struct MatrixPoint {
    dataset: &'static str,
    shape: &'static str,
    mode: &'static str,
    n: usize,
    m: usize,
    /// Full pipeline at `threads = 1` (best of reps).
    t1_ms: f64,
    /// Full pipeline at `threads = 0` = auto workers (best of reps).
    auto_ms: f64,
    /// Grouping / treatment / selection split of the `threads = 1` leg.
    grouping_ms: f64,
    treatment_ms: f64,
    selection_ms: f64,
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    total_weight: f64,
    downdates: usize,
    regathers: usize,
}

/// Run every committed matrix cell. Within a cell the two thread legs
/// must be bit-identical (weight bits and every counter); across the
/// mode axis each FastV1 cell must match its Exact sibling's counters
/// with total weight within 1e-9 relative — the same contracts
/// `tests/workload_matrix.rs` re-checks in debug builds, asserted here
/// so a drifted artifact can never be written, let alone committed.
fn run_matrix(seed: u64, quick: bool) -> Vec<MatrixPoint> {
    use bench::workloads::{self, QueryShape, MATRIX_DATASETS};
    let reps = if quick { 1 } else { 3 };
    let mut out = Vec::new();
    for spec in MATRIX_DATASETS {
        let ds = workloads::generate(&spec, seed);
        for shape in QueryShape::ALL {
            let query = workloads::shaped_query(&ds, &spec, shape);
            let mut exact_weight: Option<f64> = None;
            let mut exact_evals = 0usize;
            for mode in [causumx::NumericMode::Exact, causumx::NumericMode::FastV1] {
                let cell_id = format!("{}/{}/{}", spec.name, shape.as_str(), mode.as_str());
                let run_with = |threads: usize| -> (f64, causumx::Summary) {
                    let mut best_ms = f64::INFINITY;
                    let mut last = None;
                    for _ in 0..reps {
                        let cfg = causumx::ConfigBuilder::new()
                            .numeric_mode(mode)
                            .threads(threads)
                            .build()
                            .expect("valid config");
                        let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg);
                        let (summary, ms) =
                            bench::timed(|| session.prepare(query.clone()).expect("prepare").run());
                        best_ms = best_ms.min(ms);
                        last = Some(summary);
                    }
                    (best_ms, last.expect("at least one repetition"))
                };
                let (t1_ms, t1) = run_with(1);
                let (auto_ms, auto) = run_with(0);
                // Thread axis: bit-identity inside the cell.
                assert_eq!(
                    t1.total_weight.to_bits(),
                    auto.total_weight.to_bits(),
                    "{cell_id}: thread legs must be bit-identical"
                );
                assert_eq!(t1.cate_evaluations, auto.cate_evaluations, "{cell_id}");
                assert_eq!(t1.candidates, auto.candidates, "{cell_id}");
                assert_eq!(t1.covered, auto.covered, "{cell_id}");
                assert_eq!(t1.downdates, auto.downdates, "{cell_id}");
                assert_eq!(t1.regathers, auto.regathers, "{cell_id}");
                // Mode axis: FastV1 vs the Exact sibling just recorded.
                match mode {
                    causumx::NumericMode::Exact => {
                        assert_eq!(t1.downdates, 0, "{cell_id}: Exact must never downdate");
                        exact_weight = Some(t1.total_weight);
                        exact_evals = t1.cate_evaluations;
                    }
                    causumx::NumericMode::FastV1 => {
                        let exact_w = exact_weight.expect("Exact cell runs first");
                        let rel = (exact_w - t1.total_weight).abs() / exact_w.abs().max(1e-30);
                        assert!(
                            rel <= 1e-9,
                            "{cell_id}: FastV1 weight drifted {rel:.3e} from Exact"
                        );
                        assert_eq!(
                            t1.cate_evaluations, exact_evals,
                            "{cell_id}: numeric mode must not change the work"
                        );
                    }
                }
                out.push(MatrixPoint {
                    dataset: spec.name,
                    shape: shape.as_str(),
                    mode: mode.as_str(),
                    n: spec.n,
                    m: t1.m,
                    t1_ms,
                    auto_ms,
                    grouping_ms: t1.timings.grouping_ms,
                    treatment_ms: t1.timings.treatment_ms,
                    selection_ms: t1.timings.selection_ms,
                    cate_evaluations: t1.cate_evaluations,
                    candidates: t1.candidates,
                    covered: t1.covered,
                    total_weight: t1.total_weight,
                    downdates: t1.downdates,
                    regathers: t1.regathers,
                });
            }
        }
    }
    assert!(
        out.len() >= workloads::MIN_MATRIX_CELLS,
        "matrix produced {} cells, below the committed floor of {}",
        out.len(),
        workloads::MIN_MATRIX_CELLS
    );
    out
}

/// The million-row scale point on [`datagen::synthetic`], skipped under
/// `--quick`. One repetition — at this scale the signal dwarfs scheduler
/// noise, and the counters are what the baseline gate checks.
fn run_million_rows(seed: u64) -> SizePoint {
    let n = 1_000_000;
    // Hold the group count at 1 000 as rows scale (the default
    // tuples_per_group of 4 would mean n/4 groups — hundreds of
    // thousands of group bitsets and tens of GB at 1 M rows).
    let params = datagen::synthetic::SynthParams {
        n,
        tuples_per_group: n / 1_000,
        ..Default::default()
    };
    let ds = datagen::synthetic::generate(params, seed);
    let session = Session::new(ds.table.clone(), ds.dag.clone(), CausumxConfig::default());
    let summary = session
        .prepare(ds.query())
        .expect("pipeline must run on synthetic data")
        .run();
    SizePoint {
        peak_rss_mb: bench::peak_rss_mb(),
        ..size_point(n, &summary)
    }
}

/// A pipeline run's clocks and pins; peak RSS is read by the caller.
fn size_point(n: usize, summary: &causumx::Summary) -> SizePoint {
    SizePoint {
        n,
        grouping_ms: summary.timings.grouping_ms,
        treatment_ms: summary.timings.treatment_ms,
        selection_ms: summary.timings.selection_ms,
        cate_evaluations: summary.cate_evaluations,
        candidates: summary.candidates,
        covered: summary.covered,
        m: summary.m,
        total_weight: summary.total_weight,
        peak_rss_mb: None,
    }
}

/// Hand-rolled JSON (no serde in the offline container). One `sizes`
/// entry per line so [`read_prior_sizes`] can scan it back.
fn render_json(
    seed: u64,
    quick: bool,
    points: &[SizePoint],
    scale: &[SizePoint],
    matrix: Option<&[MatrixPoint]>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"pipeline_perf_smoke\",");
    let _ = writeln!(s, "  \"dataset\": \"so\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    // Host topology: a matrix cell's `pipeline_ms_auto` is only
    // interpretable knowing how many workers `threads = 0` resolved to
    // on the host that wrote the artifact.
    let _ = writeln!(
        s,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let _ = writeln!(
        s,
        "  \"auto_workers\": {},",
        mining::sched::available_workers()
    );
    let _ = writeln!(s, "  \"sizes\": [");
    render_size_lines(&mut s, points, "");
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"scale\": [");
    render_size_lines(&mut s, scale, "\"dataset\": \"synthetic\", ");
    let _ = writeln!(s, "  ]{}", if matrix.is_some() { "," } else { "" });
    if let Some(cells) = matrix {
        // One cell per line so the differential tier
        // (tests/workload_matrix.rs) can scan fingerprints back the same
        // way `read_prior_sizes` does.
        let _ = writeln!(s, "  \"matrix\": [");
        for (i, c) in cells.iter().enumerate() {
            let comma = if i + 1 < cells.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"dataset\": \"{}\", \"shape\": \"{}\", \"mode\": \"{}\", \"n\": {}, \
                 \"groups\": {}, \"pipeline_ms_t1\": {:.3}, \"pipeline_ms_auto\": {:.3}, \
                 \"grouping_ms\": {:.3}, \"treatment_ms\": {:.3}, \"selection_ms\": {:.3}, \
                 \"cate_evaluations\": {}, \"candidates\": {}, \"covered\": {}, \
                 \"total_weight\": {:.6}, \"downdates\": {}, \"regathers\": {}, \
                 \"bit_identical\": true}}{}",
                c.dataset,
                c.shape,
                c.mode,
                c.n,
                c.m,
                c.t1_ms,
                c.auto_ms,
                c.grouping_ms,
                c.treatment_ms,
                c.selection_ms,
                c.cate_evaluations,
                c.candidates,
                c.covered,
                c.total_weight,
                c.downdates,
                c.regathers,
                comma
            );
        }
        let _ = writeln!(s, "  ]");
    }
    let _ = writeln!(s, "}}");
    s
}

/// One JSON line per size point, `tag` spliced in after `n`.
fn render_size_lines(s: &mut String, points: &[SizePoint], tag: &str) {
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"n\": {}, {tag}\"grouping_ms\": {:.3}, \"treatment_ms\": {:.3}, \
             \"selection_ms\": {:.3}, \"cate_evaluations\": {}, \"candidates\": {}, \
             \"covered\": {}, \"groups\": {}, \"total_weight\": {:.6}, \
             \"ns_per_row_estimate\": {:.4}, \"peak_rss_mb\": {}}}{}",
            p.n,
            p.grouping_ms,
            p.treatment_ms,
            p.selection_ms,
            p.cate_evaluations,
            p.candidates,
            p.covered,
            p.m,
            p.total_weight,
            ns_per_row_estimate(p),
            json_opt(p.peak_rss_mb),
            comma
        );
    }
}

/// A prior run's per-size record, scanned back from its JSON: every
/// deterministic field the baseline gate compares.
struct PriorSize {
    n: usize,
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    groups: usize,
    total_weight: f64,
}

/// Extract per-size records from a previous run's JSON. The file is our
/// own single-entry-per-line format, so a line scan suffices — no JSON
/// parser needed in the offline container. A baseline that cannot be
/// read, or holds no size entry, is fatal: the hard-assert must never
/// pass by comparing nothing.
fn read_prior_sizes(path: &str) -> Vec<PriorSize> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("baseline {path} unreadable: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        // Matrix cells carry the same numeric fields at their own sizes;
        // they are pinned by tests/workload_matrix.rs, not by the
        // per-size baseline comparison.
        if line.contains("\"shape\":") {
            continue;
        }
        let field = |key: &str| field_num(line, &format!("\"{key}\":"));
        let (Some(n), Some(evals), Some(candidates), Some(covered), Some(groups), Some(w)) = (
            field("n"),
            field("cate_evaluations"),
            field("candidates"),
            field("covered"),
            field("groups"),
            field("total_weight"),
        ) else {
            continue;
        };
        out.push(PriorSize {
            n: n as usize,
            cate_evaluations: evals as usize,
            candidates: candidates as usize,
            covered: covered as usize,
            groups: groups as usize,
            total_weight: w,
        });
    }
    assert!(!out.is_empty(), "baseline {path} holds no size entry");
    out
}

/// Size-free treatment-step cost: nanoseconds per (row × estimation).
/// Guards against a zero-work run so the JSON never contains NaN/inf.
fn ns_per_row_estimate(p: &SizePoint) -> f64 {
    let work = (p.n as f64) * (p.cate_evaluations.max(1) as f64);
    p.treatment_ms * 1e6 / work
}

/// Render an optional metric: the number, or JSON `null` off Linux.
fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.1}"))
}

/// Parse the number following `key` on `line`, if present.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
