//! `perf_smoke` — deterministic end-to-end pipeline benchmark.
//!
//! The first point of the repo's BENCH trajectory: runs the full CauSumX
//! pipeline (grouping mining → treatment mining → selection) on the seeded
//! Stack-Overflow-shaped generator at 2–3 sizes with the fixed
//! representative query (`GROUP BY Country, AVG(Salary)`), prints per-step
//! timings plus the `cate_evaluations` work counter, and writes a
//! machine-readable copy to `results/bench_pipeline.json`.
//!
//! Flags:
//!
//! * `--quick` — smallest size only, one repetition, no million-row
//!   point (the CI smoke gate),
//! * `--seed N` — data seed (default 42),
//! * `--out PATH` — JSON output path (default `results/bench_pipeline.json`),
//! * `--baseline PATH` — a JSON file produced by an earlier `perf_smoke`
//!   run; its per-size `treatment_ms` numbers are embedded as
//!   `prior_treatment_ms` together with the resulting speedup factors, so
//!   a before/after pair lives in one artifact. Counters and weights of
//!   matching sizes (including the million-row scale point) are
//!   hard-asserted against it,
//! * `--ten-million` — extend the scale sweep to a 10 M-row synthetic
//!   point (minutes of wall clock; for workstation runs, not CI),
//! * `--matrix` — additionally run the committed workload matrix
//!   ([`bench::workloads`]): five datasets × three query shapes ×
//!   {Exact, FastV1}, each cell at `threads = 1` and `threads = 0`
//!   (auto). Emits a `matrix` JSON section with one cell per line —
//!   per-cell clocks, work counters, `downdates`/`regathers` and peak
//!   RSS — which `tests/workload_matrix.rs` pins fingerprint by
//!   fingerprint. Within a cell the two thread legs are hard-asserted
//!   bit-identical, and each FastV1 cell is hard-asserted against its
//!   Exact sibling (equal counters, total weight within 1e-9 relative).
//!
//! Peak RSS (`VmHWM`, via [`bench::peak_rss_bytes`]) is recorded as a
//! first-class metric: each per-size entry and each scale point carries
//! `peak_rss_mb`. The value is a *process-wide* high-water mark, so
//! within one invocation it is monotone across the ascending sizes — a
//! per-size reading attributes the peak up to that point, which is what
//! a memory-regression gate needs.
//!
//! Besides the per-size pipeline table, the bench runs a **session
//! scenario**: one [`causumx::Session`] serving the same query twice —
//! cold (prepare + first run) vs warm (repeated `run()` on the prepared
//! query, which reuses the view, group bitsets, FD split, atom space and
//! backdoor memo). The `warm_speedup` factor in the JSON is the
//! repeated-query dividend of the session API.
//!
//! The **scheduler scenario** drives the unified work-stealing
//! scheduler on a skewed many-pattern workload (low `apriori_tau`, so
//! grouping patterns differ in cost by orders of magnitude) with
//! `threads = 1` vs auto workers, asserting bit-identical summaries and
//! reporting the speedup. On a single-core host the factor is ~1.0 by
//! construction; the committed artifact records the contract, a
//! multi-core host records the win.
//!
//! The **numeric-mode scenario** A/Bs `NumericMode::{Exact, FastV1}` on
//! the treatment step: `Exact` replays the pinned serial fold, `FastV1`
//! runs the fixed-lane reduction kernels plus incremental Gram
//! downdating for subset candidates. The scenario asserts FastV1
//! self-determinism (bit-identical summaries at 1 vs 4 threads), equal
//! work counters against Exact, CATE/weight agreement within 1e-9
//! relative tolerance, and the counter contract (`downdates > 0` under
//! FastV1, `downdates = 0` + `regathers > 0` under Exact).
//!
//! Each per-size entry also records `ns_per_row_estimate` — treatment
//! nanoseconds divided by (rows × CATE evaluations), the size-free cost
//! of one row's worth of one estimation, comparable across sizes.
//!
//! Timings are wall-clock and machine-dependent; `cate_evaluations`,
//! candidate counts and coverage are deterministic for a fixed seed, which
//! is what the CI gate checks indirectly (the JSON must parse and the
//! counters must be positive).

use std::fmt::Write as _;
use std::time::Instant;

use bench::{fmt, results_dir, Report};
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
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ten_million = args.iter().any(|a| a == "--ten-million");
    let matrix = args.iter().any(|a| a == "--matrix");
    let mut seed = 42u64;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 1;
            }
            "--out" if i + 1 < args.len() => {
                out_path = Some(args[i + 1].clone());
                i += 1;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = Some(args[i + 1].clone());
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }

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
        // stays comparable to the pre-session engine's per-call cost;
        // the session scenario below measures prepared reuse.
        let mut best: Option<SizePoint> = None;
        for _ in 0..reps {
            let session = Session::new(ds.table.clone(), ds.dag.clone(), CausumxConfig::default());
            let summary = session
                .prepare(query.clone())
                .expect("pipeline must run on generated data")
                .run();
            let p = SizePoint {
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
            };
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
    let scale_points = run_scale_points(seed, quick, ten_million);

    // Session scenario: the same query served twice by one session.
    let session_point = run_session_scenario(if quick { 4_000 } else { 12_000 }, seed);

    // Scheduler scenario: skewed many-pattern workload, serial vs auto.
    let sched_point = run_scheduler_scenario(if quick { 4_000 } else { 12_000 }, seed);

    // Guards scenario: the one-worker pipeline, lifeguards on vs off.
    let guards_point = run_guards_scenario(if quick { 4_000 } else { 30_000 }, seed, quick);

    // Numeric-mode scenario: Exact vs FastV1 lane kernels + downdating.
    let numeric_point = run_numeric_mode_scenario(if quick { 4_000 } else { 30_000 }, seed, quick);

    // Workload matrix: dataset × shape × mode grid (behind --matrix).
    let matrix_points = if matrix {
        Some(run_matrix(seed, quick))
    } else {
        None
    };

    let prior = baseline_path
        .as_deref()
        .map(read_prior_sizes)
        .unwrap_or_default();
    // The rework contract: identical work counters and bit-identical
    // summaries (the baseline stores total_weight at 1e-6 precision, so
    // that is the strongest cross-artifact check available).
    for p in points.iter().chain(&scale_points) {
        if let Some(prev) = prior.iter().find(|b| b.n == p.n) {
            assert_eq!(
                p.cate_evaluations, prev.cate_evaluations,
                "cate_evaluations changed at n={} vs baseline",
                p.n
            );
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
        "prior_treatment_ms",
        "speedup",
    ]);
    for p in &points {
        let prior_ms = prior.iter().find(|b| b.n == p.n).map(|b| b.treatment_ms);
        report.row(&[
            p.n.to_string(),
            fmt(p.grouping_ms, 1),
            fmt(p.treatment_ms, 1),
            fmt(p.selection_ms, 1),
            p.cate_evaluations.to_string(),
            p.candidates.to_string(),
            format!("{}/{}", p.covered, p.m),
            p.peak_rss_mb.map_or("-".into(), |v| fmt(v, 1)),
            prior_ms.map_or("-".into(), |v| fmt(v, 1)),
            prior_ms.map_or("-".into(), |v| fmt(v / p.treatment_ms, 2)),
        ]);
    }
    println!("# perf_smoke — end-to-end pipeline (dataset: so, seed {seed})\n");
    println!("{}", report.markdown());
    println!(
        "session scenario (n = {}): cold {:.1} ms (prepare {:.1} + run) → warm {:.1} ms \
         (prepared reuse, ×{:.2})\n",
        session_point.n,
        session_point.cold_ms,
        session_point.prepare_ms,
        session_point.warm_ms,
        session_point.cold_ms / session_point.warm_ms,
    );
    println!(
        "scheduler scenario (n = {}, {} auto workers): pipeline {:.1} ms serial vs {:.1} ms \
         auto (\u{00d7}{:.2}), bit-identical summaries\n",
        sched_point.n,
        sched_point.workers,
        sched_point.serial_ms,
        sched_point.auto_ms,
        sched_point.serial_ms / sched_point.auto_ms,
    );
    println!(
        "guards scenario (n = {}, single core): pipeline {:.1} ms unguarded vs {:.1} ms \
         guarded ({:+.2}% overhead), bit-identical summaries\n",
        guards_point.n,
        guards_point.unguarded_ms,
        guards_point.guarded_ms,
        guards_point.overhead_pct,
    );
    println!(
        "numeric-mode scenario (n = {}): treatment step {:.1} ms exact vs {:.1} ms fast_v1 \
         (\u{00d7}{:.2}), {} cate evaluations, {} downdates / {} regathers under fast_v1, \
         fast_v1 bit-identical across threads\n",
        numeric_point.n,
        numeric_point.exact_ms,
        numeric_point.fast_ms,
        numeric_point.exact_ms / numeric_point.fast_ms,
        numeric_point.cate_evaluations,
        numeric_point.downdates,
        numeric_point.regathers,
    );
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
            "peak_rss_mb",
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
                c.peak_rss_mb.map_or("-".into(), |v| fmt(v, 1)),
            ]);
        }
        println!("{}", mreport.markdown());
    }

    let json = render_json(
        seed,
        quick,
        &points,
        &scale_points,
        &prior,
        &session_point,
        &sched_point,
        &guards_point,
        &numeric_point,
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

/// Measurements of the repeated-query/session scenario.
struct SessionPoint {
    n: usize,
    /// `Session::prepare` alone (view + group bitsets + FD split + atoms).
    prepare_ms: f64,
    /// Cold start: prepare + first `run()`.
    cold_ms: f64,
    /// Warm repeat: best of 3 repeated `run()`s on the prepared queries.
    warm_ms: f64,
    cate_evaluations: usize,
}

/// One session serving the same query repeatedly: cold start (prepare +
/// first run on a fresh session) vs prepared reuse. The warm runs perform
/// zero redundant view materializations, FD-closure or backdoor
/// recomputations, so their latency should come in strictly below cold
/// start; the committed artifact is only accepted with that property
/// (checked with a warning rather than a panic — see below).
/// Both sides are best-of-3 (three fresh sessions, one cold and one warm
/// sample each) to damp scheduler noise symmetrically.
fn run_session_scenario(n: usize, seed: u64) -> SessionPoint {
    let ds = so::generate(n, seed);
    let query = ds.query();

    let mut prepare_ms = f64::INFINITY;
    let mut cold_ms = f64::INFINITY;
    let mut warm_ms = f64::INFINITY;
    let mut cate_evaluations = 0;
    for _ in 0..3 {
        let session = Session::new(ds.table.clone(), ds.dag.clone(), CausumxConfig::default());
        let t0 = Instant::now();
        let prepared = session.prepare(query.clone()).expect("prepare");
        prepare_ms = prepare_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let first = prepared.run();
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cate_evaluations = first.cate_evaluations;

        // One warm sample per session keeps the comparison fair: both
        // sides are a min over exactly 3 draws.
        let t = Instant::now();
        let again = prepared.run();
        warm_ms = warm_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            again.total_weight.to_bits(),
            first.total_weight.to_bits(),
            "prepared reuse must be bit-identical"
        );
        assert_eq!(again.cate_evaluations, first.cate_evaluations);
    }
    // The structural margin (prepare + memo warmth) is only a few percent
    // of a run, so a loaded machine can invert it; warn instead of
    // panicking so the JSON is always written and no run flakes. The
    // committed artifact is regenerated until the claim holds.
    if warm_ms >= cold_ms {
        eprintln!(
            "[warn: warm {warm_ms:.1} ms not below cold {cold_ms:.1} ms — timing noise; \
             re-run on an idle machine before committing the artifact]"
        );
    }
    SessionPoint {
        n,
        prepare_ms,
        cold_ms,
        warm_ms,
        cate_evaluations,
    }
}

/// Measurements of the scheduler scenario: the full pipeline on a skewed
/// many-pattern workload (`apriori_tau = 0.05` mines far more grouping
/// patterns than the default, with subpopulation sizes spread over
/// orders of magnitude) with one worker vs auto workers on the unified
/// scheduler. Bit-identity between the two is asserted, so the scenario
/// doubles as the end-to-end determinism gate of the committed artifact.
struct SchedPoint {
    n: usize,
    /// Auto-resolved worker count on this host.
    workers: usize,
    /// Pipeline total, `threads = 1` (best of 3).
    serial_ms: f64,
    /// Pipeline total, `threads = 0` = one worker per core (best of 3).
    auto_ms: f64,
    cate_evaluations: usize,
}

fn run_scheduler_scenario(n: usize, seed: u64) -> SchedPoint {
    let ds = so::generate(n, seed);
    let query = ds.query();
    let run_with = |threads: usize| -> (f64, causumx::Summary) {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let cfg = causumx::ConfigBuilder::new()
                .apriori_tau(0.05)
                .threads(threads)
                .build()
                .expect("valid config");
            let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg);
            let (summary, ms) =
                bench::timed(|| session.prepare(query.clone()).expect("prepare").run());
            best_ms = best_ms.min(ms);
            last = Some(summary);
        }
        (best_ms, last.expect("three repetitions"))
    };
    let (serial_ms, serial) = run_with(1);
    let (auto_ms, auto) = run_with(0);
    assert_eq!(
        serial.total_weight.to_bits(),
        auto.total_weight.to_bits(),
        "the scheduler must not change the summary at any worker count"
    );
    assert_eq!(serial.cate_evaluations, auto.cate_evaluations);
    assert_eq!(serial.covered, auto.covered);
    assert_eq!(serial.candidates, auto.candidates);
    SchedPoint {
        n,
        workers: mining::sched::available_workers(),
        serial_ms,
        auto_ms,
        cate_evaluations: serial.cate_evaluations,
    }
}

/// Measurements of the guards scenario: the full single-core pipeline
/// (one worker: the scheduler runs the walk's tasks inline, no pool)
/// with the lifeguards off (`run()`, unlimited guard) vs on (`try_run()`
/// under an ample deadline *and* memory budget, so every checkpoint —
/// including the procfs probe — is exercised without ever tripping). The two
/// summaries are hard-asserted bit-identical; the overhead budget
/// (< 2 %) and the 30 k-row serial floor (≤ 225 ms) follow the repo's
/// warn-not-panic timing policy so loaded CI hosts never flake.
struct GuardsPoint {
    n: usize,
    /// Single-core pipeline total, guards off (best of 3).
    unguarded_ms: f64,
    /// Single-core pipeline total, deadline + memory budget armed
    /// (best of 3).
    guarded_ms: f64,
    /// `(guarded - unguarded) / unguarded`, in percent.
    overhead_pct: f64,
    cate_evaluations: usize,
}

fn run_guards_scenario(n: usize, seed: u64, quick: bool) -> GuardsPoint {
    let ds = so::generate(n, seed);
    let query = ds.query();
    let run_with = |guarded: bool| -> (f64, causumx::Summary) {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let mut cfg = causumx::ConfigBuilder::new().threads(1);
            if guarded {
                cfg = cfg
                    .deadline(std::time::Duration::from_secs(3600))
                    .memory_budget_mb(1 << 20);
            }
            let cfg = cfg.build().expect("valid config");
            let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg);
            let prepared = session.prepare(query.clone()).expect("prepare");
            let (summary, ms) = bench::timed(|| {
                if guarded {
                    prepared.try_run().expect("ample limits must not trip")
                } else {
                    prepared.run()
                }
            });
            best_ms = best_ms.min(ms);
            last = Some(summary);
        }
        (best_ms, last.expect("three repetitions"))
    };
    let (unguarded_ms, off) = run_with(false);
    let (guarded_ms, on) = run_with(true);
    assert_eq!(
        off.total_weight.to_bits(),
        on.total_weight.to_bits(),
        "lifeguard checkpoints must not change the summary"
    );
    assert_eq!(off.cate_evaluations, on.cate_evaluations);
    assert_eq!(off.covered, on.covered);
    assert_eq!(off.candidates, on.candidates);
    let overhead_pct = (guarded_ms - unguarded_ms) / unguarded_ms * 100.0;
    if overhead_pct > 2.0 {
        eprintln!(
            "[warn: guard overhead {overhead_pct:.2}% exceeds the 2% budget \
             ({unguarded_ms:.1} ms -> {guarded_ms:.1} ms) — timing noise; re-run on an idle \
             machine before committing the artifact]"
        );
    }
    if !quick && unguarded_ms > 225.0 {
        eprintln!(
            "[warn: one-worker pipeline {unguarded_ms:.1} ms at n = {n} misses the 225 ms floor — \
             timing noise; re-run on an idle machine before committing the artifact]"
        );
    }
    GuardsPoint {
        n,
        unguarded_ms,
        guarded_ms,
        overhead_pct,
        cate_evaluations: off.cate_evaluations,
    }
}

/// Measurements of the numeric-mode scenario: the treatment-mining step
/// under `NumericMode::Exact` (the pinned serial fold) vs
/// `NumericMode::FastV1` (fixed-lane reduction kernels + incremental
/// Gram downdating for subset candidates). FastV1 is a *versioned*
/// numeric contract of its own: bit-identical across thread counts, but
/// only tolerance-close (1e-9 relative) to Exact.
struct NumericModePoint {
    n: usize,
    /// Treatment step under `Exact` (best of 3).
    exact_ms: f64,
    /// Treatment step under `FastV1` (best of 3).
    fast_ms: f64,
    cate_evaluations: usize,
    /// Subset candidates served by moment downdating under FastV1.
    downdates: usize,
    /// Parented candidates that re-gathered under FastV1.
    regathers: usize,
}

fn run_numeric_mode_scenario(n: usize, seed: u64, quick: bool) -> NumericModePoint {
    let ds = so::generate(n, seed);
    let query = ds.query();
    let run_with = |mode: causumx::NumericMode, threads: usize| -> (f64, causumx::Summary) {
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let cfg = causumx::ConfigBuilder::new()
                .numeric_mode(mode)
                .threads(threads)
                .build()
                .expect("valid config");
            let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg);
            let summary = session.prepare(query.clone()).expect("prepare").run();
            best_ms = best_ms.min(summary.timings.treatment_ms);
            last = Some(summary);
        }
        (best_ms, last.expect("three repetitions"))
    };
    let (exact_ms, exact) = run_with(causumx::NumericMode::Exact, 1);
    let (fast_ms, fast) = run_with(causumx::NumericMode::FastV1, 1);
    let (_, fast4) = run_with(causumx::NumericMode::FastV1, 4);

    // FastV1 is deterministic within the mode: summaries at 1 and 4
    // workers must agree bit for bit, counters included.
    assert_eq!(
        fast.total_weight.to_bits(),
        fast4.total_weight.to_bits(),
        "FastV1 must be bit-identical across thread counts"
    );
    assert_eq!(fast.cate_evaluations, fast4.cate_evaluations);
    assert_eq!(fast.downdates, fast4.downdates);
    assert_eq!(fast.regathers, fast4.regathers);
    assert_eq!(fast.covered, fast4.covered);
    assert_eq!(fast.candidates, fast4.candidates);

    // Across modes the *work* is identical; only the float bits differ,
    // and those only within 1e-9 relative tolerance.
    assert_eq!(
        exact.cate_evaluations, fast.cate_evaluations,
        "numeric mode must not change which candidates are evaluated"
    );
    assert_eq!(exact.covered, fast.covered);
    assert_eq!(exact.candidates, fast.candidates);
    let rel = (exact.total_weight - fast.total_weight).abs() / exact.total_weight.abs().max(1e-30);
    assert!(
        rel <= 1e-9,
        "FastV1 total weight drifted {rel:.3e} relative from Exact"
    );

    // Counter contract: Exact never downdates (bit-replay preserved);
    // FastV1 downdates on the default SO workload. The quick 4 k run may
    // mine too shallow a lattice to exercise subset candidates, so the
    // positivity checks gate on the full-size run only.
    assert_eq!(exact.downdates, 0, "Exact mode must never downdate");
    if !quick {
        assert!(
            exact.regathers > 0,
            "Exact mode should fall back to re-gathers on parented candidates"
        );
        assert!(
            fast.downdates > 0,
            "FastV1 should downdate subset candidates on the default SO workload"
        );
    }
    NumericModePoint {
        n,
        exact_ms,
        fast_ms,
        cate_evaluations: fast.cate_evaluations,
        downdates: fast.downdates,
        regathers: fast.regathers,
    }
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
    /// Process peak RSS after this cell (MiB); `None` off Linux.
    peak_rss_mb: Option<f64>,
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
                    peak_rss_mb: bench::peak_rss_mb(),
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

/// Million-row scale sweep on [`datagen::synthetic`]: 1 M rows always
/// (unless `--quick`), 10 M behind `--ten-million`. One repetition per
/// point — at this scale the signal dwarfs scheduler noise, and the
/// counters are what the baseline gate checks.
fn run_scale_points(seed: u64, quick: bool, ten_million: bool) -> Vec<SizePoint> {
    if quick {
        return Vec::new();
    }
    let mut ns = vec![1_000_000usize];
    if ten_million {
        ns.push(10_000_000);
    }
    let mut out = Vec::new();
    for n in ns {
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
        out.push(SizePoint {
            n,
            grouping_ms: summary.timings.grouping_ms,
            treatment_ms: summary.timings.treatment_ms,
            selection_ms: summary.timings.selection_ms,
            cate_evaluations: summary.cate_evaluations,
            candidates: summary.candidates,
            covered: summary.covered,
            m: summary.m,
            total_weight: summary.total_weight,
            peak_rss_mb: bench::peak_rss_mb(),
        });
    }
    out
}

/// Hand-rolled JSON (no serde in the offline container). One `sizes`
/// entry per line so [`read_prior_sizes`] can scan it back.
#[allow(clippy::too_many_arguments)]
fn render_json(
    seed: u64,
    quick: bool,
    points: &[SizePoint],
    scale: &[SizePoint],
    prior: &[PriorSize],
    session: &SessionPoint,
    sched: &SchedPoint,
    guards: &GuardsPoint,
    numeric: &NumericModePoint,
    matrix: Option<&[MatrixPoint]>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"pipeline_perf_smoke\",");
    let _ = writeln!(s, "  \"dataset\": \"so\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"quick\": {quick},");
    // Host topology: the ROADMAP reads speedup factors off this artifact,
    // and a ~1.0 sched_speedup is only interpretable knowing the host had
    // one core. `auto_workers` is the worker count `threads = 0` resolves
    // to on this host (the count the scheduler scenario actually used).
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
    for (i, p) in points.iter().enumerate() {
        let prior_ms = prior.iter().find(|b| b.n == p.n).map(|b| b.treatment_ms);
        let comma = if i + 1 < points.len() { "," } else { "" };
        let mut extra = String::new();
        if let Some(ms) = prior_ms {
            let _ = write!(
                extra,
                ", \"prior_treatment_ms\": {:.3}, \"treatment_speedup\": {:.3}",
                ms,
                ms / p.treatment_ms
            );
        }
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"grouping_ms\": {:.3}, \"treatment_ms\": {:.3}, \
             \"selection_ms\": {:.3}, \"cate_evaluations\": {}, \"candidates\": {}, \
             \"covered\": {}, \"groups\": {}, \"total_weight\": {:.6}, \
             \"ns_per_row_estimate\": {:.4}, \"peak_rss_mb\": {}{}}}{}",
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
            extra,
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"scale\": [");
    for (i, p) in scale.iter().enumerate() {
        let comma = if i + 1 < scale.len() { "," } else { "" };
        let mut extra = String::new();
        if let Some(prev) = prior.iter().find(|b| b.n == p.n) {
            let _ = write!(
                extra,
                ", \"prior_treatment_ms\": {:.3}, \"treatment_speedup\": {:.3}",
                prev.treatment_ms,
                prev.treatment_ms / p.treatment_ms
            );
        }
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"dataset\": \"synthetic\", \"grouping_ms\": {:.3}, \
             \"treatment_ms\": {:.3}, \"selection_ms\": {:.3}, \"cate_evaluations\": {}, \
             \"candidates\": {}, \"covered\": {}, \"groups\": {}, \
             \"total_weight\": {:.6}, \"ns_per_row_estimate\": {:.4}, \
             \"peak_rss_mb\": {}{}}}{}",
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
            extra,
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"session\": {{\"n\": {}, \"prepare_ms\": {:.3}, \"cold_ms\": {:.3}, \
         \"warm_ms\": {:.3}, \"warm_speedup\": {:.3}, \"cate_evaluations\": {}}},",
        session.n,
        session.prepare_ms,
        session.cold_ms,
        session.warm_ms,
        session.cold_ms / session.warm_ms,
        session.cate_evaluations,
    );
    let _ = writeln!(
        s,
        "  \"scheduler\": {{\"n\": {}, \"workers\": {}, \"serial_pipeline_ms\": {:.3}, \
         \"auto_pipeline_ms\": {:.3}, \"sched_speedup\": {:.3}, \"evaluations\": {}, \
         \"bit_identical\": true}},",
        sched.n,
        sched.workers,
        sched.serial_ms,
        sched.auto_ms,
        sched.serial_ms / sched.auto_ms,
        sched.cate_evaluations,
    );
    let _ = writeln!(
        s,
        "  \"guards\": {{\"n\": {}, \"unguarded_ms\": {:.3}, \"guarded_ms\": {:.3}, \
         \"overhead_pct\": {:.3}, \"cate_evaluations\": {}, \"bit_identical\": true}},",
        guards.n,
        guards.unguarded_ms,
        guards.guarded_ms,
        guards.overhead_pct,
        guards.cate_evaluations,
    );
    let _ = writeln!(
        s,
        "  \"numeric_mode\": {{\"n\": {}, \"exact_ms\": {:.3}, \"fast_v1_ms\": {:.3}, \
         \"fast_speedup\": {:.3}, \"cate_evaluations\": {}, \"downdates\": {}, \
         \"regathers\": {}, \"rel_tolerance\": 1e-9, \"fast_thread_bit_identical\": true}}{}",
        numeric.n,
        numeric.exact_ms,
        numeric.fast_ms,
        numeric.exact_ms / numeric.fast_ms,
        numeric.cate_evaluations,
        numeric.downdates,
        numeric.regathers,
        if matrix.is_some() { "," } else { "" },
    );
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
                 \"peak_rss_mb\": {}, \"bit_identical\": true}}{}",
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
                json_opt(c.peak_rss_mb),
                comma
            );
        }
        let _ = writeln!(s, "  ]");
    }
    let _ = writeln!(s, "}}");
    s
}

/// A prior run's per-size record, scanned back from its JSON.
struct PriorSize {
    n: usize,
    treatment_ms: f64,
    cate_evaluations: usize,
    total_weight: f64,
}

/// Extract per-size records from a previous run's JSON. The file is our
/// own single-entry-per-line format, so a line scan suffices — no JSON
/// parser needed in the offline container.
fn read_prior_sizes(path: &str) -> Vec<PriorSize> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("[baseline {path} unreadable; skipping comparison]");
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        // Matrix cells carry the same numeric fields at their own sizes;
        // they are pinned by tests/workload_matrix.rs, not by the
        // per-size baseline comparison.
        if line.contains("\"shape\":") {
            continue;
        }
        let (Some(n), Some(ms), Some(evals), Some(w)) = (
            field_num(line, "\"n\":"),
            field_num(line, "\"treatment_ms\":"),
            field_num(line, "\"cate_evaluations\":"),
            field_num(line, "\"total_weight\":"),
        ) else {
            continue;
        };
        out.push(PriorSize {
            n: n as usize,
            treatment_ms: ms,
            cate_evaluations: evals as usize,
            total_weight: w,
        });
    }
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
