//! Ablation study — each §5.2 optimization toggled off individually on the
//! SO dataset, measuring runtime, CATE evaluations, and result quality.
//!
//! * (a) DAG-based attribute pruning (`prune_by_dag`),
//! * (b) near-zero-CATE pruning + top-50 % retention (`min_abs_cate_frac`,
//!   `top_frac`),
//! * (c) parallelism across grouping patterns (`threads`),
//! * (d) sampled CATE estimation (`sample_cap`) — on at paper scale only,
//!   so here we show the *cost* of switching it on at small scale too.
//!
//! ```sh
//! cargo run -p bench --bin ablation --release [-- --scale small|paper --seed N]
//! ```

use bench::{fmt, paper_config, session_for, timed, ExpOptions, Report};
use causumx::CausumxConfig;

fn main() {
    let opts = ExpOptions::from_args();
    let ds = datagen::so::generate(opts.scale.so, opts.seed);
    eprintln!("Ablation on SO ({} rows)", ds.table.nrows());

    let variants: Vec<(&str, CausumxConfig)> = vec![
        ("full (all optimizations)", paper_config()),
        ("no (a) attribute pruning", {
            let mut c = paper_config();
            c.lattice.prune_by_dag = false;
            c
        }),
        ("no (b) level pruning", {
            let mut c = paper_config();
            c.lattice.top_frac = 1.0;
            c.lattice.min_abs_cate_frac = 0.0;
            c
        }),
        ("no (c) parallelism", {
            let mut c = paper_config();
            c.threads = 1;
            c
        }),
        ("with (d) sampling cap 2k", {
            let mut c = paper_config();
            c.lattice.cate_opts.sample_cap = Some(2_000);
            c
        }),
    ];

    let mut report = Report::new(&[
        "variant",
        "runtime ms",
        "cate evals",
        "explainability",
        "coverage",
    ]);
    for (name, cfg) in variants {
        let session = session_for(&ds, cfg);
        let (summary, ms) = timed(|| session.prepare(ds.query()).expect("prepare").run());
        report.row(&[
            name.to_string(),
            fmt(ms, 1),
            summary.cate_evaluations.to_string(),
            fmt(summary.total_weight, 2),
            format!("{}/{}", summary.covered, summary.m),
        ]);
        eprintln!(
            "  {name}: {ms:.0} ms, {} evals, expl {:.1}",
            summary.cate_evaluations, summary.total_weight
        );
    }
    report.emit("ablation");
}
