//! Fig. 10 — accuracy of the mining heuristics vs Brute-Force on the
//! Synthetic dataset: (a) precision/recall of grouping-pattern mining as
//! the number of grouping attributes grows; (b) precision/recall of
//! treatment-pattern mining (treated-tuple sets) as the number of
//! treatment attributes grows.
//!
//! ```sh
//! cargo run -p bench --bin fig10 --release [-- --seed N]
//! ```

use bench::{fmt, paper_config, session_for, ExpOptions, Report};
use datagen::synthetic::{generate, SynthParams};
use mining::grouping::mine_grouping_patterns;
use mining::treatment::TreatmentMiner;
use mining::RunGuard;
use table::bitset::BitSet;
use table::fd::fd_closure;

fn pr(selected: &BitSet, truth: &BitSet) -> (f64, f64) {
    let inter = selected.intersection_count(truth) as f64;
    let p = if selected.count() == 0 {
        1.0
    } else {
        inter / selected.count() as f64
    };
    let r = if truth.count() == 0 {
        1.0
    } else {
        inter / truth.count() as f64
    };
    (p, r)
}

fn main() {
    let opts = ExpOptions::from_args();
    eprintln!("Fig. 10 — synthetic accuracy study (n = 1000)");

    // (a) Grouping patterns: tuples covered by CauSumX's selected grouping
    // patterns vs Brute-Force's (τ = 0).
    let mut rep_a = Report::new(&["grouping attrs", "precision", "recall"]);
    for i in 1..=5usize {
        let ds = generate(
            SynthParams {
                n: 1_000,
                n_grouping: i,
                n_treatment: 3,
                tuples_per_group: 4,
            },
            opts.seed,
        );
        let mut cfg = paper_config();
        cfg.k = 5;
        cfg.theta = 0.75;
        cfg.lattice.max_level = 1;
        let session = session_for(&ds, cfg);
        let prepared = session.prepare(ds.query()).expect("prepare");
        let fast = prepared.run();
        let brute = prepared.run_brute_force();
        let rows_of = |s: &causumx::Summary| {
            let mut u = BitSet::new(ds.table.nrows());
            let view = ds.query().run(&ds.table).unwrap();
            for e in &s.explanations {
                let cov = view.coverage(&ds.table, &e.grouping).unwrap();
                u.union_with(&BitSet::from_mask(&view.subpopulation_mask(&cov)));
            }
            u
        };
        let (p, r) = pr(&rows_of(&fast), &rows_of(&brute));
        rep_a.row(&[i.to_string(), fmt(p, 3), fmt(r, 3)]);
        eprintln!("  grouping attrs = {i}: P = {p:.3}, R = {r:.3}");
    }
    rep_a.emit("fig10a");

    // (b) Treatment patterns: per grouping pattern, the treated set of the
    // Algorithm-2 winner vs the exhaustive winner; averaged.
    let mut rep_b = Report::new(&["treatment attrs", "precision", "recall"]);
    for j in 2..=5usize {
        let ds = generate(
            SynthParams {
                n: 1_000,
                n_grouping: 2,
                n_treatment: j,
                tuples_per_group: 4,
            },
            opts.seed,
        );
        let view = ds.query().run(&ds.table).unwrap();
        let gp_attrs = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
        let groupings = mine_grouping_patterns(&ds.table, &view, &gp_attrs, 0.1, 2);
        let treat_attrs: Vec<usize> = (0..ds.table.ncols())
            .filter(|a| {
                let n = &ds.table.schema().field(*a).name;
                n.starts_with('T')
            })
            .collect();
        let mut lat = paper_config().lattice;
        lat.max_level = 2;
        let miner = TreatmentMiner::new(&ds.table, &ds.dag, ds.outcome, &treat_attrs, lat);

        let (mut psum, mut rsum, mut cnt) = (0.0, 0.0, 0usize);
        for gp in groupings.iter().take(20) {
            // The greedy walk's best positive treatment.
            let greedy = miner
                .mine_paired_many_guarded(&[&gp.rows], 1, false, 0, &RunGuard::unlimited())
                .expect("an unguarded walk succeeds")
                .pop()
                .and_then(|mut paired| paired.positive.pop());
            let Some(greedy) = greedy else { continue };
            let all = miner.all_treatments(&gp.rows, 2);
            let Some(best) = all
                .iter()
                .filter(|t| t.cate > 0.0)
                .max_by(|a, b| a.cate.partial_cmp(&b.cate).unwrap())
            else {
                continue;
            };
            let g_mask = BitSet::from_mask(&greedy.pattern.eval(&ds.table).unwrap());
            let b_mask = BitSet::from_mask(&best.pattern.eval(&ds.table).unwrap());
            let (p, r) = pr(&g_mask, &b_mask);
            psum += p;
            rsum += r;
            cnt += 1;
        }
        let (p, r) = (psum / cnt.max(1) as f64, rsum / cnt.max(1) as f64);
        rep_b.row(&[j.to_string(), fmt(p, 3), fmt(r, 3)]);
        eprintln!("  treatment attrs = {j}: P = {p:.3}, R = {r:.3} ({cnt} patterns)");
    }
    rep_b.emit("fig10b");
}
