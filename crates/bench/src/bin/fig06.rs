//! Fig. 6 — SO case study restricted to sensitive attributes.
//!
//! "To identify potential biases, we focused exclusively on sensitive
//! attributes (such as ethnicity, gender, and age) when examining
//! treatment patterns" — the engine is given only {Ethnicity, Gender, Age}
//! as treatment candidates by masking out all other non-FD attributes.
//!
//! ```sh
//! cargo run -p bench --bin fig06 --release [-- --scale small|paper --seed N]
//! ```

use std::sync::Arc;

use bench::ExpOptions;
use causumx::{ConfigBuilder, Report};
use mining::grouping::mine_grouping_patterns;
use mining::treatment::{LatticeStats, TreatmentMiner};
use mining::RunGuard;
use table::fd::fd_closure;

fn main() {
    let opts = ExpOptions::from_args();
    let ds = datagen::so::generate(opts.scale.so, opts.seed);
    let query = ds.query();
    let view = query.run(&ds.table).unwrap();

    let config = ConfigBuilder::new().k(3).theta(1.0).build().unwrap();

    // Sensitive attributes only.
    let sensitive: Vec<usize> = ["Ethnicity", "Gender", "Age"]
        .iter()
        .map(|n| ds.table.attr(n).unwrap())
        .collect();

    let gp_attrs = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
    let groupings = mine_grouping_patterns(&ds.table, &view, &gp_attrs, config.apriori_tau, 3);
    let miner = TreatmentMiner::new(
        &ds.table,
        &ds.dag,
        ds.outcome,
        &sensitive,
        config.lattice.clone(),
    );

    let subpops: Vec<_> = groupings.iter().map(|gp| &gp.rows).collect();
    let mined = miner
        .mine_paired_many_guarded(
            &subpops,
            1,
            true,
            config.effective_threads(),
            &RunGuard::unlimited(),
        )
        .expect("an unguarded walk succeeds");
    let mut explanations = Vec::new();
    for (gp, mut paired) in groupings.iter().zip(mined) {
        let e = causumx::Explanation::new(
            gp.pattern.clone(),
            gp.coverage.clone(),
            paired.positive.pop(),
            paired.negative.pop(),
        );
        if e.has_treatment() {
            explanations.push(e);
        }
    }

    // Select via the standard engine machinery.
    let candidates = causumx::CandidateSet {
        view: Arc::new(view),
        explanations,
        grouping_ms: 0.0,
        treatment_ms: 0.0,
        stats: LatticeStats::default(),
    };
    let summary =
        causumx::select_candidates(&config, &candidates, causumx::SelectionMethod::LpRounding);

    println!("Fig. 6 — SO, sensitive attributes only (k=3, θ=1):\n");
    let report = Report::new(&ds.table, &candidates.view, &summary, "salary");
    print!("{}", report.render_text());
}
