//! The workload-matrix differential tier.
//!
//! The committed workload matrix — five datasets × three query shapes ×
//! {Exact, FastV1} from [`bench::workloads`] — is pinned here, cell by
//! cell, as Rust constants. This suite re-runs every cell in debug builds
//! and hard-asserts
//!
//! * **committed fingerprints** — each fresh cell reproduces its pinned
//!   `cate_evaluations`, `candidates`, `covered`, `groups`, `downdates`
//!   and `regathers` exactly, and `total_weight` within 1e-5 of its
//!   six-decimal pin. A counter drift anywhere in the engine shows up as
//!   a named cell, not a vague diff. The SO pipeline at 4k, 12k and 30k
//!   rows is pinned the same way ([`SO_SIZE_PINS`], weights within 1e-6);
//! * **thread bit-identity** — within a cell, `threads = 1` and
//!   `threads = 4` agree bit for bit, weights and walk counters included
//!   (the fixed `4` exercises real workers even on a single-core CI
//!   host);
//! * **mode agreement** — each FastV1 cell matches its Exact sibling's
//!   work counters with total weight within 1e-9 relative;
//! * **oracle agreement** — per cell and mode, every treatment of every
//!   candidate `mine_candidates` yields equals the cold estimator run
//!   from scratch (see `common::check_oracle`): bit for bit under Exact,
//!   within 1e-9 relative under FastV1;
//! * **discovered-DAG quality** — `Session::with_discovered_dag` runs
//!   every `discovery` algorithm end to end on the synthetic matrix
//!   dataset and must reproduce the ground-truth-DAG explanations'
//!   coverage with ≥ 85–95 % of their total weight (floors set from
//!   multi-seed probes, not exact pins — discovery is statistical).
//!
//! The suite runs in the serialized CI leg (`RUST_TEST_THREADS=1`)
//! because the fixed-thread legs measure scheduler determinism, not
//! timing, and must not fight sibling tests for cores. An intentional
//! change to a counter or weight updates its constant here in the same
//! commit, with the reason recorded in CHANGES.md.

mod common;

use bench::workloads::{self, MatrixDataset, QueryShape, MATRIX_DATASETS};
use causumx::{CausumxConfig, ConfigBuilder, DiscoveryAlgo, NumericMode, Session, Summary};
use mining::treatment::TreatmentMiner;

/// The data seed every pin below was recorded at.
const SEED: u64 = 42;

/// The committed fingerprint of every matrix cell at [`SEED`], default
/// config otherwise, in [`workloads::matrix_cells`] order: `(cell, n,
/// groups, cate_evaluations, candidates, covered, total_weight, downdates,
/// regathers)`, with `total_weight` to six decimals.
#[rustfmt::skip]
const CELL_PINS: [(&str, usize, usize, usize, usize, usize, f64, usize, usize); 30] = [
    ("so/single/exact", 2000, 20, 5425, 26, 17, 671.715551, 0, 3033),
    ("so/single/fast_v1", 2000, 20, 5425, 26, 17, 671.715551, 1054, 1979),
    ("so/filtered/exact", 2000, 20, 4662, 26, 16, 622.499696, 0, 2386),
    ("so/filtered/fast_v1", 2000, 20, 4662, 26, 16, 622.499696, 788, 1598),
    ("so/multi/exact", 2000, 58, 4953, 26, 55, 668.729172, 0, 2717),
    ("so/multi/fast_v1", 2000, 58, 4953, 26, 55, 668.729172, 931, 1786),
    ("accidents/single/exact", 2000, 41, 711, 6, 35, 5.590720, 0, 339),
    ("accidents/single/fast_v1", 2000, 41, 711, 6, 35, 5.590720, 173, 166),
    ("accidents/filtered/exact", 2000, 41, 674, 6, 35, 5.945023, 0, 302),
    ("accidents/filtered/fast_v1", 2000, 41, 674, 6, 35, 5.945023, 158, 144),
    ("accidents/multi/exact", 2000, 82, 660, 6, 82, 5.800665, 0, 312),
    ("accidents/multi/fast_v1", 2000, 82, 660, 6, 82, 5.800665, 143, 169),
    ("adult/single/exact", 2000, 12, 306, 3, 12, 2.735278, 0, 156),
    ("adult/single/fast_v1", 2000, 12, 306, 3, 12, 2.735278, 85, 71),
    ("adult/filtered/exact", 2000, 12, 300, 3, 12, 2.750660, 0, 162),
    ("adult/filtered/fast_v1", 2000, 12, 300, 3, 12, 2.750660, 87, 75),
    ("adult/multi/exact", 2000, 24, 287, 3, 24, 2.691385, 0, 149),
    ("adult/multi/fast_v1", 2000, 24, 287, 3, 24, 2.691385, 79, 70),
    ("german/single/exact", 1000, 10, 632, 10, 5, 6.027317, 0, 272),
    ("german/single/fast_v1", 1000, 10, 632, 10, 5, 6.027317, 188, 84),
    ("german/filtered/exact", 1000, 10, 454, 8, 5, 5.598622, 0, 178),
    ("german/filtered/fast_v1", 1000, 10, 454, 8, 5, 5.598622, 126, 52),
    ("german/multi/exact", 1000, 30, 886, 14, 5, 5.731751, 0, 318),
    ("german/multi/fast_v1", 1000, 30, 886, 14, 5, 5.731751, 259, 59),
    ("synthetic/single/exact", 2000, 50, 1274, 14, 50, 60.567287, 0, 714),
    ("synthetic/single/fast_v1", 2000, 50, 1274, 14, 50, 60.567287, 4, 710),
    ("synthetic/filtered/exact", 2000, 50, 1234, 14, 50, 54.030716, 0, 702),
    ("synthetic/filtered/fast_v1", 2000, 50, 1234, 14, 50, 54.030716, 2, 700),
    ("synthetic/multi/exact", 2000, 4, 367, 4, 4, 44.328468, 0, 207),
    ("synthetic/multi/fast_v1", 2000, 4, 367, 4, 4, 44.328468, 0, 207),
];

/// The SO pipeline at [`SEED`], default config, on the representative
/// query (`GROUP BY Country, AVG(Salary)`): `(rows, cate_evaluations,
/// candidates, covered, groups, total_weight)`, with `total_weight` to six
/// decimals. The million-row point is pinned in `tests/million_row.rs`.
const SO_SIZE_PINS: [(usize, usize, usize, usize, usize, f64); 3] = [
    (4_000, 5774, 26, 15, 20, 679.462069),
    (12_000, 6299, 27, 15, 20, 704.215489),
    (30_000, 6382, 27, 16, 20, 664.680408),
];

// ---------- cell execution ----------

/// Run one matrix cell at a worker count, defaults otherwise.
fn run_cell(
    ds: &datagen::Dataset,
    spec: &MatrixDataset,
    shape: QueryShape,
    mode: NumericMode,
    threads: usize,
) -> Summary {
    let cfg = ConfigBuilder::new()
        .numeric_mode(mode)
        .threads(threads)
        .build()
        .unwrap();
    Session::new(ds.table.clone(), ds.dag.clone(), cfg)
        .prepare(workloads::shaped_query(ds, spec, shape))
        .unwrap()
        .run()
}

/// Full fingerprint: weight bits plus every deterministic counter.
fn full_print(s: &Summary) -> (u64, usize, usize, usize, usize, usize, usize) {
    (
        s.total_weight.to_bits(),
        s.cate_evaluations,
        s.candidates,
        s.covered,
        s.m,
        s.downdates,
        s.regathers,
    )
}

// ---------- the committed pins ----------

/// The pin table covers exactly the cells [`bench::workloads`] enumerates,
/// in enumeration order and at each dataset's row count, and every pin is
/// self-consistent: work recorded, a positive weight, and at least one
/// but no more than all groups covered.
#[test]
fn cell_pins_mirror_the_matrix() {
    let want: Vec<(String, usize)> = workloads::matrix_cells()
        .iter()
        .map(|c| (c.id(), c.dataset.n))
        .collect();
    let got: Vec<(String, usize)> = CELL_PINS.iter().map(|p| (p.0.to_string(), p.1)).collect();
    assert_eq!(got, want, "CELL_PINS must mirror bench::workloads");
    for (id, _, groups, evals, candidates, covered, weight, _, _) in CELL_PINS {
        assert!(
            groups > 0 && evals > 0 && candidates > 0,
            "{id}: no work pinned"
        );
        assert!(
            covered > 0 && covered <= groups,
            "{id}: covered {covered} of {groups} groups"
        );
        assert!(weight > 0.0, "{id}");
    }
}

// ---------- the differential replay ----------

/// Every cell, fresh: reproduce the committed fingerprint, bit-identical
/// across `threads = 1` vs `4`, and FastV1 within 1e-9 of its Exact
/// sibling with identical work counters.
#[test]
fn cells_replay_committed_fingerprints() {
    for spec in MATRIX_DATASETS {
        let ds = workloads::generate(&spec, SEED);
        for shape in QueryShape::ALL {
            let mut exact: Option<Summary> = None;
            for mode in [NumericMode::Exact, NumericMode::FastV1] {
                let id = format!("{}/{}/{}", spec.name, shape.as_str(), mode.as_str());
                let t1 = run_cell(&ds, &spec, shape, mode, 1);
                let t4 = run_cell(&ds, &spec, shape, mode, 4);
                assert_eq!(
                    full_print(&t1),
                    full_print(&t4),
                    "{id}: threads 1 vs 4 diverged"
                );

                let (_, _, groups, evals, candidates, covered, weight, downdates, regathers) =
                    *CELL_PINS
                        .iter()
                        .find(|p| p.0 == id)
                        .unwrap_or_else(|| panic!("{id} has no pin"));
                assert_eq!(t1.m, groups, "{id}: group count drifted");
                assert_eq!(
                    t1.cate_evaluations, evals,
                    "{id}: cate_evaluations drifted from the committed pin"
                );
                assert_eq!(t1.candidates, candidates, "{id}: candidates drifted");
                assert_eq!(t1.covered, covered, "{id}: coverage drifted");
                assert_eq!(t1.downdates, downdates, "{id}: downdates drifted");
                assert_eq!(t1.regathers, regathers, "{id}: regathers drifted");
                // The pin has 6 decimals; anything beyond rounding error
                // is a real numeric change.
                assert!(
                    (t1.total_weight - weight).abs() < 1e-5,
                    "{id}: total_weight {} drifted from committed {weight}",
                    t1.total_weight
                );

                match mode {
                    NumericMode::Exact => exact = Some(t1),
                    NumericMode::FastV1 => {
                        let e = exact.as_ref().expect("Exact ran first");
                        assert_eq!(e.cate_evaluations, t1.cate_evaluations, "{id}");
                        assert_eq!(e.candidates, t1.candidates, "{id}");
                        assert_eq!(e.covered, t1.covered, "{id}");
                        let rel = (e.total_weight - t1.total_weight).abs()
                            / e.total_weight.abs().max(1e-30);
                        assert!(
                            rel <= 1e-9,
                            "{id}: FastV1 drifted {rel:.3e} relative from Exact"
                        );
                    }
                }
            }
        }
    }
}

/// The SO pipeline at each pinned size, fresh session, default config:
/// reproduce the committed counters exactly and the weight to the pin's
/// six decimals.
#[test]
fn so_sizes_replay_committed_pins() {
    for (n, evals, candidates, covered, groups, weight) in SO_SIZE_PINS {
        let ds = datagen::so::generate(n, SEED);
        let query = ds.query();
        let s = Session::new(ds.table, ds.dag, CausumxConfig::default())
            .prepare(query)
            .unwrap()
            .run();
        assert_eq!(
            s.cate_evaluations, evals,
            "n={n}: cate_evaluations drifted from the committed pin"
        );
        assert_eq!(s.candidates, candidates, "n={n}: candidates drifted");
        assert_eq!(s.covered, covered, "n={n}: coverage drifted");
        assert_eq!(s.m, groups, "n={n}: group count drifted");
        assert!(
            (s.total_weight - weight).abs() < 1e-6,
            "n={n}: total_weight {} drifted from committed {weight}",
            s.total_weight
        );
    }
}

/// Per cell and mode, every treatment of every mined candidate — not only
/// the selected ones — equals the cold estimator run from scratch on the
/// candidate's subpopulation: the pattern re-evaluated on the table, the
/// backdoor set looked up by a fresh miner, and `estimate_cate` on the
/// dense one-hot columns. That holds the panel's level codes, the sparse
/// gathers, the FastV1 downdates and the deferred p-values to one oracle.
#[test]
fn ablation_knobs_are_inert_per_cell() {
    for spec in MATRIX_DATASETS {
        let ds = workloads::generate(&spec, SEED);
        for shape in QueryShape::ALL {
            for mode in [NumericMode::Exact, NumericMode::FastV1] {
                let id = format!("{}/{}/{}", spec.name, shape.as_str(), mode.as_str());
                let cfg = ConfigBuilder::new()
                    .numeric_mode(mode)
                    .threads(1)
                    .build()
                    .unwrap();
                let session = Session::new(ds.table.clone(), ds.dag.clone(), cfg.clone());
                let pq = session
                    .prepare(workloads::shaped_query(&ds, &spec, shape))
                    .unwrap();
                let candidates = pq.mine_candidates();
                assert!(!candidates.explanations.is_empty(), "{id}: no candidates");
                let outcome = pq.query().avg;
                let oracle_miner = TreatmentMiner::new(
                    &ds.table,
                    &ds.dag,
                    outcome,
                    &pq.attr_split().treatment,
                    cfg.lattice.clone(),
                );
                let mut checked = 0;
                for e in &candidates.explanations {
                    let subpop = candidates.view.subpopulation_mask(&e.coverage);
                    for t in [&e.positive, &e.negative].into_iter().flatten() {
                        common::check_oracle(
                            &ds.table,
                            &oracle_miner,
                            outcome,
                            &subpop,
                            t,
                            &cfg.lattice.cate_opts,
                        )
                        .unwrap_or_else(|err| panic!("{id}: {err}"));
                        checked += 1;
                    }
                }
                assert!(checked >= candidates.explanations.len(), "{id}");
            }
        }
    }
}

// ---------- discovered-DAG pipeline ----------

/// The synthetic matrix dataset (known SCM), its representative query,
/// and the ground-truth-DAG summary to compare against.
fn synthetic_truth() -> (datagen::Dataset, MatrixDataset, Summary) {
    let spec = MATRIX_DATASETS
        .into_iter()
        .find(|d| d.name == "synthetic")
        .expect("matrix has a synthetic row");
    let ds = workloads::generate(&spec, SEED);
    let truth = run_cell(&ds, &spec, QueryShape::Single, NumericMode::Exact, 1);
    (ds, spec, truth)
}

/// `Session::with_discovered_dag` end to end: every discovery algorithm
/// learns a DAG from the synthetic table and drives explanation mining
/// to (near) ground-truth quality. Floors come from probing seeds
/// {7, 42, 99}: PC/FCI/hill-climb reproduced the ground-truth summary
/// exactly (weight ratio 1.000), LiNGAM's worst ratio was 0.917 — so
/// 0.95 / 0.85 leave margin without letting quality quietly halve.
#[test]
fn discovered_dag_explanations_reach_ground_truth_quality() {
    let (ds, _, truth) = synthetic_truth();
    assert_eq!(truth.covered, truth.m, "ground truth covers every group");
    let cfg = ConfigBuilder::new().build().unwrap();
    for (algo, floor) in [
        (DiscoveryAlgo::pc(), 0.95),
        (DiscoveryAlgo::fci(), 0.95),
        (DiscoveryAlgo::hill_climb(), 0.95),
        (DiscoveryAlgo::Lingam, 0.85),
    ] {
        let session = Session::with_discovered_dag(ds.table.clone(), algo, cfg.clone());
        let summary = session.prepare(ds.query()).unwrap().run();
        assert_eq!(
            summary.covered,
            truth.covered,
            "{}: discovered DAG lost coverage",
            algo.as_str()
        );
        assert_eq!(summary.m, truth.m, "{}", algo.as_str());
        let ratio = summary.total_weight / truth.total_weight;
        assert!(
            ratio >= floor,
            "{}: weight ratio {ratio:.3} below floor {floor}",
            algo.as_str()
        );
        assert!(summary.cate_evaluations > 0, "{}", algo.as_str());
    }
}

/// The discovery row cap is a deterministic prefix: discovering on a
/// table larger than [`Session::DISCOVERY_ROW_CAP`] equals discovering
/// on its first-cap rows directly — sessions over big tables get
/// bounded, reproducible discovery rather than a silent full-table scan.
#[test]
fn discovery_row_cap_is_a_deterministic_prefix() {
    let ds = datagen::adult::generate(Session::DISCOVERY_ROW_CAP + 500, 61);
    let algo = DiscoveryAlgo::pc();
    let capped = algo.discover(&ds.table);
    let prefix = workloads::row_prefix(&ds.table, Session::DISCOVERY_ROW_CAP);
    let direct = discovery::pc(
        &discovery::numeric_columns(&prefix),
        &discovery::attr_names(&prefix),
        0.01,
    );
    assert_eq!(capped.names(), direct.names());
    assert_eq!(
        capped.edges(),
        direct.edges(),
        "row cap must be the first-{} prefix",
        Session::DISCOVERY_ROW_CAP
    );
    // And the capped DAG feeds a session end to end.
    let cfg = ConfigBuilder::new().theta(0.5).build().unwrap();
    let summary = Session::with_discovered_dag(ds.table.clone(), algo, cfg)
        .prepare(ds.query())
        .unwrap()
        .run();
    assert!(summary.covered > 0);
}
