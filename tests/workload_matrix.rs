//! The workload-matrix differential tier.
//!
//! `results/bench_pipeline.json` commits a `matrix` section — five
//! datasets × three query shapes × {Exact, FastV1} from
//! [`bench::workloads`], measured by `perf_smoke --matrix` — and this
//! suite is the other half of that contract: it re-runs every cell in
//! debug builds and hard-asserts
//!
//! * **committed fingerprints** — each fresh cell reproduces the
//!   artifact's `cate_evaluations`, `candidates`, `covered`, `groups`,
//!   `downdates`, `regathers` and `total_weight` (to the artifact's 6
//!   printed decimals) exactly. A counter drift anywhere in the engine
//!   shows up as a named cell, not a vague diff;
//! * **thread bit-identity** — within a cell, `threads = 1` and
//!   `threads = 4` agree bit for bit, weights and walk counters
//!   included (the auto leg of the artifact already asserted `1` vs
//!   `0`; the fixed `4` here exercises real workers even on a
//!   single-core CI host);
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
//! timing, and must not fight sibling tests for cores.

mod common;

use bench::workloads::{self, MatrixDataset, QueryShape, MATRIX_DATASETS, MIN_MATRIX_CELLS};
use causumx::{ConfigBuilder, DiscoveryAlgo, NumericMode, Session, Summary};
use mining::treatment::TreatmentMiner;

/// The committed artifact; a missing file is a compile error, which is
/// the point — the matrix section must ship with the repo.
const ARTIFACT: &str = include_str!("../results/bench_pipeline.json");

/// The seed the committed artifact was generated with (checked against
/// its `seed` field before any fingerprint is compared).
const SEED: u64 = 42;

// ---------- artifact parsing (line scan of our own format) ----------

/// One committed matrix cell, scanned back from its artifact line.
struct CommittedCell {
    dataset: String,
    shape: String,
    mode: String,
    n: usize,
    groups: usize,
    cate_evaluations: usize,
    candidates: usize,
    covered: usize,
    total_weight: f64,
    downdates: usize,
    regathers: usize,
    bit_identical: bool,
}

impl CommittedCell {
    fn id(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.shape, self.mode)
    }
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

/// Parse the quoted string following `key` on `line`, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Every matrix cell committed in the artifact, in artifact order. The
/// format is one cell per line (perf_smoke guarantees it), so a line
/// scan suffices — no JSON parser in the offline container.
fn committed_cells() -> Vec<CommittedCell> {
    let mut out = Vec::new();
    for line in ARTIFACT.lines() {
        let Some(shape) = field_str(line, "\"shape\":") else {
            continue;
        };
        let cell = CommittedCell {
            dataset: field_str(line, "\"dataset\":").expect("matrix line has dataset"),
            shape,
            mode: field_str(line, "\"mode\":").expect("matrix line has mode"),
            n: field_num(line, "\"n\":").expect("matrix line has n") as usize,
            groups: field_num(line, "\"groups\":").expect("groups") as usize,
            cate_evaluations: field_num(line, "\"cate_evaluations\":").expect("evals") as usize,
            candidates: field_num(line, "\"candidates\":").expect("candidates") as usize,
            covered: field_num(line, "\"covered\":").expect("covered") as usize,
            total_weight: field_num(line, "\"total_weight\":").expect("weight"),
            downdates: field_num(line, "\"downdates\":").expect("downdates") as usize,
            regathers: field_num(line, "\"regathers\":").expect("regathers") as usize,
            bit_identical: line.contains("\"bit_identical\": true"),
        };
        out.push(cell);
    }
    out
}

/// The artifact's top-level `seed` field.
fn artifact_seed() -> u64 {
    ARTIFACT
        .lines()
        .find_map(|l| {
            l.trim_start()
                .starts_with("\"seed\":")
                .then(|| field_num(l, "\"seed\":"))
                .flatten()
        })
        .expect("artifact has a seed field") as u64
}

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

// ---------- the committed artifact's structure ----------

/// The artifact must carry the complete matrix: at least the committed
/// floor of cells, exactly the cells [`bench::workloads`] enumerates, in
/// enumeration order, each self-consistent and generated at the pinned
/// seed.
#[test]
fn committed_artifact_pins_the_full_matrix() {
    assert_eq!(
        artifact_seed(),
        SEED,
        "artifact was generated at a non-default seed; regenerate with \
         `perf_smoke --matrix` before running the differential tier"
    );
    let cells = committed_cells();
    assert!(
        cells.len() >= MIN_MATRIX_CELLS,
        "artifact has {} matrix cells, below the committed floor {}",
        cells.len(),
        MIN_MATRIX_CELLS
    );
    let want: Vec<String> = workloads::matrix_cells().iter().map(|c| c.id()).collect();
    let got: Vec<String> = cells.iter().map(|c| c.id()).collect();
    assert_eq!(got, want, "artifact cells must mirror bench::workloads");
    for c in &cells {
        assert!(
            c.bit_identical,
            "{}: thread legs were not bit-identical",
            c.id()
        );
        assert!(c.n > 0 && c.groups > 0, "{}", c.id());
        assert!(c.cate_evaluations > 0, "{}: no work recorded", c.id());
        assert!(c.candidates > 0, "{}", c.id());
        assert!(
            c.covered > 0 && c.covered <= c.groups,
            "{}: covered {} of {} groups",
            c.id(),
            c.covered,
            c.groups
        );
        assert!(c.total_weight > 0.0, "{}", c.id());
        if c.mode == "exact" {
            assert_eq!(c.downdates, 0, "{}: Exact must never downdate", c.id());
        }
    }
}

// ---------- the differential replay ----------

/// Every cell, fresh: reproduce the committed fingerprint, bit-identical
/// across `threads = 1` vs `4`, and FastV1 within 1e-9 of its Exact
/// sibling with identical work counters.
#[test]
fn cells_replay_committed_fingerprints() {
    let committed = committed_cells();
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

                let pin = committed
                    .iter()
                    .find(|c| c.id() == id)
                    .unwrap_or_else(|| panic!("{id} missing from the committed artifact"));
                assert_eq!(pin.n, spec.n, "{id}");
                assert_eq!(t1.m, pin.groups, "{id}: group count drifted");
                assert_eq!(
                    t1.cate_evaluations, pin.cate_evaluations,
                    "{id}: cate_evaluations drifted from the committed artifact"
                );
                assert_eq!(t1.candidates, pin.candidates, "{id}: candidates drifted");
                assert_eq!(t1.covered, pin.covered, "{id}: coverage drifted");
                assert_eq!(t1.downdates, pin.downdates, "{id}: downdates drifted");
                assert_eq!(t1.regathers, pin.regathers, "{id}: regathers drifted");
                // The artifact prints 6 decimals; anything beyond
                // rounding error is a real numeric change.
                assert!(
                    (t1.total_weight - pin.total_weight).abs() < 1e-5,
                    "{id}: total_weight {} drifted from committed {}",
                    t1.total_weight,
                    pin.total_weight
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

/// Per cell and mode, every treatment of every mined candidate — not only
/// the selected ones — equals the cold estimator run from scratch on the
/// candidate's subpopulation: the pattern re-evaluated on the table, the
/// backdoor set looked up by a fresh miner, and `estimate_effect` on the
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
