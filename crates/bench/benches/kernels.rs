//! Criterion micro-benchmarks of the hot kernels: group-by evaluation,
//! pattern evaluation, Apriori, CATE estimation (naive, context build,
//! dense vs sparse per-treatment estimates), bitset popcount kernels, the
//! numeric-mode reduction kernels (serial fold vs fixed-lane, regather vs
//! downdate), the treatment lattice, and the simplex/rounding selection
//! step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use causal::context::{ContextCache, EstimationContext, SubpopPanel};
use causal::estimate::{estimate_cate, CateOptions};
use lpsolve::cover::{randomized_rounding, solve_lp_relaxation, CoverInstance};
use mining::apriori::apriori;
use mining::grouping::mine_grouping_patterns;
use mining::treatment::{LatticeOptions, TreatmentMiner};
use mining::RunGuard;
use table::bitset::BitSet;
use table::fd::{fd_closure, treatment_attrs};
use table::pattern::{Pattern, Pred};

fn bench_groupby(c: &mut Criterion) {
    let ds = datagen::so::generate(10_000, 1);
    let query = ds.query();
    c.bench_function("groupby_avg_10k", |b| {
        b.iter(|| query.run(&ds.table).unwrap().num_groups())
    });
}

fn bench_pattern_eval(c: &mut Criterion) {
    let ds = datagen::so::generate(10_000, 1);
    let edu = ds.table.attr("Education").unwrap();
    let age = ds.table.attr("Age").unwrap();
    let p = Pattern::new(vec![
        Pred::eq(edu, "Masters"),
        Pred::cmp(age, table::Op::Lt, 35i64),
    ]);
    c.bench_function("pattern_eval_10k_2preds", |b| {
        b.iter(|| p.eval(&ds.table).unwrap().iter().filter(|&&x| x).count())
    });
}

fn bench_apriori(c: &mut Criterion) {
    let ds = datagen::so::generate(10_000, 1);
    let gp = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
    let min_support = ds.table.nrows() / 10;
    c.bench_function("apriori_grouping_10k", |b| {
        b.iter(|| apriori(&ds.table, &gp, min_support, 3).len())
    });
}

fn bench_grouping_mining(c: &mut Criterion) {
    let ds = datagen::so::generate(10_000, 1);
    let view = ds.query().run(&ds.table).unwrap();
    let gp = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
    c.bench_function("grouping_patterns_10k", |b| {
        b.iter(|| mine_grouping_patterns(&ds.table, &view, &gp, 0.1, 3).len())
    });
}

fn bench_cate(c: &mut Criterion) {
    let mut group = c.benchmark_group("cate");
    for &n in &[2_000usize, 8_000] {
        let ds = datagen::so::generate(n, 1);
        let edu = ds.table.attr("Education").unwrap();
        let p = Pattern::single(Pred::eq(edu, "Masters"));
        let treated = p.eval(&ds.table).unwrap();
        // Confounders of Education in the ground-truth DAG.
        let conf: Vec<usize> = ["Age", "Gender", "EducationParents"]
            .iter()
            .map(|a| ds.table.attr(a).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                estimate_cate(
                    &ds.table,
                    None,
                    &treated,
                    ds.outcome,
                    &conf,
                    &CateOptions::default(),
                )
                .unwrap()
                .cate
            })
        });
    }
    group.finish();
}

/// `EstimationContext` economics: the one-off build cost per
/// (subpopulation, confounder set) vs the per-treatment estimate cost it
/// amortizes — with the dense full-width scan and the sparse local gather
/// side by side (the local path is what the projected lattice walk pays),
/// plus the sparse gather on a context built with a 400-row sample cap.
fn bench_estimation_context(c: &mut Criterion) {
    let ds = datagen::so::generate(8_000, 1);
    let edu = ds.table.attr("Education").unwrap();
    let treated = BitSet::from_mask(
        &Pattern::single(Pred::eq(edu, "Masters"))
            .eval(&ds.table)
            .unwrap(),
    );
    // A skewed ~half-table subpopulation, like a grouping pattern's.
    let subpop = {
        let mut b = BitSet::new(ds.table.nrows());
        for i in 0..ds.table.nrows() {
            if i % 7 != 0 && i % 3 != 1 {
                b.insert(i);
            }
        }
        b
    };
    let conf: Vec<usize> = ["Age", "Gender", "EducationParents"]
        .iter()
        .map(|a| ds.table.attr(a).unwrap())
        .collect();
    let opts = CateOptions::default();

    let mut group = c.benchmark_group("estimation_context");
    group.bench_function("build_8k_q3", |b| {
        b.iter(|| {
            EstimationContext::new(&ds.table, Some(&subpop), ds.outcome, &conf, &opts)
                .unwrap()
                .n()
        })
    });
    let ctx = EstimationContext::new(&ds.table, Some(&subpop), ds.outcome, &conf, &opts).unwrap();
    group.bench_function("estimate_dense_8k_q3", |b| {
        b.iter(|| ctx.estimate(&treated).unwrap().cate)
    });
    let local = treated.project(&subpop);
    group.bench_function("estimate_sparse_8k_q3", |b| {
        b.iter(|| ctx.estimate_local(&local).unwrap().cate)
    });
    // The same estimate under the §5.2(d) sample cap: the walk visits only
    // the treated rows the 400-row sample kept.
    let capped = CateOptions {
        sample_cap: Some(400),
        ..CateOptions::default()
    };
    let sampled =
        EstimationContext::new(&ds.table, Some(&subpop), ds.outcome, &conf, &capped).unwrap();
    group.bench_function("estimate_sparse_sampled_8k_cap400_q3", |b| {
        b.iter(|| sampled.estimate_local(&local).unwrap().cate)
    });
    group.finish();
}

/// Confounder-panel economics: the contexts of several overlapping
/// backdoor sets built cold (one `O(n·q²)` pass per set over dense
/// one-hot columns) vs assembled from one shared [`SubpopPanel`] (each
/// row gather, level coding and cross-Gram block computed once per
/// subpopulation), a cold panel build of one categorical-heavy set, and
/// the marginal cost of a fully warm `O(q²)` assembly.
fn bench_confounder_panel(c: &mut Criterion) {
    let ds = datagen::so::generate(8_000, 1);
    let subpop = {
        let mut b = BitSet::new(ds.table.nrows());
        for i in 0..ds.table.nrows() {
            if i % 7 != 0 && i % 3 != 1 {
                b.insert(i);
            }
        }
        b
    };
    let attr = |name: &str| ds.table.attr(name).unwrap();
    // Overlapping sets, as a paired lattice walk's backdoor lookups yield.
    let sets: Vec<Vec<usize>> = vec![
        vec![attr("Age")],
        vec![attr("Age"), attr("Gender")],
        vec![attr("Age"), attr("EducationParents")],
        vec![attr("Age"), attr("Gender"), attr("EducationParents")],
    ];
    let opts = CateOptions::default();
    let cold_all = || -> usize {
        sets.iter()
            .map(|s| {
                EstimationContext::new(&ds.table, Some(&subpop), ds.outcome, s, &opts)
                    .map_or(0, |ctx| ctx.n())
            })
            .sum()
    };
    let panel_all = || -> usize {
        let mut cache = ContextCache::new();
        sets.iter()
            .map(|s| {
                cache
                    .get_or_build(&ds.table, Some(&subpop), ds.outcome, s.clone(), &opts)
                    .map_or(0, |ctx| ctx.n())
            })
            .sum()
    };

    let mut group = c.benchmark_group("confounder_panel");
    group.bench_function("cold_builds_4sets_8k", |b| b.iter(cold_all));
    group.bench_function("panel_builds_4sets_8k", |b| b.iter(panel_all));
    // A cold panel build of Role's parents in the SO DAG (q = 10): two
    // numeric and two categorical confounders, so its pair blocks include
    // a categorical×categorical contingency table.
    let role_backdoor: Vec<usize> = ["Age", "Education", "Major", "YearsCoding"]
        .iter()
        .map(|&a| attr(a))
        .collect();
    group.bench_function("panel_builds_role_backdoor_8k", |b| {
        b.iter(|| {
            SubpopPanel::new(&ds.table, Some(&subpop), ds.outcome, &opts)
                .assemble(&ds.table, &role_backdoor)
                .map_or(0, |ctx| ctx.num_design_cols())
        })
    });
    // Warm assembly: every attribute and pair block already materialized.
    let mut panel = SubpopPanel::new(&ds.table, Some(&subpop), ds.outcome, &opts);
    for s in &sets {
        let _ = panel.assemble(&ds.table, s);
    }
    group.bench_function("warm_assemble_q3_8k", |b| {
        b.iter(|| panel.assemble(&ds.table, &sets[3]).unwrap().n())
    });
    group.finish();
}

/// Word-batched popcount kernels vs the scalar reference, at the widths
/// the pipeline actually sees (4k/30k-row tables, 200k-row scale target).
fn bench_bitset_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset_intersection_count");
    for &nbits in &[4_000usize, 30_000, 200_000] {
        let mut a = BitSet::new(nbits);
        let mut b = BitSet::new(nbits);
        for i in 0..nbits {
            if i % 3 != 0 {
                a.insert(i);
            }
            if i % 5 < 3 {
                b.insert(i);
            }
        }
        group.bench_with_input(BenchmarkId::new("scalar", nbits), &nbits, |bench, _| {
            bench.iter(|| a.intersection_count_scalar(&b))
        });
        group.bench_with_input(BenchmarkId::new("batched", nbits), &nbits, |bench, _| {
            bench.iter(|| a.intersection_count(&b))
        });
        group.bench_with_input(BenchmarkId::new("difference", nbits), &nbits, |bench, _| {
            bench.iter(|| a.difference_count(&b))
        });
        group.bench_with_input(BenchmarkId::new("project", nbits), &nbits, |bench, _| {
            let p = table::bitset::Projector::new(&b);
            bench.iter(|| p.project(&a).count())
        });
    }
    group.finish();
}

/// Numeric-mode kernels: the serial ascending fold (`Exact`) vs the
/// fixed-lane reduction (`FastV1`) on raw sum/dot/RSS passes, and the
/// downdated-moments path vs a full re-gather for a subset candidate —
/// at the table widths the pipeline sees (4k/30k rows, 200k scale
/// target).
fn bench_numeric_kernels(c: &mut Criterion) {
    use stats::numeric::{self, NumericMode};

    let mut group = c.benchmark_group("numeric_mode");
    for &n in &[4_000usize, 30_000, 200_000] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let b_: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() - 0.25).collect();
        group.bench_with_input(BenchmarkId::new("sum_exact", n), &n, |bench, _| {
            bench.iter(|| numeric::sum(NumericMode::Exact, &a))
        });
        group.bench_with_input(BenchmarkId::new("sum_fast_v1", n), &n, |bench, _| {
            bench.iter(|| numeric::sum(NumericMode::FastV1, &a))
        });
        group.bench_with_input(BenchmarkId::new("dot_exact", n), &n, |bench, _| {
            bench.iter(|| numeric::dot(NumericMode::Exact, &a, &b_))
        });
        group.bench_with_input(BenchmarkId::new("dot_fast_v1", n), &n, |bench, _| {
            bench.iter(|| numeric::dot(NumericMode::FastV1, &a, &b_))
        });
        group.bench_with_input(BenchmarkId::new("rss_fast_v1", n), &n, |bench, _| {
            bench.iter(|| numeric::lane_sq_diff(&a, &b_))
        });
    }

    // Downdated moments vs full re-gather: a subset candidate keeping
    // ~94% of its parent's treated rows, on the real SO table.
    for &n in &[4_000usize, 30_000, 200_000] {
        let ds = datagen::so::generate(n, 1);
        let edu = ds.table.attr("Education").unwrap();
        let parent_bits = BitSet::from_mask(
            &Pattern::single(Pred::eq(edu, "Masters"))
                .eval(&ds.table)
                .unwrap(),
        );
        let mut removed = BitSet::new(ds.table.nrows());
        for (k, i) in parent_bits.iter().enumerate() {
            if k % 16 == 0 {
                removed.insert(i);
            }
        }
        let child = parent_bits.difference(&removed);
        let conf: Vec<usize> = ["Age", "Gender", "EducationParents"]
            .iter()
            .map(|a| ds.table.attr(a).unwrap())
            .collect();
        let opts = CateOptions {
            numeric_mode: NumericMode::FastV1,
            ..CateOptions::default()
        };
        let ctx = EstimationContext::new(&ds.table, None, ds.outcome, &conf, &opts).unwrap();
        let (_, parent_moments) = ctx.estimate_local_moments(&parent_bits).unwrap();
        group.bench_with_input(BenchmarkId::new("regather", n), &n, |bench, _| {
            bench.iter(|| ctx.estimate_local_moments(&child).unwrap().0.cate)
        });
        group.bench_with_input(BenchmarkId::new("downdate", n), &n, |bench, _| {
            bench.iter(|| {
                ctx.estimate_downdated(&child, &parent_moments, &removed)
                    .unwrap()
                    .0
                    .cate
            })
        });
    }
    group.finish();
}

fn bench_lattice(c: &mut Criterion) {
    let ds = datagen::so::generate(4_000, 1);
    let t_attrs = treatment_attrs(&ds.table, &ds.group_by, &[ds.outcome]);
    let miner = TreatmentMiner::new(
        &ds.table,
        &ds.dag,
        ds.outcome,
        &t_attrs,
        LatticeOptions::default(),
    );
    let subpop = table::bitset::BitSet::full(ds.table.nrows());
    let guard = RunGuard::unlimited();
    c.bench_function("treatment_lattice_so_4k", |b| {
        b.iter(|| {
            // The best positive treatment, on one worker per core.
            miner
                .mine_paired_many_guarded(&[&subpop], 1, false, 0, &guard)
                .unwrap()[0]
                .positive
                .is_empty()
        })
    });
}

fn bench_selection(c: &mut Criterion) {
    // 60 candidates over 40 groups, k = 5, θ = 0.75.
    let m = 40;
    let l = 60;
    let covers: Vec<BitSet> = (0..l)
        .map(|j| {
            let mut b = BitSet::new(m);
            for g in 0..m {
                if (g * 7 + j * 3) % 5 < 2 {
                    b.insert(g);
                }
            }
            b
        })
        .collect();
    let inst = CoverInstance {
        weights: (0..l).map(|j| 1.0 + (j % 13) as f64).collect(),
        covers,
        m,
        k: 5,
        theta: 0.75,
    };
    c.bench_function("lp_relax_plus_rounding_60x40", |b| {
        b.iter(|| {
            let g = solve_lp_relaxation(&inst).unwrap();
            randomized_rounding(&inst, &g, 64, 7).unwrap().total_weight
        })
    });

    // The shape of a synthetic_wide query: 14 candidates over 500 groups,
    // whose covers depend on `g % 8` only, so the LP sees seven signature
    // classes (the 62 groups with `g % 8 == 7` are covered by none).
    let (m, l) = (500, 14);
    let covers: Vec<BitSet> = (0..l)
        .map(|j| {
            let mut b = BitSet::new(m);
            for g in 0..m {
                let c = g % 8;
                if c < 7 && ((j >> (c % 4)) & 1 == 1 || j % 7 == c) {
                    b.insert(g);
                }
            }
            b
        })
        .collect();
    let wide = CoverInstance {
        weights: (0..l).map(|j| 2.0 + (j % 5) as f64).collect(),
        covers,
        m,
        k: 5,
        theta: 0.75,
    };
    c.bench_function("lp_relax_plus_rounding_14x500", |b| {
        b.iter(|| {
            let g = solve_lp_relaxation(&wide).unwrap();
            randomized_rounding(&wide, &g, 64, 7).unwrap().total_weight
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_groupby,
        bench_pattern_eval,
        bench_apriori,
        bench_grouping_mining,
        bench_cate,
        bench_estimation_context,
        bench_confounder_panel,
        bench_bitset_kernels,
        bench_numeric_kernels,
        bench_lattice,
        bench_selection
);
criterion_main!(kernels);
