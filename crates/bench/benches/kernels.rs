//! Criterion micro-benchmarks of the hot kernels: group-by evaluation,
//! pattern evaluation, Apriori, grouping-pattern coverage, atom-space
//! construction (from scratch and from a session's warm miner memo), CATE
//! estimation (naive, context build,
//! dense vs sparse per-treatment estimates), bitset popcount kernels, the
//! numeric-mode reduction kernels (serial fold vs fixed-lane, regather vs
//! downdate), the treatment lattice, one warm serve-shaped query whose
//! walk stops at level 1, the walk's per-candidate gather and Gram fit,
//! the §5.2(d) scope build drawn fresh vs read from a warm sample memo,
//! grouping from memoized Apriori itemsets vs mined per call, and the
//! simplex/rounding selection step.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use causal::context::{ConfounderKey, ContextCache, EstimationContext, SampleMemo, SubpopPanel};
use causal::estimate::{estimate_cate, CateOptions};
use causal::NumericMode;
use datagen::synthetic::SynthParams;
use lpsolve::cover::{randomized_rounding, solve_lp_relaxation, CoverInstance};
use mining::apriori::apriori;
use mining::grouping::{min_support, mine_grouping_patterns, patterns_from_itemsets};
use mining::treatment::{LatticeOptions, MinerMemo, TreatmentMiner};
use mining::RunGuard;
use table::bitset::BitSet;
use table::fd::{fd_closure, treatment_attrs};
use table::pattern::{Pattern, Pred};
use table::Column;

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

/// The synthetic_wide shape: 50k rows in 500 groups of 100, so coverage
/// is read off Apriori row sets that each span many groups.
fn bench_grouping_mining_wide(c: &mut Criterion) {
    let ds = datagen::synthetic::generate(
        SynthParams {
            n: 50_000,
            tuples_per_group: 100,
            ..SynthParams::default()
        },
        42,
    );
    let view = ds.query().run(&ds.table).unwrap();
    let gp = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
    c.bench_function("grouping_patterns_synth_50k_500g", |b| {
        b.iter(|| mine_grouping_patterns(&ds.table, &view, &gp, 0.1, 3).len())
    });
}

/// The atom space of a session's first prepare: every treatment
/// attribute's atom masks over 30k SO rows (17 of its 20 columns are
/// categorical). Every later prepare on the session assembles the same
/// space, pruned attributes included, from its warm miner memo
/// (`atom_space_so_30k_warm`).
fn bench_atom_space(c: &mut Criterion) {
    let ds = datagen::so::generate(30_000, 42);
    let t_attrs = treatment_attrs(&ds.table, &ds.group_by, &[ds.outcome]);
    c.bench_function("atom_space_so_30k", |b| {
        b.iter(|| {
            TreatmentMiner::new(
                &ds.table,
                &ds.dag,
                ds.outcome,
                &t_attrs,
                LatticeOptions::default(),
            )
            .num_atoms()
        })
    });
    let memo = Arc::new(MinerMemo::new(&ds.table, &ds.dag));
    let warm = || {
        TreatmentMiner::with_memo(
            &ds.table,
            &ds.dag,
            ds.outcome,
            &t_attrs,
            LatticeOptions::default(),
            Arc::clone(&memo),
        )
        .num_atoms()
    };
    warm();
    c.bench_function("atom_space_so_30k_warm", |b| b.iter(warm));
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
    // The eager estimate on a local mask: the fit, then the inference on
    // the same rows.
    let eager = |ctx: &EstimationContext, local: &BitSet| {
        let (fit, _) = ctx.fit(local).unwrap();
        ctx.p_value(&fit, local)
    };
    let local = treated.project(&subpop);
    group.bench_function("estimate_sparse_8k_q3", |b| b.iter(|| eager(&ctx, &local)));
    // The same estimate under the §5.2(d) sample cap: the walk visits only
    // the treated rows the 400-row sample kept.
    let capped = CateOptions {
        sample_cap: Some(400),
        ..CateOptions::default()
    };
    let sampled =
        EstimationContext::new(&ds.table, Some(&subpop), ds.outcome, &conf, &capped).unwrap();
    group.bench_function("estimate_sparse_sampled_8k_cap400_q3", |b| {
        b.iter(|| eager(&sampled, &local))
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
            .enumerate()
            .map(|(id, s)| {
                cache
                    .get_or_build(
                        &ds.table,
                        Some(&subpop),
                        ds.outcome,
                        &ConfounderKey::new(id, s.clone()),
                        &opts,
                    )
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

/// Word-batched popcount kernels and projection, at the widths the
/// pipeline actually sees (4k/30k-row tables, 200k-row scale target).
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
/// fixed-lane reduction (`FastV1`) on raw sum/dot/RSS passes, and a
/// subset candidate's fit from downdated moments
/// (`EstimationContext::fit_downdated`) vs a full re-gather
/// (`EstimationContext::fit`) — at the table widths the pipeline sees
/// (4k/30k rows, 200k scale target).
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
        let (_, parent_moments) = ctx.fit(&parent_bits).unwrap();
        group.bench_with_input(BenchmarkId::new("regather", n), &n, |bench, _| {
            bench.iter(|| ctx.fit(&child).unwrap().0.cate())
        });
        group.bench_with_input(BenchmarkId::new("downdate", n), &n, |bench, _| {
            bench.iter(|| {
                ctx.fit_downdated(&parent_moments, &removed)
                    .unwrap()
                    .0
                    .cate()
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

/// One warm `PreparedQuery::run` under the serve workload's
/// configuration (`max_level 1`, `max_grouping_len 1`, `sample_cap 400`,
/// one worker) on 30k SO rows: the walk is level 1 of every pattern, with
/// the §5.2(d) sample, so this times the level-1 pass end to end.
fn bench_level1_serve(c: &mut Criterion) {
    let ds = datagen::so::generate(30_000, 42);
    let cfg = causumx::ConfigBuilder::new()
        .threads(1)
        .max_level(1)
        .max_grouping_len(1)
        .sample_cap(Some(400))
        .build()
        .unwrap();
    let session = causumx::Session::new(ds.table.clone(), ds.dag.clone(), cfg);
    let prepared = session
        .sql("SELECT Country, AVG(Salary) FROM so GROUP BY Country")
        .unwrap();
    c.bench_function("level1_serve_so_30k", |b| {
        b.iter(|| prepared.run().cate_evaluations)
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

/// The lattice walk's per-candidate kernels. `gather_so_30k`: one
/// Role-style backdoor context (Age, Education, Major, YearsCoding: two
/// dense and two level-coded confounders) over SO 30k, fitting a
/// level-1-density mask (the most frequent Role) and a level-2-density one
/// (that Role and Age < 35) — the `tᵀy`/`tᵀZ` gather plus the fit it
/// feeds, in each numeric mode. `fit_gram`: the Gram fit alone from the
/// bordered blocks, at the walk's mean width (p = 7) and a wide one
/// (p = 30, above the stack scratch).
fn bench_walk_kernels(c: &mut Criterion) {
    let ds = datagen::so::generate(30_000, 42);
    let attr = |name: &str| ds.table.attr(name).unwrap();
    let backdoor: Vec<usize> = ["Age", "Education", "Major", "YearsCoding"]
        .iter()
        .map(|&a| attr(a))
        .collect();
    let Column::Cat { codes, dict } = ds.table.column(attr("Role")) else {
        panic!("Role is categorical");
    };
    let mut freq = vec![0usize; dict.len()];
    for &c in codes {
        freq[c as usize] += 1;
    }
    let top = (0..freq.len()).max_by_key(|&l| freq[l]).unwrap() as u32;
    let age = ds.table.column(attr("Age"));
    let level1 = BitSet::from_mask(&codes.iter().map(|&c| c == top).collect::<Vec<_>>());
    let level2 = BitSet::from_mask(
        &(0..codes.len())
            .map(|r| codes[r] == top && age.get_f64(r) < 35.0)
            .collect::<Vec<_>>(),
    );
    let mut group = c.benchmark_group("gather_so_30k");
    for (name, mode) in [
        ("exact", NumericMode::Exact),
        ("fastv1", NumericMode::FastV1),
    ] {
        let opts = CateOptions {
            numeric_mode: mode,
            ..CateOptions::default()
        };
        let ctx = SubpopPanel::new(&ds.table, None, ds.outcome, &opts)
            .assemble(&ds.table, &backdoor)
            .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let fit = |m: &BitSet| ctx.fit(m).map(|(f, _)| f.cate());
                (fit(&level1), fit(&level2))
            })
        });
        // The fit an `Exact` walk candidate runs: no moments, no heap.
        if mode == NumericMode::Exact {
            group.bench_function("exact_untracked", |b| {
                b.iter(|| {
                    let fit = |m: &BitSet| ctx.fit_untracked(m).map(|f| f.cate());
                    (fit(&level1), fit(&level2))
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("fit_gram");
    for p in [7usize, 30] {
        let (n, q) = (2_000usize, p - 2);
        let col = |j: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i * (2 * j + 3) + j * j) % 17) as f64 + 0.25 * j as f64)
                .collect()
        };
        let z: Vec<Vec<f64>> = (0..q).map(col).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.5 + 1.0).collect();
        let t: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let tsum = |v: &[f64]| (0..n).filter(|&i| t[i]).map(|i| v[i]).sum::<f64>();
        let sum_z: Vec<f64> = z.iter().map(|c| c.iter().sum()).collect();
        let tz: Vec<f64> = z.iter().map(|c| tsum(c)).collect();
        let zy: Vec<f64> = z.iter().map(|c| dot(c, &y)).collect();
        let mut zz = stats::Matrix::zeros(q, q);
        for i in 0..q {
            for j in 0..q {
                zz[(i, j)] = dot(&z[i], &z[j]);
            }
        }
        let blocks = stats::ols::BorderedBlocks {
            n,
            n_treated: t.iter().filter(|&&x| x).count(),
            sum_y: y.iter().sum(),
            ty: tsum(&y),
            sum_z: &sum_z,
            tz: &tz,
            zz: &zz,
            zy: &zy,
        };
        group.bench_function(format!("p{p}"), |b| {
            b.iter(|| blocks.fit_at(1).map(|f| f.beta[1]))
        });
    }
    group.finish();
}

/// The serve workload's table and statement (30k SO rows, `GROUP BY
/// Country`, τ 0.1, `max_grouping_len` 1, `sample_cap` 400), with its
/// grouping patterns.
fn serve_shape() -> (datagen::Dataset, table::query::AggView, Vec<usize>) {
    let ds = datagen::so::generate(30_000, 42);
    let view = ds.query().run(&ds.table).unwrap();
    let gp = fd_closure(&ds.table, &ds.group_by, &[ds.outcome]);
    (ds, view, gp)
}

/// `sampled_scope_so_30k`: the §5.2(d) scope of the serve workload's
/// largest grouping pattern (a panel's construction: sample, row list,
/// outcome gather), with the 400-row sample drawn fresh — a full seeded
/// shuffle of the subpopulation — and read from a warm `SampleMemo`,
/// which selects the rows by rank from the subpopulation's words.
fn bench_sampled_scope(c: &mut Criterion) {
    let (ds, view, gp) = serve_shape();
    let subpop = mine_grouping_patterns(&ds.table, &view, &gp, 0.1, 1)
        .into_iter()
        .map(|g| g.rows)
        .max_by_key(BitSet::count)
        .unwrap();
    let opts = CateOptions {
        sample_cap: Some(400),
        ..CateOptions::default()
    };
    let memo = SampleMemo::new();
    let build = |memo: Option<&SampleMemo>| {
        let panel = match memo {
            Some(m) => SubpopPanel::with_samples(&ds.table, Some(&subpop), ds.outcome, &opts, m),
            None => SubpopPanel::new(&ds.table, Some(&subpop), ds.outcome, &opts),
        };
        panel.attrs_built()
    };
    build(Some(&memo));
    let mut group = c.benchmark_group("sampled_scope_so_30k");
    group.bench_function("fresh", |b| b.iter(|| build(None)));
    group.bench_function("memo_hit", |b| b.iter(|| build(Some(&memo))));
    group.finish();
}

/// `grouping_itemsets_so_30k`: the serve workload's grouping step, mined
/// per call (`mine_grouping_patterns`: Apriori, then coverage) and from a
/// session memo's warm itemsets (`patterns_from_itemsets` alone).
fn bench_grouping_itemsets(c: &mut Criterion) {
    let (ds, view, gp) = serve_shape();
    let memo = MinerMemo::new(&ds.table, &ds.dag);
    let support = min_support(0.1, ds.table.nrows());
    let from_memo = || {
        let frequent = memo.frequent_itemsets(&ds.table, &gp, support, 1);
        patterns_from_itemsets(&ds.table, &view, Some(&frequent)).len()
    };
    from_memo();
    let mut group = c.benchmark_group("grouping_itemsets_so_30k");
    group.bench_function("mined", |b| {
        b.iter(|| mine_grouping_patterns(&ds.table, &view, &gp, 0.1, 1).len())
    });
    group.bench_function("memo_hit", |b| b.iter(from_memo));
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_groupby,
        bench_pattern_eval,
        bench_apriori,
        bench_grouping_mining,
        bench_grouping_mining_wide,
        bench_atom_space,
        bench_cate,
        bench_estimation_context,
        bench_confounder_panel,
        bench_bitset_kernels,
        bench_numeric_kernels,
        bench_lattice,
        bench_level1_serve,
        bench_walk_kernels,
        bench_sampled_scope,
        bench_grouping_itemsets,
        bench_selection
);
criterion_main!(kernels);
