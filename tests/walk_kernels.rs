//! The lattice walk's per-candidate kernels against per-row reference code
//! that lives in this file only, never in the engine:
//!
//! 1. `gather_matches_per_row_fold`: the moments `n_treated`, `tᵀy` and
//!    `tᵀZ` that [`EstimationContext::fit`] gathers from a local mask,
//!    bit for bit, against one fold per column over the treated rows in
//!    ascending
//!    order — a serial sum in `Exact`, a [`LaneAcc`] (lane = visitation
//!    rank) in `FastV1` — and a count per kept level of every categorical
//!    confounder; and `fit` on the same rows given over the context's
//!    rows, which on a sampled context is the other coordinate system,
//!    with the same fit and moment bits. Every dense-column count from 0
//!    to 6 is covered, on
//!    panel-assembled contexts (categoricals as level codes, 0–3 coded
//!    blocks with repeated levels, levels without rows and single-level
//!    columns) and on cold ones (every one-hot dummy a dense column, so
//!    more columns than one walk of the kernel folds); sampled and
//!    unsampled; empty, one-row, full and random masks;
//! 2. `downdate_matches_per_row_subtraction`: the moments of
//!    [`EstimationContext::fit_downdated`] against the parent's moments
//!    minus each removed row, one row at a time in ascending order;
//! 3. `residual_matches_per_row_pass`: the residual sum of squares and
//!    the deferred p-value of [`EstimationContext::p_value`] against
//!    a residual sum of squares formed row by row (ŷ in the naive order,
//!    then a serial or an 8-lane fold) and its p-value, on contexts of
//!    more rows than one residual block, with a near-exact fit so
//!    `FastV1` takes its data pass rather than the `O(p)` shortcut;
//! 4. `scratch_fit_matches_matrix_fit`: [`BorderedBlocks::fit_at`]
//!    against the `Matrix` fit it replaced — the bordered Gram placed into
//!    a `Matrix`, the row-by-row Cholesky with its ridge fallback, and
//!    the two-buffer forward and back solves, copied here — on `β` and
//!    `(XᵀX)⁻¹` diagonal bits and on matching `None`s, for widths past the
//!    stack scratch, constant and duplicated confounders, and indefinite
//!    blocks that take several ridge attempts or fail all of them;
//! 5. `scratch_fit_rejects_shape_errors`.
//!
//! Each of these mutations of the engine fails this file: two gather
//! accumulators swapped, `FastV1` lanes assigned by row position instead
//! of visitation rank, the ridge `λ` accumulated across attempts, and a
//! residual block whose length is not a multiple of 8.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use causal::context::{EstimationContext, SubpopPanel, TreatmentMoments};
use causal::estimate::CateOptions;
use causal::NumericMode;
use stats::numeric::{fold8, LaneAcc};
use stats::ols::BorderedBlocks;
use stats::Matrix;
use table::bitset::BitSet;
use table::{Column, Table, TableBuilder};

/// `dense` Float confounders, `coded` categorical ones and an outcome `y`
/// (the last column), `n` rows. Categorical `j` draws from `1 + 2j`
/// levels with skewed frequencies, so levels repeat, the first one is a
/// single-level column (no kept dummy), and rare levels go missing from
/// subpopulations. The outcome is a near-exact function of the
/// confounders on a large offset.
fn kernel_table(n: usize, dense: usize, coded: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TableBuilder::new();
    let mut y: Vec<f64> = (0..n).map(|_| 1e4 + rng.gen_range(-1e-3..1e-3)).collect();
    for j in 0..dense {
        // Repeated values in half the columns, continuous ones in the rest.
        let col: Vec<f64> = (0..n)
            .map(|_| match j % 2 {
                0 => rng.gen_range(0..5) as f64 * 0.75 - 1.0,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect();
        for (yi, v) in y.iter_mut().zip(&col) {
            *yi += (j as f64 + 1.0) * v;
        }
        b = b.float(&format!("d{j}"), col).unwrap();
    }
    for j in 0..coded {
        let levels = 1 + 2 * j;
        let col: Vec<String> = (0..n)
            .map(|_| {
                let l = (rng.gen_range(0.0f64..1.0).powi(3) * levels as f64) as usize;
                format!("l{}", l.min(levels - 1))
            })
            .collect();
        for (yi, v) in y.iter_mut().zip(&col) {
            *yi += v[1..].parse::<f64>().unwrap() * 0.5;
        }
        b = b.cat_owned(&format!("c{j}"), col).unwrap();
    }
    b.float("y", y).unwrap().build().unwrap()
}

/// Confounders in a seeded order that interleaves dense and coded blocks.
fn confounders(table: &Table, seed: u64) -> Vec<usize> {
    let mut attrs: Vec<usize> = (0..table.ncols() - 1).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..i + 1));
    }
    attrs
}

/// The kept one-hot levels of a categorical over `rows`: every level
/// with a row, most frequent first (ties by code), minus the most
/// frequent one, at most `max` of them.
fn kept_levels(codes: &[u32], dict_len: usize, rows: &[usize], max: usize) -> Vec<u32> {
    let mut freq = vec![0usize; dict_len];
    for &r in rows {
        freq[codes[r] as usize] += 1;
    }
    let mut levels: Vec<usize> = (0..dict_len).filter(|&l| freq[l] > 0).collect();
    levels.sort_by_key(|&l| std::cmp::Reverse(freq[l]));
    levels
        .into_iter()
        .skip(1)
        .take(max)
        .map(|l| l as u32)
        .collect()
}

/// One fold over values in visiting order: the serial sum from `+0.0`
/// under `Exact`, lanes by visitation rank under `FastV1`.
fn fold(mode: NumericMode, values: impl Iterator<Item = f64>) -> f64 {
    match mode {
        NumericMode::Exact => {
            let mut acc = 0.0;
            for v in values {
                acc += v;
            }
            acc
        }
        NumericMode::FastV1 => {
            let mut acc = LaneAcc::new();
            for v in values {
                acc.push(v);
            }
            acc.finish()
        }
    }
}

/// The context positions a local mask's rows are walked at: each set
/// bit's subpopulation row, where the context kept it, in ascending
/// order.
fn visited(subrows: &[usize], ctx_rows: &[usize], mask: &BitSet) -> Vec<usize> {
    mask.iter()
        .filter_map(|l| ctx_rows.binary_search(&subrows[l]).ok())
        .collect()
}

/// The moments a per-row pass over `pos` gives: one fold per numeric
/// column, one count per kept level of a categorical one, in design
/// order.
fn reference_moments(
    table: &Table,
    conf: &[usize],
    ctx_rows: &[usize],
    pos: &[usize],
    opts: &CateOptions,
) -> (usize, f64, Vec<f64>) {
    let y = table.column(table.ncols() - 1);
    let ty = fold(
        opts.numeric_mode,
        pos.iter().map(|&p| y.get_f64(ctx_rows[p])),
    );
    let mut tz = Vec::new();
    for &a in conf {
        match table.column(a) {
            Column::Cat { codes, dict } => {
                for l in kept_levels(codes, dict.len(), ctx_rows, opts.max_onehot_levels) {
                    let count = pos.iter().filter(|&&p| codes[ctx_rows[p]] == l).count();
                    tz.push(count as f64);
                }
            }
            col => tz.push(fold(
                opts.numeric_mode,
                pos.iter().map(|&p| col.get_f64(ctx_rows[p])),
            )),
        }
    }
    (pos.len(), ty, tz)
}

fn bits(m: &TreatmentMoments) -> (usize, u64, Vec<u64>) {
    (
        m.n_treated,
        m.ty.to_bits(),
        m.tz.iter().map(|v| v.to_bits()).collect(),
    )
}

fn ref_bits((n, ty, tz): &(usize, f64, Vec<f64>)) -> (usize, u64, Vec<u64>) {
    (*n, ty.to_bits(), tz.iter().map(|v| v.to_bits()).collect())
}

/// A random subpopulation and the contexts of every shape over it: both
/// modes, with and without a sample cap below its size, panel-assembled
/// and cold. The overlap gate is off (`min_arm` 0), so every mask fits.
fn contexts(
    table: &Table,
    conf: &[usize],
    subpop: &BitSet,
    seed: u64,
) -> Vec<(String, CateOptions, EstimationContext)> {
    let mut out = Vec::new();
    for mode in [NumericMode::Exact, NumericMode::FastV1] {
        for cap in [None, Some(subpop.count() * 3 / 5)] {
            let opts = CateOptions {
                numeric_mode: mode,
                sample_cap: cap,
                min_arm: 0,
                max_onehot_levels: 4,
                seed,
            };
            let y = table.ncols() - 1;
            let panel = SubpopPanel::new(table, Some(subpop), y, &opts)
                .assemble(table, conf)
                .expect("a numeric outcome");
            let cold = EstimationContext::new(table, Some(subpop), y, conf, &opts)
                .expect("a numeric outcome");
            let what = format!("{mode:?} cap {cap:?}");
            out.push((format!("{what} panel"), opts.clone(), panel));
            out.push((format!("{what} cold"), opts, cold));
        }
    }
    out
}

/// Empty, one-row, full and random masks over `width` local rows.
fn masks(width: usize, rng: &mut StdRng) -> Vec<BitSet> {
    let mut one = BitSet::new(width);
    if width > 0 {
        one.insert(rng.gen_range(0..width));
    }
    let density = rng.gen_range(0.05..0.95);
    let random = BitSet::from_mask(
        &(0..width)
            .map(|_| rng.gen_bool(density))
            .collect::<Vec<_>>(),
    );
    vec![BitSet::new(width), one, BitSet::full(width), random]
}

fn check_gather(
    table: &Table,
    conf: &[usize],
    subpop: &BitSet,
    seed: u64,
) -> Result<(), TestCaseError> {
    let subrows: Vec<usize> = subpop.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a7e);
    for (what, opts, ctx) in contexts(table, conf, subpop, seed) {
        for mask in masks(subrows.len(), &mut rng) {
            let pos = visited(&subrows, ctx.rows(), &mask);
            let want = ref_bits(&reference_moments(table, conf, ctx.rows(), &pos, &opts));
            let (fit, got) = ctx.fit(&mask).expect("no overlap gate, a solvable fit");
            prop_assert_eq!(bits(&got), want, "{}: local mask", what);
            // The same rows given over the context's rows: under sampling
            // a set of another width, the same fit and moment bits.
            let mut rows = BitSet::new(ctx.n());
            for &p in &pos {
                rows.insert(p);
            }
            let (fit_rows, got_rows) = ctx.fit(&rows).expect("no overlap gate, a solvable fit");
            prop_assert_eq!(bits(&got_rows), bits(&got), "{}: rows of the sample", what);
            // `Debug` prints every f64 so that it reads back to the same
            // bits: equal strings are equal fits.
            prop_assert_eq!(format!("{fit_rows:?}"), format!("{fit:?}"), "{}", what);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1) The gather against a per-row fold, bit for bit.
    #[test]
    fn gather_matches_per_row_fold(
        seed in any::<u64>(),
        n in 150usize..700,
        dense in 0usize..7,
        coded in 0usize..4,
        density in 0.2f64..1.0,
    ) {
        let table = kernel_table(n, dense, coded, seed);
        let conf = confounders(&table, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let subpop = BitSet::from_mask(&(0..n).map(|_| rng.gen_bool(density)).collect::<Vec<_>>());
        prop_assume!(subpop.count() > 10);
        check_gather(&table, &conf, &subpop, seed)?;
    }

    /// (2) The downdate against the parent's moments minus each removed
    /// row, in ascending order.
    #[test]
    fn downdate_matches_per_row_subtraction(
        seed in any::<u64>(),
        n in 150usize..700,
        dense in 0usize..7,
        coded in 0usize..4,
        keep in 0.0f64..1.0,
    ) {
        let table = kernel_table(n, dense, coded, seed);
        let conf = confounders(&table, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd0d);
        let subpop = BitSet::from_mask(&(0..n).map(|_| rng.gen_bool(0.8)).collect::<Vec<_>>());
        prop_assume!(subpop.count() > 10);
        let subrows: Vec<usize> = subpop.iter().collect();
        let width = subrows.len();
        let parent = BitSet::from_mask(&(0..width).map(|_| rng.gen_bool(0.6)).collect::<Vec<_>>());
        let mut child = parent.clone();
        for l in parent.iter() {
            if !rng.gen_bool(keep) {
                child.remove(l);
            }
        }
        let removed = parent.difference(&child);
        let y = table.column(table.ncols() - 1);
        for (what, opts, ctx) in contexts(&table, &conf, &subpop, seed) {
            let (_, pm) = ctx.fit(&parent).expect("a solvable parent");
            let rows = ctx.rows();
            let (mut n_treated, mut ty, mut tz) = (pm.n_treated, pm.ty, pm.tz.clone());
            for p in visited(&subrows, rows, &removed) {
                let r = rows[p];
                n_treated -= 1;
                ty -= y.get_f64(r);
                let mut j = 0;
                for &a in &conf {
                    match table.column(a) {
                        Column::Cat { codes, dict } => {
                            for l in kept_levels(codes, dict.len(), rows, opts.max_onehot_levels) {
                                if codes[r] == l {
                                    tz[j] -= 1.0;
                                }
                                j += 1;
                            }
                        }
                        col => {
                            tz[j] -= col.get_f64(r);
                            j += 1;
                        }
                    }
                }
            }
            let (_, got) = ctx.fit_downdated(&pm, &removed).expect("a solvable child");
            prop_assert_eq!(bits(&got), ref_bits(&(n_treated, ty, tz)), "{}", what);
        }
    }
}

/// The residual sum of squares of `beta` over the context's rows, row by
/// row: ŷ = β₀, then β₁ on a treated row, then every confounder's term in
/// design order (a categorical's kept level adds its coefficient), folded
/// serially under `Exact` and into lanes by row under `FastV1`.
fn reference_rss(
    table: &Table,
    conf: &[usize],
    ctx_rows: &[usize],
    treated: &[bool],
    beta: &[f64],
    opts: &CateOptions,
) -> f64 {
    let y = table.column(table.ncols() - 1);
    let mut serial = 0.0;
    let mut lanes = [0.0f64; 8];
    for (i, &r) in ctx_rows.iter().enumerate() {
        let mut yhat = beta[0];
        if treated[i] {
            yhat += beta[1];
        }
        let mut j = 2;
        for &a in conf {
            match table.column(a) {
                Column::Cat { codes, dict } => {
                    for l in kept_levels(codes, dict.len(), ctx_rows, opts.max_onehot_levels) {
                        if codes[r] == l {
                            yhat += beta[j];
                        }
                        j += 1;
                    }
                }
                col => {
                    yhat += col.get_f64(r) * beta[j];
                    j += 1;
                }
            }
        }
        let e = y.get_f64(r) - yhat;
        serial += e * e;
        lanes[i & 7] += e * e;
    }
    match opts.numeric_mode {
        NumericMode::Exact => serial,
        NumericMode::FastV1 => fold8(lanes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (3) The deferred p-value against one from a per-row residual pass,
    /// on more rows than one residual block.
    #[test]
    fn residual_matches_per_row_pass(
        seed in any::<u64>(),
        dense in 0usize..4,
        coded in 0usize..3,
        density in 0.1f64..0.9,
    ) {
        let n = 9_500;
        let table = kernel_table(n, dense, coded, seed);
        let conf = confounders(&table, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e5);
        let subpop = BitSet::from_mask(&(0..n).map(|_| rng.gen_bool(0.95)).collect::<Vec<_>>());
        let subrows: Vec<usize> = subpop.iter().collect();
        let mask = BitSet::from_mask(
            &(0..subrows.len()).map(|_| rng.gen_bool(density)).collect::<Vec<_>>(),
        );
        for (what, opts, ctx) in contexts(&table, &conf, &subpop, seed) {
            let (fit, _) = ctx.fit(&mask).expect("a solvable fit");
            let mut treated = vec![false; ctx.n()];
            for p in visited(&subrows, ctx.rows(), &mask) {
                treated[p] = true;
            }
            let rss = reference_rss(&table, &conf, ctx.rows(), &treated, &fit.gram().beta, &opts);
            let got = ctx.rss(&fit, &mask);
            prop_assert_eq!(got.to_bits(), rss.to_bits(), "{}: rss {} vs {}", what, got, rss);
            let want = fit.gram().p_value(rss);
            let got = ctx.p_value(&fit, &mask);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: p {} vs {}", what, got, want);
        }
    }
}

/// The bordered Gram and `Xᵀy` placed into a `Matrix` and a `Vec`, as the
/// engine assembled them before its scratch fit.
fn matrix_gram(b: &BorderedBlocks<'_>) -> (Matrix, Vec<f64>) {
    let q = b.sum_z.len();
    let p = q + 2;
    let mut gram = Matrix::zeros(p, p);
    gram[(0, 0)] = b.n as f64;
    gram[(0, 1)] = b.n_treated as f64;
    gram[(1, 0)] = b.n_treated as f64;
    gram[(1, 1)] = b.n_treated as f64;
    for j in 0..q {
        gram[(0, 2 + j)] = b.sum_z[j];
        gram[(2 + j, 0)] = b.sum_z[j];
        gram[(1, 2 + j)] = b.tz[j];
        gram[(2 + j, 1)] = b.tz[j];
        for i in 0..q {
            gram[(2 + i, 2 + j)] = b.zz[(i, j)];
        }
    }
    let mut xty = vec![b.sum_y, b.ty];
    xty.extend_from_slice(b.zy);
    (gram, xty)
}

/// Row-by-row Cholesky into a fresh zero `Matrix`.
fn matrix_cholesky(a: &Matrix) -> Option<Matrix> {
    let n = a.nrows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// The ridge fallback: a clone with `λ` on the diagonal, ×100 per
/// attempt, 12 attempts.
fn matrix_spd_factor(a: &Matrix) -> Option<Matrix> {
    if let Some(l) = matrix_cholesky(a) {
        return Some(l);
    }
    let n = a.nrows();
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum::<f64>().max(1.0);
    let mut lambda = 1e-10 * trace / n as f64;
    for _ in 0..12 {
        let mut r = a.clone();
        for i in 0..n {
            r[(i, i)] += lambda;
        }
        if let Some(l) = matrix_cholesky(&r) {
            return Some(l);
        }
        lambda *= 100.0;
    }
    None
}

/// Forward then back substitution, each into its own buffer.
fn matrix_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.nrows();
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * z[k];
        }
        z[i] = s / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in i + 1..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// The `Matrix` fit: `β` and the target's `(XᵀX)⁻¹` diagonal, in the
/// `Debug` form of the engine's `GramFit`.
fn matrix_fit(b: &BorderedBlocks<'_>, target: usize) -> Option<String> {
    let (gram, xty) = matrix_gram(b);
    let p = gram.ncols();
    let l = matrix_spd_factor(&gram)?;
    let beta = matrix_solve(&l, &xty);
    let mut e = vec![0.0; p];
    e[target] = 1.0;
    let inv_diag = matrix_solve(&l, &e)[target];
    Some(format!(
        "GramFit {{ beta: {beta:?}, target: {target}, inv_diag: {inv_diag:?}, n: {} }}",
        b.n
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// (4) The scratch fit against the `Matrix` fit, bit for bit, and
    /// `None` together.
    #[test]
    fn scratch_fit_matches_matrix_fit(
        seed in any::<u64>(),
        q in 0usize..21,
        n in 30usize..400,
        shape in 0usize..4,
        skew in 0usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Columns of Z; `shape` 1 makes one constant, 2 duplicates one.
        let mut z: Vec<Vec<f64>> = (0..q)
            .map(|_| (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect())
            .collect();
        if q > 0 && shape == 1 {
            z[0] = vec![2.5; n];
        }
        if q > 1 && shape == 2 {
            z[1] = z[0].clone();
        }
        let t: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).fold(0.0, |s, (x, y)| s + x * y);
        let tsum = |v: &[f64]| (0..n).filter(|&i| t[i]).fold(0.0, |s, i| s + v[i]);
        let sum_z: Vec<f64> = z.iter().map(|c| c.iter().fold(0.0, |s, v| s + v)).collect();
        let tz: Vec<f64> = z.iter().map(|c| tsum(c)).collect();
        let zy: Vec<f64> = z.iter().map(|c| dot(c, &y)).collect();
        let mut zz = Matrix::zeros(q, q);
        for i in 0..q {
            for j in 0..q {
                zz[(i, j)] = dot(&z[i], &z[j]);
            }
        }
        // An indefinite ZᵀZ: the first diagonal entry pulled below its
        // positive-definite range by a relative `δ`, so the ridge needs
        // more attempts the larger `δ` is, and fails them all at 1.
        if q > 0 && skew > 0 {
            let delta = [0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1.0][skew];
            let trace: f64 = (0..q).map(|i| zz[(i, i)]).sum();
            zz[(0, 0)] -= delta * trace;
        }
        let blocks = BorderedBlocks {
            n,
            n_treated: t.iter().filter(|&&x| x).count(),
            sum_y: y.iter().fold(0.0, |s, v| s + v),
            ty: tsum(&y),
            sum_z: &sum_z,
            tz: &tz,
            zz: &zz,
            zy: &zy,
        };
        for target in 0..q + 2 {
            let got = blocks.fit_at(target).map(|f| format!("{f:?}"));
            prop_assert_eq!(got, matrix_fit(&blocks, target), "q {} target {}", q, target);
        }
        prop_assert!(blocks.fit_at(q + 2).is_none());
    }
}

/// (5) Inconsistent block shapes and empty designs give `None`.
#[test]
fn scratch_fit_rejects_shape_errors() {
    let zz = Matrix::identity(2);
    let ok = BorderedBlocks {
        n: 10,
        n_treated: 4,
        sum_y: 3.0,
        ty: 1.0,
        sum_z: &[1.0, 2.0],
        tz: &[0.5, 1.0],
        zz: &zz,
        zy: &[0.25, 0.5],
    };
    assert!(ok.fit_at(1).is_some());
    let zz3 = Matrix::identity(3);
    let wide = Matrix::zeros(2, 3);
    for bad in [
        BorderedBlocks { tz: &[0.5], ..ok },
        BorderedBlocks {
            zy: &[0.25, 0.5, 1.0],
            ..ok
        },
        BorderedBlocks {
            sum_z: &[1.0],
            ..ok
        },
        BorderedBlocks { zz: &zz3, ..ok },
        BorderedBlocks { zz: &wide, ..ok },
        BorderedBlocks { n: 0, ..ok },
    ] {
        assert!(bad.fit_at(1).is_none(), "{bad:?}");
    }
    assert!(ok.fit_at(4).is_none(), "target past the last column");
}
