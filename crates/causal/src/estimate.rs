//! ATE/CATE estimation by regression adjustment.
//!
//! The estimator the paper uses (via DoWhy's linear-regression method):
//! within the subpopulation selected by a grouping pattern, regress the
//! outcome on `[1, T, onehot(Z)…]` where `T` is the binary indicator of the
//! treatment pattern and `Z` the backdoor confounders, and report the
//! coefficient of `T` as the (C)ATE with its two-sided t-test p-value.
//!
//! The overlap condition (Eq. 4) is enforced by requiring a minimum number
//! of treated and control units; §5.2 optimization (d) — estimating CATEs
//! on a fixed-size random sample — is supported through
//! [`CateOptions::sample_cap`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::context::EstimationContext;
use stats::matrix::Matrix;
use stats::numeric::NumericMode;
use stats::ols::ols;
use table::bitset::BitSet;
use table::{Column, Table};

/// Knobs for the estimator.
#[derive(Debug, Clone)]
pub struct CateOptions {
    /// §5.2 (d): estimate on a random sample of at most this many rows of
    /// the subpopulation. `None` = use all rows.
    pub sample_cap: Option<usize>,
    /// RNG seed for the sampling, for reproducibility.
    pub seed: u64,
    /// Max one-hot dummies per categorical confounder (most frequent levels
    /// kept; the rest fold into the reference). Keeps designs small on
    /// high-cardinality attributes like Country. The dense one-hot
    /// oracles materialize these dummies as columns; the confounder panel
    /// ([`crate::context::SubpopPanel`]) keeps one level code per row
    /// instead, with the same kept levels, so the cap bounds its design
    /// width, not its memory.
    pub max_onehot_levels: usize,
    /// Overlap: minimum number of units required in each arm.
    pub min_arm: usize,
    /// Which reduction kernels the regression runs: `Exact` (default)
    /// replays the historical ascending-order accumulation bit for bit;
    /// `FastV1` uses 8-lane strided partial sums (deterministic within
    /// the mode, see [`stats::numeric`]).
    pub numeric_mode: NumericMode,
}

impl Default for CateOptions {
    fn default() -> Self {
        CateOptions {
            sample_cap: None,
            seed: 0x5eed,
            max_onehot_levels: 24,
            min_arm: 5,
            numeric_mode: NumericMode::Exact,
        }
    }
}

/// A conditional average treatment effect estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CateResult {
    /// Estimated effect of the treatment on the outcome.
    pub cate: f64,
    /// Two-sided t-test p-value of the treatment coefficient.
    pub p_value: f64,
    /// Rows used in the regression (after subpopulation + sampling).
    pub n: usize,
    /// Treated units among them.
    pub n_treated: usize,
    /// Control units among them.
    pub n_control: usize,
}

/// Estimate `CATE(T, Y | B=b)`, cold, from the full table. The miners
/// estimate through [`crate::context::ContextCache`] instead; this is the
/// oracle their results are held to.
///
/// * `subpop` — boolean mask of the conditioning subpopulation (`None` for
///   the whole table, i.e. plain ATE),
/// * `treated` — boolean mask: does the row satisfy the treatment pattern,
/// * `outcome` — numeric attribute id for `Y`,
/// * `confounders` — attribute ids of the adjustment set `Z`.
///
/// Returns `None` when the overlap condition fails or the regression is
/// unsolvable.
pub fn estimate_cate(
    table: &Table,
    subpop: Option<&[bool]>,
    treated: &[bool],
    outcome: usize,
    confounders: &[usize],
    opts: &CateOptions,
) -> Option<CateResult> {
    let nrows = table.nrows();
    debug_assert_eq!(treated.len(), nrows);

    if opts.numeric_mode == NumericMode::FastV1 {
        // FastV1 has exactly one implementation of every reduction — the
        // context kernels. Delegating a one-shot context build here keeps
        // this oracle bit-identical to the cached path within the mode,
        // the same coherence the Exact contract provides through matching
        // serial folds. (Exact keeps its historical standalone code below,
        // which the context tests pin against.)
        let sub_bits = subpop.map(BitSet::from_mask);
        let ctx = EstimationContext::new(table, sub_bits.as_ref(), outcome, confounders, opts)?;
        return ctx.estimate(&BitSet::from_mask(treated));
    }

    let mut rows: Vec<usize> = match subpop {
        Some(mask) => {
            debug_assert_eq!(mask.len(), nrows);
            (0..nrows).filter(|&r| mask[r]).collect()
        }
        None => (0..nrows).collect(),
    };
    if let Some(cap) = opts.sample_cap {
        if rows.len() > cap {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            rows.shuffle(&mut rng);
            rows.truncate(cap);
            rows.sort_unstable(); // deterministic design ordering
        }
    }

    let n = rows.len();
    let n_treated = rows.iter().filter(|&&r| treated[r]).count();
    let n_control = n - n_treated;
    if n_treated < opts.min_arm || n_control < opts.min_arm {
        return None; // Overlap (Eq. 4) violated.
    }

    // Outcome vector.
    let y: Vec<f64> = {
        let col = table.column(outcome);
        match col {
            Column::Int(_) | Column::Float(_) => rows.iter().map(|&r| col.get_f64(r)).collect(),
            Column::Cat { .. } => return None,
        }
    };

    // Design: intercept, T, then confounders.
    let mut cols: Vec<Vec<f64>> = Vec::new();
    cols.push(
        rows.iter()
            .map(|&r| if treated[r] { 1.0 } else { 0.0 })
            .collect(),
    );
    for &z in confounders {
        append_confounder(table, z, &rows, opts.max_onehot_levels, &mut cols);
    }

    let p = cols.len() + 1;
    let mut x = Matrix::zeros(n, p);
    for (ri, _) in rows.iter().enumerate() {
        x[(ri, 0)] = 1.0;
    }
    for (ci, col) in cols.iter().enumerate() {
        for ri in 0..n {
            x[(ri, ci + 1)] = col[ri];
        }
    }

    let fit = ols(&x, &y)?;
    Some(CateResult {
        cate: fit.beta[1],
        p_value: fit.p_value[1],
        n,
        n_treated,
        n_control,
    })
}

/// Append design columns for one confounder: raw values for numerics,
/// dense one-hot dummies for categoricals, with the levels
/// [`onehot_levels`] keeps. The dense encoding of the naive estimators
/// and of the cold [`crate::context::EstimationContext::new`] build —
/// the oracles the level-coded [`crate::context::SubpopPanel`] is tested
/// against.
pub(crate) fn append_confounder(
    table: &Table,
    attr: usize,
    rows: &[usize],
    max_levels: usize,
    cols: &mut Vec<Vec<f64>>,
) {
    let col = table.column(attr);
    match col {
        Column::Int(_) | Column::Float(_) => {
            cols.push(rows.iter().map(|&r| col.get_f64(r)).collect());
        }
        Column::Cat { codes, dict } => {
            // Frequency of each level within the selected rows.
            let mut freq = vec![0usize; dict.len()];
            for &r in rows {
                freq[codes[r] as usize] += 1;
            }
            for level in onehot_levels(&freq, max_levels) {
                cols.push(
                    rows.iter()
                        .map(|&r| if codes[r] as usize == level { 1.0 } else { 0.0 })
                        .collect(),
                );
            }
        }
    }
}

/// The levels a categorical confounder keeps as one-hot dummies, in
/// design-column order, given each level's frequency over the estimation
/// rows: the most frequent level is the reference and gets no dummy, and
/// at most `max_levels` of the others are kept, most frequent first (ties
/// in dictionary order). Every level not kept folds into the reference.
/// Both encodings — the dense dummies of [`append_confounder`] and the
/// level codes of [`crate::context::SubpopPanel`] — pick their levels
/// here, so they can never pick different ones.
pub(crate) fn onehot_levels(freq: &[usize], max_levels: usize) -> Vec<usize> {
    let mut levels: Vec<usize> = (0..freq.len()).filter(|&l| freq[l] > 0).collect();
    levels.sort_by_key(|&l| std::cmp::Reverse(freq[l]));
    levels.into_iter().skip(1).take(max_levels).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use table::TableBuilder;

    /// Confounded data: Z ~ uniform{0..4}; T = 1 with prob depending on Z;
    /// Y = 10·T + 5·Z + noise. True ATE = 10; the naive difference in means
    /// is biased upward because high-Z units are treated more often.
    fn confounded(n: usize, seed: u64) -> (Table, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z = Vec::with_capacity(n);
        let mut t = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let zi: i64 = rng.gen_range(0..5);
            let p_treat = 0.1 + 0.18 * zi as f64;
            let ti = rng.gen_bool(p_treat);
            let noise: f64 = rng.gen_range(-1.0..1.0);
            z.push(zi);
            t.push(ti);
            y.push(10.0 * ti as i64 as f64 + 5.0 * zi as f64 + noise);
        }
        let table = TableBuilder::new()
            .int("z", z)
            .unwrap()
            .float("y", y)
            .unwrap()
            .build()
            .unwrap();
        (table, t)
    }

    #[test]
    fn adjustment_removes_confounding_bias() {
        let (table, treated) = confounded(4000, 7);
        let opts = CateOptions::default();
        let naive = estimate_cate(&table, None, &treated, 1, &[], &opts).unwrap();
        let adjusted = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert!(
            (naive.cate - 10.0).abs() > 1.0,
            "naive should be visibly biased, got {}",
            naive.cate
        );
        assert!(
            (adjusted.cate - 10.0).abs() < 0.3,
            "adjusted should recover ATE=10, got {}",
            adjusted.cate
        );
        assert!(adjusted.p_value < 1e-6);
    }

    #[test]
    fn subpopulation_restricts_rows() {
        let (table, treated) = confounded(2000, 11);
        // Only even rows.
        let subpop: Vec<bool> = (0..2000).map(|i| i % 2 == 0).collect();
        let r = estimate_cate(
            &table,
            Some(&subpop),
            &treated,
            1,
            &[0],
            &CateOptions::default(),
        )
        .unwrap();
        assert_eq!(r.n, 1000);
        assert!((r.cate - 10.0).abs() < 0.6);
    }

    #[test]
    fn overlap_violation_returns_none() {
        let (table, _) = confounded(100, 3);
        let all_treated = vec![true; 100];
        assert!(
            estimate_cate(&table, None, &all_treated, 1, &[], &CateOptions::default()).is_none()
        );
    }

    #[test]
    fn sampling_is_reproducible_and_close() {
        let (table, treated) = confounded(20_000, 5);
        let opts = CateOptions {
            sample_cap: Some(2_000),
            seed: 99,
            ..CateOptions::default()
        };
        let a = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        let b = estimate_cate(&table, None, &treated, 1, &[0], &opts).unwrap();
        assert_eq!(a.cate, b.cate, "same seed ⇒ same estimate");
        assert_eq!(a.n, 2_000);
        let full = estimate_cate(&table, None, &treated, 1, &[0], &CateOptions::default()).unwrap();
        assert!(
            (a.cate - full.cate).abs() < 0.5,
            "sampled estimate close to full-data estimate"
        );
    }

    #[test]
    fn categorical_confounder_one_hot() {
        // Z categorical with 3 levels shifting Y; T randomized within level.
        let mut rng = StdRng::seed_from_u64(21);
        let n = 3000;
        let mut zs = Vec::new();
        let mut t = Vec::new();
        let mut y = Vec::new();
        let names = ["lo", "mid", "hi"];
        for _ in 0..n {
            let zi = rng.gen_range(0..3usize);
            let ti = rng.gen_bool(0.2 + 0.3 * zi as f64);
            let noise: f64 = rng.gen_range(-0.5..0.5);
            zs.push(names[zi].to_string());
            t.push(ti);
            y.push(3.0 * ti as i64 as f64 + 7.0 * zi as f64 + noise);
        }
        let table = TableBuilder::new()
            .cat_owned("z", zs)
            .unwrap()
            .float("y", y)
            .unwrap()
            .build()
            .unwrap();
        let r = estimate_cate(&table, None, &t, 1, &[0], &CateOptions::default()).unwrap();
        assert!((r.cate - 3.0).abs() < 0.2, "got {}", r.cate);
    }

    #[test]
    fn categorical_outcome_rejected() {
        let (table, treated) = confounded(100, 1);
        // Outcome attr 0 is int — fine; try a cat table.
        let cat_table = TableBuilder::new()
            .cat("c", &["a"; 100])
            .unwrap()
            .build()
            .unwrap();
        assert!(
            estimate_cate(&cat_table, None, &treated, 0, &[], &CateOptions::default()).is_none()
        );
        let _ = table;
    }
}
