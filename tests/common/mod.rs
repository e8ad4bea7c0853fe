//! The cold-estimator oracle the integration suites hold the engine to.
//!
//! A treatment result the engine produced — through the lattice walk's
//! panel-assembled contexts, level codes, sparse gathers, downdates and
//! deferred p-values — must equal the estimator run from scratch: the
//! treatment pattern re-evaluated on the table, the backdoor set looked up
//! again, and [`estimate_cate`] (the dense one-hot cold build) fitted on
//! the subpopulation mask. Under `NumericMode::Exact` the CATE, p-value and
//! arm counts must match bit for bit. Under `NumericMode::FastV1` the arm
//! counts must match and the CATE and p-value must agree within 1e-9
//! relative, because a downdated fit subtracts its parent's moments in a
//! different order than the oracle's gather.

use causal::estimate::{estimate_cate, CateOptions};
use causal::NumericMode;
use mining::treatment::{TreatmentMiner, TreatmentResult};
use table::Table;

/// Hold `got`, a result the engine mined for the subpopulation `subpop` of
/// `table`, to the oracle. `miner` supplies the backdoor sets
/// ([`TreatmentMiner::confounders_for`]); `outcome` and `opts` are the ones
/// the engine ran with. `Err` describes the first disagreement.
pub fn check_oracle(
    table: &Table,
    miner: &TreatmentMiner<'_>,
    outcome: usize,
    subpop: &[bool],
    got: &TreatmentResult,
    opts: &CateOptions,
) -> Result<(), String> {
    let what = got.pattern.display(table);
    let treated = got
        .pattern
        .eval(table)
        .map_err(|e| format!("{what}: does not evaluate: {e}"))?;
    let confounders = miner.confounders_for(&got.pattern.attrs());
    let want = estimate_cate(table, Some(subpop), &treated, outcome, &confounders, opts)
        .ok_or_else(|| format!("{what}: the oracle has no estimate"))?;
    if (got.n_treated, got.n_control) != (want.n_treated, want.n_control) {
        return Err(format!(
            "{what}: arms {}/{} vs oracle {}/{}",
            got.n_treated, got.n_control, want.n_treated, want.n_control
        ));
    }
    let agree = |a: f64, b: f64| match opts.numeric_mode {
        NumericMode::Exact => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
        NumericMode::FastV1 => {
            a == b || (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
        }
    };
    if !agree(got.cate, want.cate) {
        return Err(format!("{what}: CATE {} vs oracle {}", got.cate, want.cate));
    }
    if !agree(got.p_value, want.p_value) {
        return Err(format!(
            "{what}: p-value {} vs oracle {}",
            got.p_value, want.p_value
        ));
    }
    Ok(())
}
