//! Explanation patterns and summaries — the framework objects of §4.

use mining::treatment::TreatmentResult;
use table::bitset::BitSet;
use table::pattern::Pattern;
use table::Table;

/// One explanation: a grouping pattern with its top positive and/or
/// negative treatment patterns (§4.2, "positive and negative explanation
/// patterns"). The weight is
/// `|Explainability(P_g, P_t⁺)| + |Explainability(P_g, P_t⁻)|`.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The grouping pattern `P_g` over FD-closed attributes.
    pub grouping: Pattern,
    /// Groups of `Q(D)` covered by `P_g` (Definition 4.4).
    pub coverage: BitSet,
    /// Top positive treatment, if any passed the significance filter.
    pub positive: Option<TreatmentResult>,
    /// Top negative treatment, if any.
    pub negative: Option<TreatmentResult>,
    /// Selection weight `w_j` used in the Fig. 5 ILP.
    pub weight: f64,
}

impl Explanation {
    /// Build, computing the weight from the treatment CATEs.
    pub fn new(
        grouping: Pattern,
        coverage: BitSet,
        positive: Option<TreatmentResult>,
        negative: Option<TreatmentResult>,
    ) -> Self {
        let weight = positive.as_ref().map_or(0.0, |t| t.cate.abs())
            + negative.as_ref().map_or(0.0, |t| t.cate.abs());
        Explanation {
            grouping,
            coverage,
            positive,
            negative,
            weight,
        }
    }

    /// Whether at least one treatment pattern was found.
    pub fn has_treatment(&self) -> bool {
        self.positive.is_some() || self.negative.is_some()
    }
}

/// Wall-clock per phase of Algorithm 1 — the Fig. 14/20 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTimings {
    /// Step 1: grouping-pattern mining (ms).
    pub grouping_ms: f64,
    /// Step 2: treatment-pattern mining (ms).
    pub treatment_ms: f64,
    /// Step 3: LP/greedy/exhaustive selection (ms).
    pub selection_ms: f64,
}

impl StepTimings {
    /// Total across the three phases.
    pub fn total_ms(&self) -> f64 {
        self.grouping_ms + self.treatment_ms + self.selection_ms
    }
}

/// The result of a CauSumX run: the chosen explanation set Φ plus
/// diagnostics.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Selected explanations (|Φ| ≤ k).
    pub explanations: Vec<Explanation>,
    /// Number of groups in the view, `m`.
    pub m: usize,
    /// Groups covered by the union of selected grouping patterns.
    pub covered: usize,
    /// Whether the coverage constraint `covered ≥ ⌈θ·m⌉` holds.
    pub feasible: bool,
    /// Total explainability Σ w_j over Φ (the Fig. 8(b) metric).
    pub total_weight: f64,
    /// Number of candidate explanation patterns fed to selection.
    pub candidates: usize,
    /// Lattice candidates evaluated during treatment mining, summed over
    /// both directions (see `mining::treatment::LatticeStats::evaluated`):
    /// level 1 is estimated once and shared by the two directions, but
    /// counts in each.
    pub cate_evaluations: usize,
    /// Subset candidates served by incremental Gram downdating during
    /// treatment mining (nonzero only under `NumericMode::FastV1` with the
    /// regression backend).
    pub downdates: usize,
    /// Candidates with a join parent that re-gathered instead of
    /// downdating (always the full parented count under
    /// `NumericMode::Exact`, which never downdates).
    pub regathers: usize,
    /// Per-phase wall-clock.
    pub timings: StepTimings,
}

impl Summary {
    /// Coverage as a fraction of `m` (Fig. 8(c) metric).
    pub fn coverage_fraction(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.covered as f64 / self.m as f64
        }
    }

    /// Group labels covered by explanation `i`, for display.
    pub fn covered_labels(&self, table: &Table, view: &table::AggView, i: usize) -> Vec<String> {
        self.explanations[i]
            .coverage
            .iter()
            .map(|g| view.group_label(table, g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_sum_of_absolute_cates() {
        let pos = TreatmentResult {
            pattern: Pattern::empty(),
            cate: 36.0,
            p_value: 1e-4,
            n_treated: 10,
            n_control: 10,
        };
        let neg = TreatmentResult {
            pattern: Pattern::empty(),
            cate: -39.0,
            p_value: 1e-4,
            n_treated: 10,
            n_control: 10,
        };
        let e = Explanation::new(Pattern::empty(), BitSet::new(4), Some(pos), Some(neg));
        assert!((e.weight - 75.0).abs() < 1e-12);
        assert!(e.has_treatment());
    }

    #[test]
    fn weight_with_missing_side() {
        let pos = TreatmentResult {
            pattern: Pattern::empty(),
            cate: 5.0,
            p_value: 0.01,
            n_treated: 5,
            n_control: 5,
        };
        let e = Explanation::new(Pattern::empty(), BitSet::new(2), Some(pos), None);
        assert!((e.weight - 5.0).abs() < 1e-12);
        let e2 = Explanation::new(Pattern::empty(), BitSet::new(2), None, None);
        assert_eq!(e2.weight, 0.0);
        assert!(!e2.has_treatment());
    }

    #[test]
    fn timings_total() {
        let t = StepTimings {
            grouping_ms: 1.0,
            treatment_ms: 2.5,
            selection_ms: 0.5,
        };
        assert!((t.total_ms() - 4.0).abs() < 1e-12);
    }
}
