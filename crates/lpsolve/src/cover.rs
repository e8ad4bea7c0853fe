//! The Fig. 5 optimization problem: weighted max-k-cover with a coverage
//! constraint.
//!
//! Variables: `g_j ∈ {0,1}` selects explanation pattern `j` (weight `w_j` =
//! its explainability), `t_i ∈ {0,1}` marks output group `i` as covered.
//!
//! ```text
//! max Σ g_j w_j   s.t.  Σ g_j ≤ k,
//!                       t_i ≤ Σ_{j: i ∈ Cov(P_j)} g_j   ∀i,
//!                       Σ t_i ≥ θ·m,
//!                       t, g ∈ {0,1}
//! ```
//!
//! [`solve_lp_relaxation`] relaxes to `[0,1]` and solves exactly with the
//! in-crate simplex, on an equivalent smaller LP. Groups are merged into
//! classes by their *covering signature* `sig(c)`, the set of candidates
//! whose cover contains them; a class of `|c|` groups gets one variable
//! `τ_c`, and groups no candidate covers are dropped:
//!
//! ```text
//! max Σ g_j w_j   s.t.  Σ g_j ≤ k,
//!                       τ_c ≤ Σ_{j ∈ sig(c)} g_j        ∀c,
//!                       Σ_c |c|·τ_c ≥ θ·m,
//!                       τ, g ∈ [0,1]
//! ```
//!
//! Both relaxations admit exactly the `g ∈ [0,1]^l` with `Σ g_j ≤ k` and
//! `Σ_i min(1, Σ_{j: i ∈ Cov(P_j)} g_j) ≥ θ·m` (groups of one class share
//! the inner sum, uncovered groups add 0), and the objective reads `g`
//! alone, so the optimum is the same. The LP has `l + #classes` variables
//! instead of `l + m`, and `#classes ≤ m`.
//!
//! [`randomized_rounding`] applies the Appendix-A procedure (draw `k`
//! patterns i.i.d. with probability `g_j/k`); [`greedy_cover`] is the
//! paper's `Greedy-Last-Step` variant; and [`exhaustive_best`] is an exact
//! branch-and-bound used by `Brute-Force`.
//!
//! A NaN weight never panics: the weight orders of [`randomized_rounding`]
//! and [`exhaustive_best`] put NaN weights after every number. Sums that
//! include one are NaN and compare false, so such an instance still gets a
//! set that meets the constraints it reports, but not a maximum weight.

use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use table::bitset::BitSet;

use crate::simplex::{solve, ConstraintOp, LpProblem, LpStatus};

/// One instance of the Fig. 5 problem.
#[derive(Debug, Clone)]
pub struct CoverInstance {
    /// Explainability weight `w_j ≥ 0` per candidate pattern.
    pub weights: Vec<f64>,
    /// Covered-group set per candidate (all over `m` groups).
    pub covers: Vec<BitSet>,
    /// Number of groups `m = |Q(D)|`.
    pub m: usize,
    /// Size constraint `k`.
    pub k: usize,
    /// Coverage threshold `θ ∈ [0,1]`.
    pub theta: f64,
}

impl CoverInstance {
    /// Number of candidate patterns `l`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Required number of covered groups `⌈θ·m⌉`.
    pub fn required_coverage(&self) -> usize {
        (self.theta * self.m as f64).ceil() as usize
    }

    fn coverage_of(&self, chosen: &[usize]) -> usize {
        let mut u = BitSet::new(self.m);
        for &j in chosen {
            u.union_with(&self.covers[j]);
        }
        u.count()
    }

    fn weight_of(&self, chosen: &[usize]) -> f64 {
        chosen.iter().map(|&j| self.weights[j]).sum()
    }
}

/// A selected explanation set.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverSolution {
    /// Indices of chosen patterns, sorted.
    pub chosen: Vec<usize>,
    /// Number of groups covered by the union.
    pub coverage: usize,
    /// Total explainability.
    pub total_weight: f64,
    /// Whether the coverage constraint is satisfied.
    pub feasible: bool,
}

/// Output groups merged by covering signature: the set of candidates whose
/// cover contains the group. Groups no candidate covers belong to no class.
#[derive(Debug, PartialEq)]
struct GroupClasses {
    /// Covering candidates of each class, ascending.
    signatures: Vec<Vec<usize>>,
    /// Number of groups in each class.
    sizes: Vec<usize>,
}

/// Classes are numbered in the order of each signature's first group, so
/// the LP, and Bland's pivot sequence on it, never depends on hash order.
fn group_classes(inst: &CoverInstance) -> GroupClasses {
    let mut classes = GroupClasses {
        signatures: Vec::new(),
        sizes: Vec::new(),
    };
    let mut class_of: HashMap<BitSet, usize> = HashMap::new();
    for i in 0..inst.m {
        let mut sig = BitSet::new(inst.len());
        for (j, cover) in inst.covers.iter().enumerate() {
            if cover.contains(i) {
                sig.insert(j);
            }
        }
        if sig.is_empty() {
            continue;
        }
        match class_of.entry(sig) {
            Entry::Occupied(e) => classes.sizes[*e.get()] += 1,
            Entry::Vacant(e) => {
                classes.signatures.push(e.key().iter().collect());
                classes.sizes.push(1);
                e.insert(classes.sizes.len() - 1);
            }
        }
    }
    classes
}

/// Build and solve the class-reduced LP relaxation (module docs). Returns
/// the fractional `g` vector, or `None` when even the relaxation is
/// infeasible (then the ILP certainly is — Appendix A, claim 1).
pub fn solve_lp_relaxation(inst: &CoverInstance) -> Option<Vec<f64>> {
    let l = inst.len();
    if l == 0 {
        return None;
    }
    let classes = group_classes(inst);
    let n = l + classes.sizes.len();
    let mut p = LpProblem::new(n);
    p.objective[..l].copy_from_slice(&inst.weights);
    // (1) Σ g_j ≤ k.
    p.add(
        (0..l).map(|j| (j, 1.0)).collect(),
        ConstraintOp::Le,
        inst.k as f64,
    );
    // (2) τ_c − Σ_{j ∈ sig(c)} g_j ≤ 0.
    for (c, sig) in classes.signatures.iter().enumerate() {
        let mut terms = vec![(l + c, 1.0)];
        terms.extend(sig.iter().map(|&j| (j, -1.0)));
        p.add(terms, ConstraintOp::Le, 0.0);
    }
    // (3) Σ_c |c|·τ_c ≥ θ·m.
    p.add(
        classes
            .sizes
            .iter()
            .enumerate()
            .map(|(c, &size)| (l + c, size as f64))
            .collect(),
        ConstraintOp::Ge,
        inst.theta * inst.m as f64,
    );
    // (4) box constraints.
    for v in 0..n {
        p.with_upper_bound(v, 1.0);
    }

    let s = solve(&p);
    match s.status {
        LpStatus::Optimal => Some(s.x[..l].to_vec()),
        _ => None,
    }
}

/// Descending weight order that never panics: numbers by `total_cmp`,
/// then every NaN (of either sign).
fn heavier_first(a: f64, b: f64) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then(b.total_cmp(&a))
}

/// Appendix-A randomized rounding: draw `k` patterns i.i.d. with
/// probability `g_j / k` each (the residual mass draws nothing), repeated
/// for `rounds` trials; the best feasible draw by weight wins, falling back
/// to the maximum-coverage draw when no trial is feasible.
pub fn randomized_rounding(
    inst: &CoverInstance,
    g: &[f64],
    rounds: usize,
    seed: u64,
) -> Option<CoverSolution> {
    let l = inst.len();
    if l == 0 {
        return None;
    }
    let k = inst.k as f64;
    let cum: Vec<f64> = g
        .iter()
        .scan(0.0, |acc, &v| {
            *acc += (v / k).max(0.0);
            Some(*acc)
        })
        .collect();
    let need = inst.required_coverage();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<CoverSolution> = None;

    // Weight-sorted indices for the fill-up step.
    let mut by_weight: Vec<usize> = (0..l).collect();
    by_weight.sort_by(|&a, &b| heavier_first(inst.weights[a], inst.weights[b]));

    for _ in 0..rounds.max(1) {
        let mut chosen: Vec<usize> = Vec::new();
        for _ in 0..inst.k {
            let u: f64 = rng.gen();
            if let Some(j) = cum.iter().position(|&c| u < c) {
                if !chosen.contains(&j) {
                    chosen.push(j);
                }
            }
        }
        // Fill-up: duplicate draws and the residual no-pick mass leave
        // budget unused; spending it on the heaviest unchosen patterns
        // only improves the objective and never violates |Φ| ≤ k.
        for &j in &by_weight {
            if chosen.len() >= inst.k {
                break;
            }
            if !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        chosen.sort_unstable();
        let coverage = inst.coverage_of(&chosen);
        let total_weight = inst.weight_of(&chosen);
        let feasible = coverage >= need && !chosen.is_empty();
        let cand = CoverSolution {
            chosen,
            coverage,
            total_weight,
            feasible,
        };
        let better = match &best {
            None => true,
            Some(b) => match (cand.feasible, b.feasible) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => cand.total_weight > b.total_weight,
                (false, false) => cand.coverage > b.coverage,
            },
        };
        if better {
            best = Some(cand);
        }
    }
    best
}

/// The `Greedy-Last-Step` baseline (§6.1): iteratively pick the pattern
/// scoring best on explainability weighted by the coverage it adds. No
/// feasibility guarantee — exactly the behaviour Fig. 9 demonstrates.
pub fn greedy_cover(inst: &CoverInstance) -> Option<CoverSolution> {
    let l = inst.len();
    if l == 0 {
        return None;
    }
    let need = inst.required_coverage();
    let mut chosen: Vec<usize> = Vec::new();
    let mut covered = BitSet::new(inst.m);

    while chosen.len() < inst.k {
        let mut best_j = None;
        let mut best_score = f64::NEG_INFINITY;
        for j in 0..l {
            if chosen.contains(&j) {
                continue;
            }
            // Coverage gain = |covers[j] ∖ covered|, counted word-batched
            // without materializing the union.
            let gain = inst.covers[j].difference_count(&covered) as f64;
            let score = inst.weights[j] * (1.0 + gain);
            if score > best_score {
                best_score = score;
                best_j = Some(j);
            }
        }
        let Some(j) = best_j else { break };
        chosen.push(j);
        covered.union_with(&inst.covers[j]);
    }
    chosen.sort_unstable();
    let coverage = covered.count();
    Some(CoverSolution {
        total_weight: inst.weight_of(&chosen),
        feasible: coverage >= need && !chosen.is_empty(),
        chosen,
        coverage,
    })
}

/// Exact optimum by branch-and-bound over candidate subsets of size ≤ k —
/// the selection stage of the `Brute-Force` baseline. Candidates are
/// pre-sorted by weight and the remaining-weight bound prunes aggressively;
/// still exponential in the worst case, so callers keep `l` modest.
/// Returns `None` when no subset meets the coverage constraint.
pub fn exhaustive_best(inst: &CoverInstance) -> Option<CoverSolution> {
    let l = inst.len();
    if l == 0 {
        return None;
    }
    let need = inst.required_coverage();
    let mut order: Vec<usize> = (0..l).collect();
    order.sort_by(|&a, &b| heavier_first(inst.weights[a], inst.weights[b]));

    // Suffix sums of the top-k weights for bounding.
    let sorted_weights: Vec<f64> = order.iter().map(|&j| inst.weights[j]).collect();
    // Suffix unions of the candidate covers (in branch order): everything
    // a subtree rooted at `pos` could still cover. Lets the recursion
    // prune coverage-infeasible subtrees exactly — no node below can
    // reach `need`, so none could ever be recorded.
    let mut suffix_cover: Vec<BitSet> = vec![BitSet::new(inst.m); l + 1];
    for pos in (0..l).rev() {
        let mut u = suffix_cover[pos + 1].clone();
        u.union_with(&inst.covers[order[pos]]);
        suffix_cover[pos] = u;
    }

    struct Ctx<'a> {
        inst: &'a CoverInstance,
        order: &'a [usize],
        weights: &'a [f64],
        suffix_cover: &'a [BitSet],
        need: usize,
        best: Option<(f64, Vec<usize>, usize)>,
    }

    fn recurse(ctx: &mut Ctx, pos: usize, chosen: &mut Vec<usize>, covered: &BitSet, weight: f64) {
        let k = ctx.inst.k;
        // Bound: current weight + best possible remaining additions.
        let remaining = k - chosen.len();
        let mut bound = weight;
        for d in 0..remaining.min(ctx.order.len().saturating_sub(pos)) {
            bound += ctx.weights[pos + d];
        }
        if let Some((bw, _, _)) = &ctx.best {
            if bound <= *bw + 1e-12 {
                return;
            }
        }
        // Record if feasible.
        if covered.count() >= ctx.need && !chosen.is_empty() {
            let better = ctx
                .best
                .as_ref()
                .is_none_or(|(bw, _, _)| weight > *bw + 1e-12);
            if better {
                ctx.best = Some((weight, chosen.clone(), covered.count()));
            }
        }
        if chosen.len() == k || pos == ctx.order.len() {
            return;
        }
        // Coverage-infeasibility prune: even taking every remaining
        // pattern cannot reach the θ·m requirement, so no descendant is
        // recordable (counted without materializing the union).
        if covered.union_count(&ctx.suffix_cover[pos]) < ctx.need {
            return;
        }
        // Branch: include order[pos].
        let j = ctx.order[pos];
        let mut u = covered.clone();
        u.union_with(&ctx.inst.covers[j]);
        chosen.push(j);
        recurse(ctx, pos + 1, chosen, &u, weight + ctx.weights[pos]);
        chosen.pop();
        // Branch: exclude.
        recurse(ctx, pos + 1, chosen, covered, weight);
    }

    let mut ctx = Ctx {
        inst,
        order: &order,
        weights: &sorted_weights,
        suffix_cover: &suffix_cover,
        need,
        best: None,
    };
    let covered = BitSet::new(inst.m);
    recurse(&mut ctx, 0, &mut Vec::new(), &covered, 0.0);

    ctx.best.map(|(w, mut chosen, coverage)| {
        chosen.sort_unstable();
        CoverSolution {
            chosen,
            coverage,
            total_weight: w,
            feasible: true,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: usize, idx: &[usize]) -> BitSet {
        let mut b = BitSet::new(m);
        for &i in idx {
            b.insert(i);
        }
        b
    }

    /// 4 patterns over 4 groups. Weights favor 0 and 1, but covering all
    /// groups with k=2 requires {2, 3} or {0, 3}.
    fn inst() -> CoverInstance {
        CoverInstance {
            weights: vec![10.0, 9.0, 3.0, 2.0],
            covers: vec![
                bits(4, &[0, 1]),
                bits(4, &[0]),
                bits(4, &[1, 2]),
                bits(4, &[2, 3]),
            ],
            m: 4,
            k: 2,
            theta: 1.0,
        }
    }

    #[test]
    fn exhaustive_finds_optimum_under_coverage() {
        let s = exhaustive_best(&inst()).unwrap();
        assert_eq!(s.chosen, vec![0, 3]);
        assert_eq!(s.coverage, 4);
        assert!((s.total_weight - 12.0).abs() < 1e-9);
        assert!(s.feasible);
    }

    #[test]
    fn exhaustive_none_when_infeasible() {
        let mut i = inst();
        i.k = 1; // no single pattern covers all 4 groups
        assert!(exhaustive_best(&i).is_none());
    }

    #[test]
    fn lp_relaxation_selects_sensible_mass() {
        let i = inst();
        let g = solve_lp_relaxation(&i).expect("relaxation feasible");
        assert_eq!(g.len(), 4);
        let sum: f64 = g.iter().sum();
        assert!(sum <= 2.0 + 1e-6);
        // Pattern 3 is the only one reaching group 3 ⇒ g_3 must be 1.
        assert!(g[3] > 0.99, "g = {g:?}");
    }

    #[test]
    fn lp_infeasible_when_ilp_infeasible_by_structure() {
        // Group 3 uncovered by every pattern ⇒ even the LP fails θ=1.
        let mut i = CoverInstance {
            weights: vec![1.0, 1.0],
            covers: vec![bits(4, &[0, 1]), bits(4, &[1, 2])],
            m: 4,
            k: 2,
            theta: 1.0,
        };
        assert!(solve_lp_relaxation(&i).is_none());
        // The uncovered group is in no class but still counts in θ·m, so
        // the three covered groups meet θ = 3/4 and nothing more.
        assert_eq!(group_classes(&i).sizes.iter().sum::<usize>(), 3);
        i.theta = 0.75;
        assert!(solve_lp_relaxation(&i).is_some());
        i.theta = 0.76;
        assert!(solve_lp_relaxation(&i).is_none());
    }

    #[test]
    fn classes_merge_equal_signatures_in_first_group_order() {
        // Signatures by group: {1}, {0,1}, {}, {0,1}, {1}, {}, {0}.
        let i = CoverInstance {
            weights: vec![1.0, 2.0, 3.0],
            covers: vec![bits(7, &[1, 3, 6]), bits(7, &[0, 1, 3, 4]), bits(7, &[])],
            m: 7,
            k: 1,
            theta: 0.5,
        };
        let classes = group_classes(&i);
        assert_eq!(
            classes,
            GroupClasses {
                signatures: vec![vec![1], vec![0, 1], vec![0]],
                sizes: vec![2, 2, 1],
            }
        );
        // Sizes add up to |∪ covers|: uncovered groups 2 and 5 are dropped.
        let mut union = BitSet::new(i.m);
        for c in &i.covers {
            union.union_with(c);
        }
        assert_eq!(classes.sizes.iter().sum::<usize>(), union.count());
        assert_eq!(group_classes(&i), classes);
    }

    #[test]
    fn distinct_signatures_get_one_class_per_group() {
        // Every group of `inst()` is covered and has a signature of its own,
        // so the class LP is the full `l + m` relaxation in group order
        // (`tests/properties.rs` checks it solves to the same bits).
        let classes = group_classes(&inst());
        let sigs: [&[usize]; 4] = [&[0, 1], &[0, 2], &[2, 3], &[3]];
        assert_eq!(classes.signatures, sigs.map(|s| s.to_vec()));
        assert_eq!(classes.sizes, vec![1; 4]);
    }

    #[test]
    fn nan_weight_selects_without_panicking() {
        // A NaN outcome gives a NaN CATE and so a NaN weight. NaN sorts
        // after every number whatever its sign; every selector returns, and
        // a set it calls feasible meets the coverage constraint.
        assert_eq!(
            heavier_first(f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(heavier_first(-f64::NAN, 0.0), Ordering::Greater);
        assert_eq!(heavier_first(2.0, 1.0), Ordering::Less);
        let mut i = inst();
        i.weights[1] = f64::NAN;
        let g = solve_lp_relaxation(&i).expect("coverage alone decides feasibility");
        let r = randomized_rounding(&i, &g, 64, 7).unwrap();
        assert!(r.chosen.len() <= i.k);
        assert!(!r.feasible || r.coverage >= i.required_coverage());
        // Pattern 1 sorts last, so branch-and-bound meets {0, 3} first.
        let e = exhaustive_best(&i).unwrap();
        assert_eq!(e.chosen, vec![0, 3]);
        let gr = greedy_cover(&i).unwrap();
        assert!(!gr.feasible || gr.coverage >= i.required_coverage());
    }

    #[test]
    fn rounding_is_reproducible_and_prefers_feasible() {
        let i = inst();
        let g = solve_lp_relaxation(&i).unwrap();
        let a = randomized_rounding(&i, &g, 64, 7).unwrap();
        let b = randomized_rounding(&i, &g, 64, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.feasible, "with 64 rounds a feasible draw should appear");
        assert_eq!(a.coverage, 4);
    }

    #[test]
    fn greedy_chases_weight_and_may_miss_coverage() {
        let s = greedy_cover(&inst()).unwrap();
        // Greedy picks 0 first (10·(1+2)=30 beats 3·(1+2)=9 and 2·(1+2)=6),
        // then the best marginal. It reaches feasibility here via pattern 3
        // (2·(1+2)=6 beats 9·(1+0)=9? No: 9 > 6 ⇒ picks 1, infeasible).
        assert_eq!(s.chosen[0], 0);
        assert!(
            !s.feasible,
            "greedy favors weight and misses group 3: {s:?}"
        );
    }

    #[test]
    fn greedy_feasible_when_weights_align() {
        let i = CoverInstance {
            weights: vec![10.0, 9.0],
            covers: vec![bits(2, &[0]), bits(2, &[1])],
            m: 2,
            k: 2,
            theta: 1.0,
        };
        let s = greedy_cover(&i).unwrap();
        assert!(s.feasible);
        assert_eq!(s.chosen, vec![0, 1]);
    }

    #[test]
    fn theta_zero_always_feasible() {
        let mut i = inst();
        i.theta = 0.0;
        let s = exhaustive_best(&i).unwrap();
        // Free to maximize weight: {0, 1}.
        assert_eq!(s.chosen, vec![0, 1]);
    }

    #[test]
    fn empty_instance_handled() {
        let i = CoverInstance {
            weights: vec![],
            covers: vec![],
            m: 3,
            k: 2,
            theta: 0.5,
        };
        assert!(solve_lp_relaxation(&i).is_none());
        assert!(exhaustive_best(&i).is_none());
        assert!(greedy_cover(&i).is_none());
    }
}
