//! Property-based tests (proptest) on the core data structures and the
//! invariants the pipeline relies on.

use proptest::prelude::*;
use proptest::strategy::Just;

use lpsolve::cover::{
    exhaustive_best, greedy_cover, randomized_rounding, solve_lp_relaxation, CoverInstance,
};
use lpsolve::simplex::{solve, ConstraintOp, LpProblem, LpStatus};
use stats::rank::kendall_tau;
use table::bitset::BitSet;
use table::pattern::{Op, Pattern, Pred};
use table::{GroupByAvgQuery, TableBuilder};

// ---------- BitSet vs naive reference ----------

proptest! {
    #[test]
    fn bitset_matches_naive_sets(
        a in prop::collection::vec(0usize..200, 0..64),
        b in prop::collection::vec(0usize..200, 0..64),
    ) {
        use std::collections::BTreeSet;
        let sa: BTreeSet<usize> = a.iter().copied().collect();
        let sb: BTreeSet<usize> = b.iter().copied().collect();
        let mut ba = BitSet::new(200);
        let mut bb = BitSet::new(200);
        for &x in &sa { ba.insert(x); }
        for &x in &sb { bb.insert(x); }

        prop_assert_eq!(ba.count(), sa.len());
        prop_assert_eq!(ba.intersection_count(&bb), sa.intersection(&sb).count());
        let mut u = ba.clone();
        u.union_with(&bb);
        prop_assert_eq!(u.count(), sa.union(&sb).count());
        prop_assert_eq!(ba.is_subset(&bb), sa.is_subset(&sb));
        prop_assert_eq!(ba.iter().collect::<Vec<_>>(), sa.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_mask_round_trip(mask in prop::collection::vec(any::<bool>(), 1..300)) {
        let b = BitSet::from_mask(&mask);
        prop_assert_eq!(b.to_mask(), mask);
    }
}

// ---------- Pattern evaluation ----------

fn arb_table_and_pattern() -> impl Strategy<Value = (Vec<u8>, Vec<i64>, u8, i64, bool)> {
    (
        prop::collection::vec(0u8..4, 10..120),
        prop::collection::vec(-50i64..50, 10..120),
        0u8..4,
        -50i64..50,
        any::<bool>(),
    )
}

proptest! {
    #[test]
    fn pattern_eval_matches_row_by_row((cats, nums, cat_val, num_thresh, use_lt) in arb_table_and_pattern()) {
        let n = cats.len().min(nums.len());
        let cat_strs: Vec<String> = cats[..n].iter().map(|c| format!("c{c}")).collect();
        let t = TableBuilder::new()
            .cat_owned("cat", cat_strs.clone()).unwrap()
            .int("num", nums[..n].to_vec()).unwrap()
            .build().unwrap();
        let op = if use_lt { Op::Lt } else { Op::Ge };
        let p = Pattern::new(vec![
            Pred::eq(0, format!("c{cat_val}").as_str()),
            Pred::cmp(1, op, num_thresh),
        ]);
        let mask = p.eval(&t).unwrap();
        for r in 0..n {
            let expect = cat_strs[r] == format!("c{cat_val}")
                && op.eval_f64(nums[r] as f64, num_thresh as f64);
            prop_assert_eq!(mask[r], expect, "row {}", r);
            prop_assert_eq!(p.matches_row(&t, r), expect);
        }
        prop_assert_eq!(p.support(&t).unwrap(), mask.iter().filter(|&&x| x).count());
    }

    #[test]
    fn adding_conjunct_shrinks_support(
        (cats, nums, cat_val, num_thresh, _) in arb_table_and_pattern()
    ) {
        let n = cats.len().min(nums.len());
        let cat_strs: Vec<String> = cats[..n].iter().map(|c| format!("c{c}")).collect();
        let t = TableBuilder::new()
            .cat_owned("cat", cat_strs).unwrap()
            .int("num", nums[..n].to_vec()).unwrap()
            .build().unwrap();
        let p1 = Pattern::single(Pred::eq(0, format!("c{cat_val}").as_str()));
        let p2 = p1.and(Pred::cmp(1, Op::Lt, num_thresh));
        prop_assert!(p2.support(&t).unwrap() <= p1.support(&t).unwrap());
    }
}

// ---------- Aggregate view invariants ----------

proptest! {
    #[test]
    fn groupby_avg_partition_invariants(
        groups in prop::collection::vec(0u8..6, 20..150),
        vals in prop::collection::vec(-100.0f64..100.0, 20..150),
    ) {
        let n = groups.len().min(vals.len());
        let g: Vec<String> = groups[..n].iter().map(|x| format!("g{x}")).collect();
        let t = TableBuilder::new()
            .cat_owned("g", g).unwrap()
            .float("y", vals[..n].to_vec()).unwrap()
            .build().unwrap();
        let view = GroupByAvgQuery::new(vec![0], 1).run(&t).unwrap();
        // Counts partition the rows.
        prop_assert_eq!(view.counts.iter().sum::<usize>(), n);
        // Weighted group averages reproduce the global average.
        let total: f64 = view.avgs.iter().zip(&view.counts).map(|(&a, &c)| a * c as f64).sum();
        let global: f64 = vals[..n].iter().sum();
        prop_assert!((total - global).abs() < 1e-6 * (1.0 + global.abs()));
        // Every row maps to a valid group.
        for &gid in &view.row_group {
            prop_assert!(gid < view.num_groups());
        }
    }
}

// ---------- Cover selection invariants ----------

/// Random Fig. 5 instances in which groups share covering signatures and
/// go uncovered often: each group draws one of `n_sigs` random signatures
/// or, with the remaining index, none.
fn arb_cover() -> impl Strategy<Value = CoverInstance> {
    (2usize..10, 2usize..10)
        .prop_flat_map(|(m, l)| (Just(m), Just(l), 1..=m))
        .prop_flat_map(|(m, l, n_sigs)| {
            (
                prop::collection::vec(0.0f64..10.0, l),
                prop::collection::vec(prop::collection::vec(any::<bool>(), l), n_sigs),
                prop::collection::vec(0..=n_sigs, m),
                1usize..4,
                0.0f64..1.0,
            )
                .prop_map(move |(weights, sigs, sig_of, k, theta)| {
                    let covers = (0..l)
                        .map(|j| {
                            let mut b = BitSet::new(m);
                            for (i, &s) in sig_of.iter().enumerate() {
                                if s < n_sigs && sigs[s][j] {
                                    b.insert(i);
                                }
                            }
                            b
                        })
                        .collect();
                    CoverInstance {
                        weights,
                        covers,
                        m,
                        k,
                        theta,
                    }
                })
        })
}

/// The unreduced Fig. 5 relaxation — `l + m` variables, one coverage row
/// per group, an explicit row per `[0,1]` bound — built through the public
/// simplex API. Oracle for the class-merged LP `solve_lp_relaxation`
/// solves.
fn full_lp_relaxation(inst: &CoverInstance) -> Option<Vec<f64>> {
    let (l, m) = (inst.len(), inst.m);
    let mut p = LpProblem::new(l + m);
    p.objective[..l].copy_from_slice(&inst.weights);
    p.add(
        (0..l).map(|j| (j, 1.0)).collect(),
        ConstraintOp::Le,
        inst.k as f64,
    );
    for i in 0..m {
        let mut terms = vec![(l + i, 1.0)];
        terms.extend(
            (0..l)
                .filter(|&j| inst.covers[j].contains(i))
                .map(|j| (j, -1.0)),
        );
        p.add(terms, ConstraintOp::Le, 0.0);
    }
    p.add(
        (0..m).map(|i| (l + i, 1.0)).collect(),
        ConstraintOp::Ge,
        inst.theta * m as f64,
    );
    for v in 0..l + m {
        p.with_upper_bound(v, 1.0);
    }
    let s = solve(&p);
    (s.status == LpStatus::Optimal).then(|| s.x[..l].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn selection_respects_constraints(inst in arb_cover()) {
        if let Some(sol) = exhaustive_best(&inst) {
            prop_assert!(sol.chosen.len() <= inst.k);
            prop_assert!(sol.coverage >= inst.required_coverage());
            // Exhaustive dominates greedy whenever greedy is feasible.
            if let Some(g) = greedy_cover(&inst) {
                if g.feasible {
                    prop_assert!(sol.total_weight >= g.total_weight - 1e-9);
                }
            }
        }
        if let Some(g) = solve_lp_relaxation(&inst) {
            // Fractional g respects the box and budget constraints.
            prop_assert!(g.iter().all(|&v| (-1e-7..=1.0 + 1e-7).contains(&v)));
            prop_assert!(g.iter().sum::<f64>() <= inst.k as f64 + 1e-6);
            if let Some(r) = randomized_rounding(&inst, &g, 16, 1) {
                prop_assert!(r.chosen.len() <= inst.k);
                prop_assert!(!r.feasible || r.coverage >= inst.required_coverage());
            }
        } else {
            // LP infeasible ⇒ ILP infeasible.
            prop_assert!(exhaustive_best(&inst).is_none());
        }
    }
}

/// The exact optimum by plain enumeration: the heaviest of every
/// non-empty subset of at most `k` candidates whose union covers
/// `⌈θ·m⌉` groups, or `None` when no subset does.
fn enumerated_optimum(inst: &CoverInstance) -> Option<f64> {
    let need = inst.required_coverage();
    let mut best: Option<f64> = None;
    for subset in 1u32..1 << inst.len() {
        if subset.count_ones() as usize > inst.k {
            continue;
        }
        let chosen = (0..inst.len()).filter(|&j| (subset >> j) & 1 == 1);
        let mut covered = BitSet::new(inst.m);
        let mut weight = 0.0;
        for j in chosen {
            covered.union_with(&inst.covers[j]);
            weight += inst.weights[j];
        }
        if covered.count() >= need && best.is_none_or(|b| weight > b) {
            best = Some(weight);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// Selection against its exact optimum on instances of at most 10
    /// candidates: the branch and bound of `exhaustive_best` reaches the
    /// enumerated optimum (or both find no feasible subset), and every
    /// feasible LP + rounding result weighs no more than it.
    #[test]
    fn exhaustive_best_is_the_enumerated_optimum(inst in arb_cover()) {
        prop_assert!(inst.len() <= 10);
        let optimum = enumerated_optimum(&inst);
        let exact = exhaustive_best(&inst);
        prop_assert_eq!(exact.is_some(), optimum.is_some());
        if let (Some(sol), Some(opt)) = (&exact, optimum) {
            let weight: f64 = sol.chosen.iter().map(|&j| inst.weights[j]).sum();
            prop_assert!(sol.chosen.len() <= inst.k);
            prop_assert!(sol.coverage >= inst.required_coverage());
            prop_assert!((sol.total_weight - weight).abs() <= 1e-9 * weight.max(1.0));
            prop_assert!((sol.total_weight - opt).abs() <= 1e-9 * opt.max(1.0),
                "branch and bound {} vs enumeration {}", sol.total_weight, opt);
        }
        if let Some(g) = solve_lp_relaxation(&inst) {
            for seed in [1, 2, 3] {
                let Some(r) = randomized_rounding(&inst, &g, 16, seed) else { continue };
                if r.feasible {
                    let opt = optimum.expect("a feasible rounding implies a feasible subset");
                    prop_assert!(r.total_weight <= opt + 1e-9 * opt.max(1.0),
                        "rounding {} above the optimum {}", r.total_weight, opt);
                }
            }
        }
    }
}

#[test]
fn distinct_signatures_solve_the_full_lp_bit_for_bit() {
    // Every group has a covering signature of its own, so the class LP is
    // the full relaxation with the same rows in the same order.
    let bits = |idx: &[usize]| {
        let mut b = BitSet::new(4);
        for &i in idx {
            b.insert(i);
        }
        b
    };
    let inst = CoverInstance {
        weights: vec![10.0, 9.0, 3.0, 2.0],
        covers: vec![bits(&[0, 1]), bits(&[0]), bits(&[1, 2]), bits(&[2, 3])],
        m: 4,
        k: 2,
        theta: 1.0,
    };
    let bits_of = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let reduced = solve_lp_relaxation(&inst).expect("relaxation feasible");
    let full = full_lp_relaxation(&inst).expect("relaxation feasible");
    assert_eq!(bits_of(&reduced), bits_of(&full));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn class_lp_matches_full_lp(inst in arb_cover()) {
        let value = |g: &[f64]| g.iter().zip(&inst.weights).map(|(g, w)| g * w).sum::<f64>();
        let reduced = solve_lp_relaxation(&inst);
        let full = full_lp_relaxation(&inst);
        prop_assert_eq!(reduced.is_some(), full.is_some());
        if let (Some(r), Some(f)) = (reduced, full) {
            // Over 20 000 cases of this generator the largest relative
            // difference is 4.1e-16.
            let (vr, vf) = (value(&r), value(&f));
            prop_assert!((vr - vf).abs() <= 1e-12 * vf.abs().max(1.0), "{} vs {}", vr, vf);
            // The relaxation bounds the ILP optimum from above.
            if let Some(best) = exhaustive_best(&inst) {
                prop_assert!(vr >= best.total_weight - 1e-9 * vr.abs().max(1.0));
            }
        }
    }
}

// ---------- Simplex sanity on random bounded LPs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn simplex_solution_is_feasible(
        c in prop::collection::vec(-5.0f64..5.0, 2..5),
        rows in prop::collection::vec((prop::collection::vec(0.0f64..3.0, 2..5), 1.0f64..10.0), 1..5),
    ) {
        let n = c.len();
        let mut p = LpProblem::new(n);
        p.objective = c;
        for (coefs, rhs) in &rows {
            let terms: Vec<(usize, f64)> = coefs.iter().take(n).enumerate().map(|(j, &v)| (j, v)).collect();
            p.add(terms, ConstraintOp::Le, *rhs);
        }
        for v in 0..n {
            p.with_upper_bound(v, 4.0);
        }
        let s = solve(&p);
        prop_assert_eq!(s.status, LpStatus::Optimal); // box-bounded, 0 feasible
        // Check primal feasibility.
        for (coefs, rhs) in &rows {
            let lhs: f64 = coefs.iter().take(n).zip(&s.x).map(|(a, b)| a * b).sum();
            prop_assert!(lhs <= rhs + 1e-6, "violated: {} > {}", lhs, rhs);
        }
        for &v in &s.x {
            prop_assert!((-1e-9..=4.0 + 1e-6).contains(&v));
        }
    }
}

// ---------- Kendall τ properties ----------

proptest! {
    #[test]
    fn kendall_tau_bounds_and_symmetry(
        x in prop::collection::vec(-100.0f64..100.0, 3..40),
        y in prop::collection::vec(-100.0f64..100.0, 3..40),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        if let Some(t) = kendall_tau(x, y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&t));
            let t2 = kendall_tau(y, x).unwrap();
            prop_assert!((t - t2).abs() < 1e-12);
            // Perfect self-agreement.
            prop_assert!((kendall_tau(x, x).unwrap() - 1.0).abs() < 1e-12);
            // Negating one side negates τ.
            let neg: Vec<f64> = y.iter().map(|v| -v).collect();
            if let Some(tn) = kendall_tau(x, &neg) {
                prop_assert!((t + tn).abs() < 1e-9);
            }
        }
    }
}

// ---------- d-separation: Bayes-ball vs path enumeration ----------

/// Reference d-separation by explicit path enumeration: every undirected
/// path between x and y must be blocked by Z (a non-collider in Z, or a
/// collider whose closure — itself plus descendants — avoids Z).
fn d_separated_reference(
    dag: &causal::Dag,
    x: usize,
    y: usize,
    z: &std::collections::BTreeSet<usize>,
) -> bool {
    fn blocked(dag: &causal::Dag, path: &[usize], z: &std::collections::BTreeSet<usize>) -> bool {
        for w in 1..path.len() - 1 {
            let (a, b, c) = (path[w - 1], path[w], path[w + 1]);
            let collider = dag.has_edge(a, b) && dag.has_edge(c, b);
            if collider {
                // Blocked unless b or a descendant of b is in Z.
                let mut act = z.contains(&b);
                for d in dag.descendants(b) {
                    act |= z.contains(&d);
                }
                if !act {
                    return true;
                }
            } else if z.contains(&b) {
                return true;
            }
        }
        false
    }
    // Enumerate simple undirected paths by DFS.
    fn dfs(
        dag: &causal::Dag,
        cur: usize,
        y: usize,
        path: &mut Vec<usize>,
        z: &std::collections::BTreeSet<usize>,
    ) -> bool {
        if cur == y {
            return !blocked(dag, path, z); // found an ACTIVE path
        }
        for nxt in 0..dag.len() {
            let adj = dag.has_edge(cur, nxt) || dag.has_edge(nxt, cur);
            if adj && !path.contains(&nxt) {
                path.push(nxt);
                if dfs(dag, nxt, y, path, z) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut path = vec![x];
    !dfs(dag, x, y, &mut path, z)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn bayes_ball_matches_path_enumeration(
        edge_bits in prop::collection::vec(any::<bool>(), 21), // C(7,2)
        x in 0usize..7,
        y in 0usize..7,
        z_bits in prop::collection::vec(any::<bool>(), 7),
    ) {
        prop_assume!(x != y);
        let names: Vec<String> = (0..7).map(|i| format!("v{i}")).collect();
        // Edges only i → j for i < j ⇒ acyclic by construction.
        let mut edges = Vec::new();
        let mut bit = 0;
        for i in 0..7usize {
            for j in i + 1..7 {
                if edge_bits[bit] {
                    edges.push((names[i].clone(), names[j].clone()));
                }
                bit += 1;
            }
        }
        let dag = causal::Dag::new(&names, &edges).unwrap();
        let z: std::collections::BTreeSet<usize> = (0..7)
            .filter(|&i| z_bits[i] && i != x && i != y)
            .collect();
        let zs: Vec<usize> = z.iter().copied().collect();
        let fast = dag.d_separated(&[x], &[y], &zs);
        let slow = d_separated_reference(&dag, x, y, &z);
        prop_assert_eq!(fast, slow, "x={} y={} z={:?} edges={:?}", x, y, z, dag.edges());
    }
}

// ---------- FD split partitions the schema ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn fd_split_partitions_schema(
        keys in prop::collection::vec(0u8..5, 15..60),
        dep_noise in prop::collection::vec(any::<bool>(), 15..60),
    ) {
        let n = keys.len().min(dep_noise.len());
        let g: Vec<String> = keys[..n].iter().map(|k| format!("k{k}")).collect();
        // `det` is FD-determined by the key; `free` is not (depends on row).
        let det: Vec<String> = keys[..n].iter().map(|k| format!("d{}", k / 2)).collect();
        let free: Vec<String> = dep_noise[..n]
            .iter()
            .enumerate()
            .map(|(i, &b)| format!("f{}", (i % 3) + b as usize))
            .collect();
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = TableBuilder::new()
            .cat_owned("g", g).unwrap()
            .cat_owned("det", det).unwrap()
            .cat_owned("free", free).unwrap()
            .float("y", y).unwrap()
            .build().unwrap();
        let closed = table::fd::fd_closure(&t, &[0], &[3]);
        let treat = table::fd::treatment_attrs(&t, &[0], &[3]);
        // Disjoint and jointly exhaustive over non-key, non-outcome attrs.
        for a in &closed {
            prop_assert!(!treat.contains(a));
        }
        let mut all: Vec<usize> = closed.iter().chain(treat.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, vec![1, 2]);
        // `det` must always be in the closure (constructed as key-determined).
        prop_assert!(closed.contains(&1));
    }

    #[test]
    fn pattern_merge_commutative_and_idempotent(
        a_attr in 0usize..2,
        a_val in 0u8..4,
        b_attr in 0usize..2,
        b_val in 0u8..4,
    ) {
        let pa = Pattern::single(Pred::eq(a_attr, format!("v{a_val}").as_str()));
        let pb = Pattern::single(Pred::eq(b_attr, format!("v{b_val}").as_str()));
        prop_assert_eq!(pa.merge(&pb), pb.merge(&pa));
        let m = pa.merge(&pb);
        prop_assert_eq!(m.merge(&pa), m.clone());
        prop_assert_eq!(pa.merge(&pa), pa);
    }
}
