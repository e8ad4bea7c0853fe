//! Rank statistics: Kendall's τ.
//!
//! §6.6 of the paper evaluates CATE-estimation fidelity by ranking 20
//! treatments by their CATE under different sample sizes / causal DAGs and
//! comparing rankings with Kendall's τ. The τ-b variant below handles ties,
//! matching `scipy.stats.kendalltau`'s default.

/// Kendall's τ-b between two equal-length score vectors. Returns `None`
/// when either vector is constant or holds a NaN (τ undefined: a NaN score
/// has no rank).
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    if n < 2 || x.iter().chain(y).any(|v| v.is_nan()) {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                // Joint tie: contributes to neither.
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if (dx > 0.0) == (dy > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom_x = n0 - ties_joint_adjust(x);
    let denom_y = n0 - ties_joint_adjust(y);
    if denom_x <= 0 || denom_y <= 0 {
        return None;
    }
    let _ = (ties_x, ties_y); // counted pairwise above; τ-b uses group formula
    Some((concordant - discordant) as f64 / ((denom_x as f64) * (denom_y as f64)).sqrt())
}

/// Number of tied pairs within a NaN-free vector: Σ t_k(t_k−1)/2 over tie
/// groups. `total_cmp` places `-0.0` directly before `+0.0`, so the runs of
/// `==`-equal values are the same as under `partial_cmp`.
fn ties_joint_adjust(v: &[f64]) -> i64 {
    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut total = 0i64;
    let mut run = 1i64;
    for i in 1..sorted.len() {
        if sorted[i] == sorted[i - 1] {
            run += 1;
        } else {
            total += run * (run - 1) / 2;
            run = 1;
        }
    }
    total += run * (run - 1) / 2;
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rankings_are_one() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((kendall_tau(&x, &x).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_rankings_are_minus_one() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_swap_reference_value() {
        // scipy.stats.kendalltau([1,2,3,4],[2,1,3,4]) = 2/3.
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 1.0, 3.0, 4.0];
        assert!((kendall_tau(&x, &y).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_use_tau_b() {
        // scipy.stats.kendalltau([1,2,2,3],[1,2,3,4]) ≈ 0.9128709
        let x = vec![1.0, 2.0, 2.0, 3.0];
        let y = vec![1.0, 2.0, 3.0, 4.0];
        assert!((kendall_tau(&x, &y).unwrap() - 0.912_870_9).abs() < 1e-6);
    }

    #[test]
    fn constant_vector_undefined() {
        assert!(kendall_tau(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(kendall_tau(&[1.0], &[2.0]).is_none());
    }

    #[test]
    fn nan_input_is_undefined_not_a_panic() {
        let ranks = [1.0, 2.0, 3.0, 4.0];
        let holed = [1.0, f64::NAN, 3.0, 4.0];
        assert!(kendall_tau(&holed, &ranks).is_none());
        assert!(kendall_tau(&ranks, &holed).is_none());
        assert!(kendall_tau(&[f64::NAN; 3], &[f64::NAN; 3]).is_none());
    }

    #[test]
    fn signed_zeros_tie() {
        // -0.0 == 0.0: one tie group of two, exactly like [0, 0, 1, 2].
        let x = [-0.0, 0.0, 1.0, 2.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let want = kendall_tau(&[0.0, 0.0, 1.0, 2.0], &y).unwrap();
        assert_eq!(kendall_tau(&x, &y).unwrap().to_bits(), want.to_bits());
    }
}
