//! Versioned numeric kernels: `Exact` bit-replay vs `FastV1` fixed-lane
//! reductions.
//!
//! Every floating-point reduction on the hot estimation path dispatches on
//! [`NumericMode`]:
//!
//! * [`NumericMode::Exact`] — the historical contract: a single serial
//!   accumulator folded in ascending element order. Bit-for-bit reproducible
//!   against every artifact committed since the seed and at any thread
//!   count, and equal to the cold estimators the tests hold the cache layers
//!   to, because every layer replays the same ascending-order sum.
//! * [`NumericMode::FastV1`] — eight strided partial sums (lane `k` takes
//!   elements whose index ≡ `k` (mod 8)) folded in the pinned pairwise order
//!   of [`fold8`]. Breaking the serial FP dependency chain lets the compiler
//!   keep eight independent accumulators in flight (and auto-vectorize),
//!   while the fixed lane count and pinned fold keep the result a pure
//!   function of the input sequence — deterministic at any thread count,
//!   just not bit-identical to `Exact`.
//!
//! The lane assignment is by *element index in the reduced sequence*, not by
//! memory address, so sparse gathers (see [`LaneAcc`]) and dense slices (see
//! [`lane_sum`]) agree whenever they visit the same values in the same order.

/// Which numeric kernel family the estimation path uses.
///
/// `Exact` is the verification oracle and the default; `FastV1` is the
/// versioned fast mode pinned by its own committed artifact. Future kernel
/// revisions must add a new variant (`FastV2`, …) rather than silently
/// changing `FastV1`'s bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumericMode {
    /// Serial ascending-order accumulation; bit-identical to all prior
    /// artifacts and to the cold estimators.
    #[default]
    Exact,
    /// 8-lane strided partial sums folded via [`fold8`]; deterministic
    /// within the mode at any thread count.
    FastV1,
}

impl NumericMode {
    /// Stable lowercase name used in JSON artifacts and the `/stats`
    /// endpoint (`"exact"` / `"fast_v1"`).
    pub fn as_str(self) -> &'static str {
        match self {
            NumericMode::Exact => "exact",
            NumericMode::FastV1 => "fast_v1",
        }
    }

    /// Inverse of [`NumericMode::as_str`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(NumericMode::Exact),
            "fast_v1" => Some(NumericMode::FastV1),
            _ => None,
        }
    }
}

/// Fold eight lane accumulators in the pinned pairwise order
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
///
/// This order is part of the `FastV1` contract: every reduction in the mode
/// ends with exactly this fold, so two code paths that built identical lane
/// vectors produce identical scalars.
#[inline]
pub fn fold8(l: [f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Streaming 8-lane accumulator for sparse gathers.
///
/// Lane assignment is by *visitation rank*: the `i`-th pushed value lands in
/// lane `i & 7`, so the result depends only on the visited value sequence —
/// exactly the property the estimation contexts need to stay
/// deterministic across dense, sampled and downdated gathers.
#[derive(Debug, Clone)]
pub struct LaneAcc {
    lanes: [f64; 8],
    i: usize,
}

impl LaneAcc {
    /// A fresh accumulator with all lanes zero.
    #[inline]
    pub fn new() -> Self {
        LaneAcc {
            lanes: [0.0; 8],
            i: 0,
        }
    }

    /// Add `v` to the lane selected by the current visitation rank.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.lanes[self.i & 7] += v;
        self.i += 1;
    }

    /// Fold the lanes into the final scalar via [`fold8`].
    #[inline]
    pub fn finish(&self) -> f64 {
        fold8(self.lanes)
    }
}

impl Default for LaneAcc {
    fn default() -> Self {
        Self::new()
    }
}

/// 8-lane strided sum of a dense slice (lane `k` ← indices ≡ `k` mod 8).
#[inline]
pub fn lane_sum(xs: &[f64]) -> f64 {
    let mut l = [0.0f64; 8];
    let mut it = xs.chunks_exact(8);
    for c in it.by_ref() {
        for k in 0..8 {
            l[k] += c[k];
        }
    }
    for (k, &v) in it.remainder().iter().enumerate() {
        l[k] += v;
    }
    fold8(l)
}

/// 8-lane strided dot product of two equal-length slices.
#[inline]
pub fn lane_dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut l = [0.0f64; 8];
    let mut ia = a.chunks_exact(8);
    let mut ib = b.chunks_exact(8);
    for (ca, cb) in ia.by_ref().zip(ib.by_ref()) {
        for k in 0..8 {
            l[k] += ca[k] * cb[k];
        }
    }
    for (k, (&x, &y)) in ia.remainder().iter().zip(ib.remainder()).enumerate() {
        l[k] += x * y;
    }
    fold8(l)
}

/// Accumulate `Σ (yᵢ − ŷᵢ)²` over one block into existing lanes.
///
/// Callers stream a long array through this in blocks; as long as every
/// block but the last has a length that is a multiple of 8, the lane a
/// global index lands in is `index & 7` — identical to one unblocked
/// [`lane_sq_diff`] pass, which is what makes the fused chunked RSS kernel
/// bit-equal to the simple whole-array form.
#[inline]
pub fn lane_sq_diff_into(l: &mut [f64; 8], y: &[f64], yhat: &[f64]) {
    debug_assert_eq!(y.len(), yhat.len());
    let mut iy = y.chunks_exact(8);
    let mut ih = yhat.chunks_exact(8);
    for (cy, ch) in iy.by_ref().zip(ih.by_ref()) {
        for k in 0..8 {
            let d = cy[k] - ch[k];
            l[k] += d * d;
        }
    }
    for (k, (&a, &b)) in iy.remainder().iter().zip(ih.remainder()).enumerate() {
        let d = a - b;
        l[k] += d * d;
    }
}

/// Whole-array 8-lane residual sum of squares `Σ (yᵢ − ŷᵢ)²`.
#[inline]
pub fn lane_sq_diff(y: &[f64], yhat: &[f64]) -> f64 {
    let mut l = [0.0f64; 8];
    lane_sq_diff_into(&mut l, y, yhat);
    fold8(l)
}

/// Mode-dispatched sum.
#[inline]
pub fn sum(mode: NumericMode, xs: &[f64]) -> f64 {
    match mode {
        NumericMode::Exact => xs.iter().sum(),
        NumericMode::FastV1 => lane_sum(xs),
    }
}

/// Mode-dispatched dot product.
#[inline]
pub fn dot(mode: NumericMode, a: &[f64], b: &[f64]) -> f64 {
    match mode {
        NumericMode::Exact => a.iter().zip(b).map(|(x, y)| x * y).sum(),
        NumericMode::FastV1 => lane_dot(a, b),
    }
}

/// Mode-dispatched per-group sums: entry `g < groups` is `Σ x[i]` over
/// the indices `i` with `group_of(i) == g`; an index mapped to `groups`
/// belongs to no group and is skipped.
///
/// Entry `g` has the bits of `dot(mode, ind_g, x)`, where `ind_g` is the
/// 0/1 indicator of group `g`, whenever `x` is finite without `−0.0` and
/// the group has an index. `Exact` keeps one serial accumulator per
/// group; `FastV1` keeps eight lanes per group, lane = index `& 7` as
/// [`lane_dot`] assigns them, folded by [`fold8`]. The products the
/// grouping skips are `0·x = ±0`. Before the group's first index the
/// dense fold holds `±0`, and that index sets both folds to `x` (or
/// `+0.0`); from then on the sum is nonzero or `+0.0`, which adding `±0`
/// leaves alone. A `FastV1` lane the group never visits is `+0.0` on both
/// sides, since `+0.0 + ±0 = +0.0`.
pub fn group_sums(
    mode: NumericMode,
    groups: usize,
    x: &[f64],
    mut group_of: impl FnMut(usize) -> usize,
) -> Vec<f64> {
    match mode {
        NumericMode::Exact => {
            let mut acc = vec![0.0f64; groups + 1];
            for (i, &v) in x.iter().enumerate() {
                acc[group_of(i)] += v;
            }
            acc.truncate(groups);
            acc
        }
        NumericMode::FastV1 => {
            let mut lanes = vec![[0.0f64; 8]; groups + 1];
            for (i, &v) in x.iter().enumerate() {
                lanes[group_of(i)][i & 7] += v;
            }
            lanes[..groups].iter().map(|&l| fold8(l)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // Deterministic ill-conditioned-ish values exercising all tail shapes.
        (0..n)
            .map(|i| ((i as f64) * 0.7125).sin() * 1e3 + (i % 13) as f64 * 1e-7)
            .collect()
    }

    #[test]
    fn exact_matches_serial_fold() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let xs = series(n);
            let serial: f64 = xs.iter().sum();
            assert_eq!(sum(NumericMode::Exact, &xs).to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn lane_sum_matches_lane_acc_all_tails() {
        for n in [0, 1, 5, 8, 15, 16, 17, 255, 256, 1023] {
            let xs = series(n);
            let mut acc = LaneAcc::new();
            for &v in &xs {
                acc.push(v);
            }
            assert_eq!(lane_sum(&xs).to_bits(), acc.finish().to_bits(), "n={n}");
        }
    }

    #[test]
    fn lane_dot_matches_pushed_products() {
        for n in [0, 3, 8, 21, 64, 200] {
            let a = series(n);
            let b: Vec<f64> = series(n).iter().map(|v| v * 0.5 - 1.0).collect();
            let mut acc = LaneAcc::new();
            for (x, y) in a.iter().zip(&b) {
                acc.push(x * y);
            }
            assert_eq!(lane_dot(&a, &b).to_bits(), acc.finish().to_bits(), "n={n}");
        }
    }

    #[test]
    fn blocked_sq_diff_matches_whole_array() {
        for n in [0, 7, 8, 4095, 4096, 4097, 10000] {
            let y = series(n);
            let yhat: Vec<f64> = y.iter().map(|v| v * 0.99 + 0.01).collect();
            let whole = lane_sq_diff(&y, &yhat);
            let mut l = [0.0f64; 8];
            let block = 4096;
            let mut s = 0;
            while s < n {
                let e = (s + block).min(n);
                lane_sq_diff_into(&mut l, &y[s..e], &yhat[s..e]);
                s = e;
            }
            assert_eq!(whole.to_bits(), fold8(l).to_bits(), "n={n}");
        }
    }

    #[test]
    fn group_sums_match_indicator_dots() {
        for n in [0, 1, 7, 8, 9, 40, 65, 300] {
            // Negative, positive, exact zeros and exact cancellations;
            // no −0.0.
            let mut x: Vec<f64> = series(n).iter().map(|v| v - 50.0).collect();
            for i in 0..n {
                if i % 5 == 2 {
                    x[i] = 0.0;
                } else if i % 7 == 6 {
                    x[i] = -x[i - 1];
                }
            }
            for groups in [1, 3, 4] {
                // Code `groups` belongs to no group.
                let group_of = |i: usize| (i * 7 + i / 3) % (groups + 1);
                for mode in [NumericMode::Exact, NumericMode::FastV1] {
                    let got = group_sums(mode, groups, &x, group_of);
                    assert_eq!(got.len(), groups);
                    for (g, &s) in got.iter().enumerate() {
                        let ind: Vec<f64> = (0..n).map(|i| f64::from(group_of(i) == g)).collect();
                        if !ind.contains(&1.0) {
                            continue;
                        }
                        let want = dot(mode, &ind, &x);
                        assert_eq!(s.to_bits(), want.to_bits(), "{mode:?} n={n} g={g}");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_close_to_exact() {
        let xs = series(100_000);
        let e = sum(NumericMode::Exact, &xs);
        let f = sum(NumericMode::FastV1, &xs);
        assert!((e - f).abs() <= 1e-9 * e.abs().max(1.0), "e={e} f={f}");
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [NumericMode::Exact, NumericMode::FastV1] {
            assert_eq!(NumericMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(NumericMode::parse("fast_v2"), None);
        assert_eq!(NumericMode::default(), NumericMode::Exact);
    }
}
