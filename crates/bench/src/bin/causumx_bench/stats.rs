//! Order statistics used by the benchmark and by `--compare`.

use std::collections::BTreeMap;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it (`p` in `(0, 100]`). `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps binary rounding (99.9 · 1000 / 100 is not exactly
    // 999) from bumping an exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The median of a workload whose operations fall into classes of
/// different cost (`(class, value)` samples): each class's median,
/// averaged with the class's share of the samples as its weight. Unlike
/// the median of all samples together, it cannot jump from one class's
/// tail to the next class's when the shares or the host's speed move a
/// little. `None` for no samples.
pub fn class_median(samples: &[(usize, f64)]) -> Option<f64> {
    let mut classes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(class, v) in samples {
        classes.entry(class).or_default().push(v);
    }
    let weighted: f64 = classes
        .values()
        .map(|v| v.len() as f64 * median(v).unwrap_or(0.0))
        .sum();
    (!samples.is_empty()).then(|| weighted / samples.len() as f64)
}

/// The tail percentiles a benchmark may report, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest tail percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it: `(p, value, samples beyond)`. `None` when the sample is too
/// small for even the 75th percentile.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAILS.iter().find_map(|&p| {
        let rank = nearest_rank(n, p)?;
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1], beyond))
    })
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match ones computed with Python.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Nearest rank never interpolates: the median of an even sample
        // is its lower middle value.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.0));
    }

    #[test]
    fn class_median_weighs_each_class_by_its_share() {
        // Class 0: median 10 over 3 samples; class 1: median 100 over 1.
        let v = [(0, 9.0), (1, 100.0), (0, 10.0), (0, 50.0)];
        assert_eq!(class_median(&v), Some((3.0 * 10.0 + 100.0) / 4.0));
        // One class: the plain median.
        assert_eq!(class_median(&[(3, 2.0), (3, 1.0), (3, 7.0)]), Some(2.0));
        assert_eq!(class_median(&[]), None);
        // Two classes an equal number of times: the mean of their medians,
        // where the median of all samples sits on one class's tail.
        let v: Vec<(usize, f64)> = (0..10)
            .map(|i| (0, 100.0 + i as f64))
            .chain((0..10).map(|i| (1, 200.0 + i as f64)))
            .collect();
        assert_eq!(class_median(&v), Some(154.0));
        let all: Vec<f64> = v.iter().map(|s| s.1).collect();
        assert_eq!(median(&all), Some(109.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((90.0, 90.0, 10)));
        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0, 10)));
        // 40 samples: p75 leaves 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((75.0, 30.0, 10)));
        // 39 samples: p75 (rank 30) leaves only 9 — nothing is supported.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
