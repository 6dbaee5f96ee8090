//! The benchmark's own statistics: percentiles, the "ten samples beyond"
//! rule, quartiles, and ratios whose denominator may be zero.

/// Nearest-rank percentile of `samples` (`p` in 0..=100). The slice need
/// not be sorted. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// Median as the mean of the two middle values for an even count, like
/// Python's `statistics.median`.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean. `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// How many samples lie strictly above the nearest-rank `p`-th percentile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(x) => samples.iter().filter(|&&s| s > x).count(),
        None => 0,
    }
}

/// Samples needed so that the `p`-th percentile keeps at least ten beyond
/// it: the nearest-rank rule leaves `n - ceil(p/100 * n)` samples above the
/// rank, which must be ≥ 10.
pub fn samples_needed(p: f64) -> usize {
    let mut n = 10;
    while n - ((p * n as f64 / 100.0).ceil() as usize) < 10 {
        n += 1;
    }
    n
}

/// The `p`-th percentile, but only when the sample count supports it by
/// the ten-beyond rule (ties at the top are allowed to thin the tail).
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if samples.len() < samples_needed(p) {
        return None;
    }
    percentile(samples, p)
}

/// Quartiles by Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method, which extrapolates for very small samples). Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = values.len() as i64;
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    // CPython's integer arithmetic: j = i*m // 4 clamped to 1..=ld-1,
    // delta = i*m - 4*j, then a weighted mean of v[j-1] and v[j].
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median (the spread the benchmark
/// contract bounds). `None` for fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `num / den`, or `0.0` when nothing was counted in the denominator — a
/// ratio of "none out of none" reads as none, never as NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&v, 90.0), 10);
        assert!(tail(&v, 90.0).is_some());
        assert!(tail(&v[..99], 90.0).is_none());
        let w: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail(&w, 99.0).is_none());
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w, 99.0), Some(990.0));
        assert_eq!(beyond(&w, 99.0), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[7.0, 7.0, 7.0, 7.0]), Some(0.0));
    }

    #[test]
    fn zero_denominators() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
