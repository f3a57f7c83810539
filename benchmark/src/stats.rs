//! Order statistics: medians, quartiles the way the acceptance check takes
//! them, and the rule for which tail percentile a sample supports.

/// Sort a sample of finite numbers in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a sorted, non-empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of a sorted sample of at least two values, as
/// Python's `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the numbers the acceptance check computes its spread from.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median; `None` below four
/// values or at a zero median.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    if sorted.len() < 4 {
        return None;
    }
    let m = median(sorted);
    let (q1, q3) = quartiles(sorted);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of a sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it:
/// with fewer, the value is one outlier's position, not a property of the
/// distribution.
pub fn supports(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// The highest of p50 / p90 / p99 / p99.9 that `samples` supports.
pub fn highest_supported(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(samples, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
        assert_eq!(spread(&[1.0, 2.0, 4.0, 8.0]), Some(5.75 / 3.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(5000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }
}
