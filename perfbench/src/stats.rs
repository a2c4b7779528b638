//! Order statistics used by every metric: medians, nearest-rank
//! percentiles, and the "highest percentile with at least ten samples
//! beyond it" rule.

/// Samples a reported tail percentile must leave strictly above it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0–100) of an ascending slice. Infinite
/// entries (failed operations) sort last and count as beyond any limit.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `q` in `n` samples. The epsilon
/// keeps products such as `0.99 × 1000` from rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    (q * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Ascending sort that keeps infinities last.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// Samples strictly above the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).clamp(1, n.max(1)).min(n)
}

/// The highest whole or tenth percentile of `n` samples that still leaves
/// [`TAIL_SAMPLES`] samples beyond it; `None` when `n` is too small to
/// support even the median.
pub fn highest_supported(n: usize) -> Option<f64> {
    (500..=999)
        .rev()
        .map(|t| t as f64 / 10.0)
        .find(|&q| n > 0 && beyond(n, q) >= TAIL_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failed_samples_count_beyond_the_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v[0] = f64::INFINITY;
        sort(&mut v);
        assert!(v[999].is_infinite());
        assert_eq!(percentile(&v, 99.0), 991.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), Some(99.0));
        // 999 samples cannot support p99 (9 beyond), p98.9 leaves 10.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999), Some(98.9));
        // 100 samples support p90 and no higher.
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(beyond(100, 90.0), 10);
        // Fewer than 20 samples cannot even support the median.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(0), None);
    }
}
