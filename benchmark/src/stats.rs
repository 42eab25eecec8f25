//! The statistics every reported number goes through.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice so a missing measurement can never pass as one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method: the `i`-th cut point sits at rank `i·(n+1)/4`, interpolated and
/// clamped to the sample) — the rule the acceptance driver applies to the
/// ten runs of a workload.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        // 1-based rank j with remainder delta: i·(n+1) = 4·j + delta.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The highest percentile of a latency sample that still has at least ten
/// samples beyond it, with the value at that percentile: with `n` samples
/// that is the `(n − 10) / n` quantile, read at the sorted sample of rank
/// `n − 10` (1-based).  `None` below eleven samples, where not even the
/// minimum qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some([10.0, 20.0, 30.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: only the minimum has ten samples beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // 1000 samples: the 99th percentile is the highest supported one.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (pct, value) = tail(&thousand).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(thousand.iter().filter(|&&v| v > value).count(), 10);
    }
}
