//! Descriptive statistics.
//!
//! A streaming univariate summary accumulator.  This doubles as (a) the
//! numeric backbone of the `profile` module (Table 1: "Data Profiling") and
//! (b) a tiny worked example of the user-defined-aggregate pattern: it has a
//! `update` (transition), `merge`, and read-out (final) structure, and the
//! engine crate exposes it as a UDA.

use std::collections::BTreeMap;

/// Streaming summary of a univariate numeric sample.
///
/// Uses the numerically stable Welford/Chan parallel update so that merging
/// per-segment partial states (the UDA `merge` step) is exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    null_count: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            null_count: 0,
        }
    }

    /// Adds one observation (the UDA transition step).  NaN values are
    /// counted as nulls, mirroring SQL aggregate semantics where NULLs are
    /// skipped but counted by the profiler.
    pub fn update(&mut self, x: f64) {
        if x.is_nan() {
            self.null_count += 1;
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a missing value explicitly.
    pub fn update_null(&mut self) {
        self.null_count += 1;
    }

    /// Adds a contiguous slice of observations in order — the vectorized
    /// transition used by chunk-at-a-time scan consumers.  Exactly equivalent
    /// to calling [`Summary::update`] element by element (same accumulation
    /// order, same NaN-as-null handling).
    pub fn update_slice(&mut self, values: &[f64]) {
        for &x in values {
            self.update(x);
        }
    }

    /// Merges another summary into this one (the UDA merge step).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            self.null_count += other.null_count;
            return;
        }
        if self.count == 0 {
            let nulls = self.null_count;
            *self = other.clone();
            self.null_count += nulls;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.null_count += other.null_count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The six accumulators — count, mean, m2, min, max, null count — as
    /// they are, for persisting a summary bit for bit.
    pub fn to_parts(&self) -> (u64, [f64; 4], u64) {
        let values = [self.mean, self.m2, self.min, self.max];
        (self.count, values, self.null_count)
    }

    /// The summary [`Summary::to_parts`] took apart.
    pub fn from_parts((count, [mean, m2, min, max], null_count): (u64, [f64; 4], u64)) -> Self {
        Self {
            count,
            mean,
            m2,
            min,
            max,
            null_count,
        }
    }

    /// Number of non-null observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of null/NaN observations.
    pub fn null_count(&self) -> u64 {
        self.null_count
    }

    /// Arithmetic mean; `None` when no observations have been seen.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance; `None` when no observations have been seen.
    pub fn variance_population(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Minimum; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of the observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

/// Frequency table for categorical (string) data, used by the profile module
/// to report most-common values and distinct counts exactly on modest
/// cardinalities (the sketch crate handles the approximate large-cardinality
/// case).
#[derive(Debug, Clone, Default)]
pub struct FrequencyTable {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl FrequencyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one categorical observation.
    pub fn update(&mut self, value: &str) {
        *self.counts.entry(value.to_owned()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &FrequencyTable) {
        for (k, v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
        self.total += other.total;
    }

    /// Number of distinct values seen.
    pub fn distinct_count(&self) -> usize {
        self.counts.len()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `k` most common values with their counts, most frequent first.
    /// Ties are broken by value (lexicographic) for determinism.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.counts.iter().map(|(k, v)| (k.clone(), *v)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
    }

    /// Count of a specific value.
    pub fn count_of(&self, value: &str) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }
}

/// Pearson correlation of two equally-long samples; `None` when either
/// sample is constant or the lengths differ.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mean_x) * (b - mean_y);
        var_x += (a - mean_x) * (a - mean_x);
        var_y += (b - mean_y) * (b - mean_y);
    }
    if var_x <= 0.0 || var_y <= 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Summary {
        /// Sample variance (n − 1 denominator); `None` with fewer than two
        /// observations.
        fn variance_sample(&self) -> Option<f64> {
            (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
        }
    }

    #[test]
    fn summary_basic_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.update(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.variance_population(), Some(4.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
        assert!((s.variance_sample().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_nulls() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance_sample(), None);
        assert_eq!(s.min(), None);
        s.update(f64::NAN);
        s.update_null();
        assert_eq!(s.count(), 0);
        assert_eq!(s.null_count(), 2);
    }

    #[test]
    fn summary_merge_equals_streaming() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.update(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &data[..37] {
            left.update(x);
        }
        for &x in &data[37..] {
            right.update(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-10);
        assert!((left.variance_sample().unwrap() - whole.variance_sample().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty_sides() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.update(3.0);
        b.update(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), Some(4.0));
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn frequency_table_top_k() {
        let mut f = FrequencyTable::new();
        for v in ["a", "b", "a", "c", "a", "b"] {
            f.update(v);
        }
        assert_eq!(f.distinct_count(), 3);
        assert_eq!(f.total(), 6);
        assert_eq!(f.count_of("a"), 3);
        assert_eq!(f.count_of("zzz"), 0);
        let top = f.top_k(2);
        assert_eq!(top[0], ("a".to_owned(), 3));
        assert_eq!(top[1], ("b".to_owned(), 2));

        let mut g = FrequencyTable::new();
        g.update("c");
        f.merge(&g);
        assert_eq!(f.count_of("c"), 2);
        assert_eq!(f.total(), 7);
    }

    #[test]
    fn pearson_correlation_known_cases() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0, 10.0];
        let y_neg = [10.0, 8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&x, &y_pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson_correlation(&x, &[1.0, 1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(pearson_correlation(&x, &[1.0]), None);
    }
}
