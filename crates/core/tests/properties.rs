//! Property-based tests for the method library's core invariants.

use madlib_core::datasets::labeled_point_schema;
use madlib_core::regress::LinearRegression;
use madlib_core::train::Estimator;
use madlib_core::validate::{accuracy, kfold_indices, mean_squared_error, r_squared};
use madlib_engine::{row, Dataset, Table};
use proptest::prelude::*;

fn build_table(points: &[(f64, f64)], segments: usize) -> Table {
    let mut t = Table::new(labeled_point_schema(), segments).unwrap();
    for &(x, noise) in points {
        // y = 1 + 2x + bounded noise.
        t.insert(row![1.0 + 2.0 * x + noise, vec![1.0, x]]).unwrap();
    }
    t
}

proptest! {
    /// The linear-regression UDA must be partition invariant: the merge law
    /// of Section 3.1.1 applied to the paper's flagship aggregate.
    #[test]
    fn linregr_is_partition_invariant(
        points in prop::collection::vec((-10.0..10.0f64, -0.1..0.1f64), 5..60),
        segments in 2usize..8,
    ) {
        let reference = LinearRegression::new("y", "x")
            .fit(&Dataset::from_table(&build_table(&points, 1)))
            .unwrap();
        let partitioned = LinearRegression::new("y", "x")
            .fit(&Dataset::from_table(&build_table(&points, segments)))
            .unwrap();
        for (a, b) in reference.coef.iter().zip(&partitioned.coef) {
            prop_assert!((a - b).abs() < 1e-7);
        }
        prop_assert!((reference.r2 - partitioned.r2).abs() < 1e-7);
    }

    /// With bounded noise the fitted slope/intercept stay near the generator.
    #[test]
    fn linregr_recovers_bounded_noise_models(
        points in prop::collection::vec((-5.0..5.0f64, -0.05..0.05f64), 30..80),
    ) {
        // Require enough spread in x for identifiability.
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1.0);
        let model = LinearRegression::new("y", "x")
            .fit(&Dataset::from_table(&build_table(&points, 3)))
            .unwrap();
        prop_assert!((model.coef[0] - 1.0).abs() < 0.3, "intercept {}", model.coef[0]);
        prop_assert!((model.coef[1] - 2.0).abs() < 0.3, "slope {}", model.coef[1]);
    }

    /// k-fold splits are always a partition of the input indices.
    #[test]
    fn kfold_is_a_partition(n in 4usize..200, k in 2usize..6, seed in any::<u64>()) {
        prop_assume!(k <= n);
        let folds = kfold_indices(n, k, seed).unwrap();
        prop_assert_eq!(folds.len(), k);
        let mut seen = vec![false; n];
        for fold in &folds {
            prop_assert_eq!(fold.train.len() + fold.test.len(), n);
            for &i in &fold.test {
                prop_assert!(!seen[i], "index in two test folds");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Metric sanity: accuracy of identical vectors is 1, MSE of identical
    /// vectors is 0, R² of a perfect prediction is 1.
    #[test]
    fn metric_identities(values in prop::collection::vec(-100.0..100.0f64, 2..50)) {
        let labels: Vec<bool> = values.iter().map(|v| *v > 0.0).collect();
        prop_assert_eq!(accuracy(&labels, &labels).unwrap(), 1.0);
        prop_assert_eq!(mean_squared_error(&values, &values).unwrap(), 0.0);
        prop_assert!((r_squared(&values, &values).unwrap() - 1.0).abs() < 1e-12);
    }

    /// MSE is symmetric and non-negative.
    #[test]
    fn mse_symmetry(
        a in prop::collection::vec(-50.0..50.0f64, 1..40),
        b_seed in prop::collection::vec(-50.0..50.0f64, 1..40),
    ) {
        let n = a.len().min(b_seed.len());
        let a = &a[..n];
        let b = &b_seed[..n];
        let ab = mean_squared_error(a, b).unwrap();
        let ba = mean_squared_error(b, a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
    }
}
