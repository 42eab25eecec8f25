//! Linear support vector machines.
//!
//! MADlib's SVM module (Table 1) and the Wisconsin SGD framework's
//! "Classification (SVM)" objective (Table 2) both train a linear SVM by
//! stochastic (sub)gradient descent on the regularized hinge loss — the
//! Pegasos-style update.  Labels are `±1`; the decision function is
//! `sign(⟨w, x⟩)` (add a constant 1 feature for a bias term).

use crate::error::{MethodError, Result};
use crate::train::Estimator;
use madlib_engine::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A fitted linear SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    /// Weight vector.
    pub weights: Vec<f64>,
    /// Regularization parameter λ used during training.
    pub lambda: f64,
    /// Number of epochs run.
    pub epochs: usize,
    /// Average hinge loss + regularization on the final epoch.
    pub final_objective: f64,
    /// Number of training rows.
    pub num_rows: usize,
}

impl SvmModel {
    /// Raw decision value `⟨w, x⟩`.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a feature-length mismatch.
    pub fn decision_value(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.weights.len() {
            return Err(MethodError::invalid_input(format!(
                "feature length {} does not match weight length {}",
                x.len(),
                self.weights.len()
            )));
        }
        Ok(self.weights.iter().zip(x).map(|(w, v)| w * v).sum())
    }

    /// Predicted label in {−1, +1}.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a feature-length mismatch.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        Ok(if self.decision_value(x)? >= 0.0 {
            1.0
        } else {
            -1.0
        })
    }
}

/// Linear SVM trained with Pegasos-style stochastic subgradient descent.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    label_column: String,
    features_column: String,
    lambda: f64,
    epochs: usize,
    seed: u64,
}

impl LinearSvm {
    /// Creates a trainer with defaults (λ = 1e-3, 20 epochs, seed 0).
    pub fn new(label_column: impl Into<String>, features_column: impl Into<String>) -> Self {
        Self {
            label_column: label_column.into(),
            features_column: features_column.into(),
            lambda: 1e-3,
            epochs: 20,
            seed: 0,
        }
    }

    /// Sets the regularization strength λ.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] for λ ≤ 0.
    pub fn with_lambda(mut self, lambda: f64) -> Result<Self> {
        if lambda <= 0.0 {
            return Err(MethodError::invalid_parameter("lambda", "must be positive"));
        }
        self.lambda = lambda;
        Ok(self)
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the shuffling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Estimator for LinearSvm {
    type Model = SvmModel;

    /// Fits the model over the dataset's (filtered) rows.  Labels must be
    /// −1 or +1 (0/1 labels are remapped).
    ///
    /// # Errors
    /// [`MethodError::InvalidInput`] for a dataset that selects no row,
    /// ragged feature vectors, or a label other than −1, 0 or 1 (NaN
    /// included); engine errors from the scan.
    fn fit(&self, dataset: &Dataset<'_>) -> Result<SvmModel> {
        let label_col = self.label_column.clone();
        let feat_col = self.features_column.clone();
        let rows: Vec<(f64, Vec<f64>)> = dataset
            .map_rows(move |row, schema| {
                let y = row.get_named(schema, &label_col)?.as_double()?;
                let x = row
                    .get_named(schema, &feat_col)?
                    .as_double_array()?
                    .to_vec();
                Ok((y, x))
            })
            .map_err(MethodError::from)?;
        let width = rows
            .first()
            .map(|(_, x)| x.len())
            .ok_or_else(|| MethodError::invalid_input("empty input table"))?;
        let mut data = Vec::with_capacity(rows.len());
        for (y, x) in rows {
            if x.len() != width {
                return Err(MethodError::invalid_input(
                    "inconsistent feature widths across rows",
                ));
            }
            let label = match y {
                -1.0 | 0.0 => -1.0,
                1.0 => 1.0,
                _ => {
                    return Err(MethodError::invalid_input(format!(
                        "SVM labels must be -1, 0 or 1, found {y}"
                    )))
                }
            };
            data.push((label, x));
        }

        let mut weights = vec![0.0; width];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut t: u64 = 0;
        for _epoch in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (self.lambda * t as f64);
                let (y, x) = &data[i];
                let margin: f64 = weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() * y;
                // w ← (1 − ηλ) w  [+ η y x  when the margin is violated]
                let shrink = 1.0 - eta * self.lambda;
                for w in weights.iter_mut() {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    for (w, v) in weights.iter_mut().zip(x) {
                        *w += eta * y * v;
                    }
                }
            }
        }

        // Final objective: λ/2 ‖w‖² + mean hinge loss.
        let norm_sq: f64 = weights.iter().map(|w| w * w).sum();
        let hinge: f64 = data
            .iter()
            .map(|(y, x)| {
                let margin: f64 = weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() * y;
                (1.0 - margin).max(0.0)
            })
            .sum::<f64>()
            / data.len() as f64;
        Ok(SvmModel {
            weights,
            lambda: self.lambda,
            epochs: self.epochs,
            final_objective: 0.5 * self.lambda * norm_sq + hinge,
            num_rows: data.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::{row, Column, ColumnType, Schema, Table};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ])
    }

    fn separable_table(segments: usize) -> Table {
        let mut t = Table::new(schema(), segments).unwrap();
        // Separable by the hyperplane x1 + x2 = 0 with a wide margin.
        for i in 0..100 {
            let offset = 1.0 + (i % 10) as f64 * 0.2;
            let along = (i % 7) as f64 - 3.0;
            // Positive side.
            t.insert(row![
                1.0,
                vec![1.0, offset + along * 0.1, offset - along * 0.1]
            ])
            .unwrap();
            // Negative side.
            t.insert(row![
                -1.0,
                vec![1.0, -offset + along * 0.1, -offset - along * 0.1]
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn separates_linearly_separable_data() {
        let t = separable_table(4);
        let model = LinearSvm::new("y", "x")
            .with_epochs(30)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(model.num_rows, 200);
        let mut correct = 0;
        for row in t.iter() {
            let y = row.get(0).as_double().unwrap();
            let x = row.get(1).as_double_array().unwrap();
            if model.predict(x).unwrap() == y {
                correct += 1;
            }
        }
        assert!(
            correct >= 195,
            "expected near-perfect separation, got {correct}/200"
        );
        assert!(model.final_objective < 0.5);
    }

    #[test]
    fn zero_one_labels_are_remapped() {
        let mut t = Table::new(schema(), 2).unwrap();
        for i in 0..50 {
            let v = i as f64 / 10.0 - 2.5;
            let y = if v > 0.0 { 1.0 } else { 0.0 };
            t.insert(row![y, vec![1.0, v]]).unwrap();
        }
        let model = LinearSvm::new("y", "x")
            .with_epochs(40)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(model.predict(&[1.0, 2.0]).unwrap(), 1.0);
        assert_eq!(model.predict(&[1.0, -2.0]).unwrap(), -1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = separable_table(2);
        let a = LinearSvm::new("y", "x")
            .with_seed(7)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        let b = LinearSvm::new("y", "x")
            .with_seed(7)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn parameter_validation_and_errors() {
        assert!(LinearSvm::new("y", "x").with_lambda(0.0).is_err());
        assert!(LinearSvm::new("y", "x").with_lambda(0.1).is_ok());
        let empty = Table::new(schema(), 2).unwrap();
        assert!(LinearSvm::new("y", "x")
            .fit(&Dataset::from_table(&empty))
            .is_err());

        let mut ragged = Table::new(schema(), 1).unwrap();
        ragged.insert(row![1.0, vec![1.0, 2.0]]).unwrap();
        ragged.insert(row![-1.0, vec![1.0]]).unwrap();
        assert!(LinearSvm::new("y", "x")
            .fit(&Dataset::from_table(&ragged))
            .is_err());

        let t = separable_table(1);
        let model = LinearSvm::new("y", "x")
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert!(model.decision_value(&[1.0]).is_err());
    }

    #[test]
    fn labels_outside_minus_one_zero_one_are_refused() {
        let fit = |labels: &[f64]| {
            let mut t = Table::new(schema(), 2).unwrap();
            for (i, &y) in labels.iter().enumerate() {
                t.insert(row![y, vec![1.0, i as f64]]).unwrap();
            }
            LinearSvm::new("y", "x").fit(&Dataset::from_table(&t))
        };
        let model = fit(&[-1.0, 0.0, 1.0]).unwrap();
        assert_eq!(model.num_rows, 3);
        for bad in [f64::NAN, 2.0, 0.3] {
            assert!(
                matches!(
                    fit(&[-1.0, bad, 1.0]),
                    Err(MethodError::InvalidInput { .. })
                ),
                "label {bad} was accepted"
            );
        }
    }
}
