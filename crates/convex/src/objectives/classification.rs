//! Classification objectives: logistic loss and SVM hinge loss (Table 2 rows
//! "Logistic Regression" and "Classification (SVM)").
//!
//! Both objectives expect labels encoded as ±1 in the label column (0/1
//! labels are remapped on the fly), matching the `Σ log(1 + exp(−y xᵀw))`
//! and `Σ (1 − y xᵀw)₊` forms printed in the paper's Table 2.  Any other
//! label, NaN included, is refused with
//! [`EngineError::InvalidArgument`](madlib_engine::EngineError), as
//! `LinearSvm` refuses it.

use crate::objective::{sgd_epoch_chunk_by_rows, ConvexObjective};
use crate::objectives::regression;
use madlib_engine::{EngineError, Result, Row, RowChunk, Schema};

/// The ±1 form of a label: 1 and −1 as they are, 0 as −1; anything else is
/// an error.
fn signed_label(raw: f64) -> Result<f64> {
    if raw == 1.0 {
        Ok(1.0)
    } else if raw == 0.0 || raw == -1.0 {
        Ok(-1.0)
    } else {
        let message = format!("classification labels must be -1, 0 or 1, found {raw}");
        Err(EngineError::invalid(message))
    }
}

fn labeled_point<'a>(
    row: &'a Row,
    schema: &Schema,
    y_column: &str,
    x_column: &str,
    model: &[f64],
) -> Result<(f64, &'a [f64])> {
    let (y, x) = regression::labeled_point(row, schema, y_column, x_column, model)?;
    Ok((signed_label(y)?, x))
}

/// Logistic-loss objective `Σ log(1 + exp(−y ⟨w, x⟩))`.
#[derive(Debug, Clone)]
pub struct LogisticObjective {
    y_column: String,
    x_column: String,
    dimension: usize,
}

impl LogisticObjective {
    /// Creates the objective for feature vectors of length `dimension`.
    pub fn new(y_column: impl Into<String>, x_column: impl Into<String>, dimension: usize) -> Self {
        Self {
            y_column: y_column.into(),
            x_column: x_column.into(),
            dimension,
        }
    }
}

impl ConvexObjective for LogisticObjective {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.y_column, &self.x_column])
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let margin: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() * y;
        // log(1 + exp(-margin)) computed stably.
        Ok(if margin > 0.0 {
            (-margin).exp().ln_1p()
        } else {
            -margin + margin.exp().ln_1p()
        })
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let margin: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() * y;
        let sigma = 1.0 / (1.0 + margin.exp()); // σ(−margin)
        for (g, xi) in gradient.iter_mut().zip(x) {
            *g += -y * sigma * xi;
        }
        Ok(())
    }

    /// Vectorized epoch inner loop over the chunk's contiguous `(y, x)`
    /// buffers; sequential per-row updates with the exact per-row arithmetic
    /// (same scratch zero/accumulate/step sequence), so bit-identical to the
    /// fallback.  Unrepresentable chunks fall back to
    /// [`sgd_epoch_chunk_by_rows`].
    fn sgd_epoch_chunk(
        &self,
        chunk: &RowChunk,
        schema: &Schema,
        model: &mut [f64],
        scratch_gradient: &mut [f64],
        step: f64,
    ) -> Result<u64> {
        let y_idx = schema.index_of(&self.y_column)?;
        let x_idx = schema.index_of(&self.x_column)?;
        let (y, x) = match (chunk.doubles(y_idx), chunk.double_arrays(x_idx)) {
            (Ok(y), Ok(x)) if !y.nulls.any_null() && !x.nulls().any_null() => (y, x),
            _ => {
                return sgd_epoch_chunk_by_rows(self, chunk, schema, model, scratch_gradient, step)
            }
        };
        if x.uniform_width() != Some(model.len()) || model.is_empty() {
            return sgd_epoch_chunk_by_rows(self, chunk, schema, model, scratch_gradient, step);
        }
        let width = model.len();
        for (point, &raw) in x.flat_values().chunks_exact(width).zip(y.values) {
            let yv = signed_label(raw)?;
            let mut dot = 0.0;
            for (xi, wi) in point.iter().zip(model.iter()) {
                dot += xi * wi;
            }
            let margin = dot * yv;
            let sigma = 1.0 / (1.0 + margin.exp());
            scratch_gradient.iter_mut().for_each(|g| *g = 0.0);
            for (g, xi) in scratch_gradient.iter_mut().zip(point) {
                *g += -yv * sigma * xi;
            }
            for (w, g) in model.iter_mut().zip(scratch_gradient.iter()) {
                *w -= step * g;
            }
            self.proximal(model, step);
        }
        Ok(chunk.len() as u64)
    }
}

/// Hinge-loss objective `Σ (1 − y ⟨w, x⟩)₊` with optional L2 regularization.
#[derive(Debug, Clone)]
pub struct SvmHingeObjective {
    y_column: String,
    x_column: String,
    dimension: usize,
    lambda: f64,
}

impl SvmHingeObjective {
    /// Creates the objective with L2 penalty `lambda` (0 disables it).
    pub fn new(
        y_column: impl Into<String>,
        x_column: impl Into<String>,
        dimension: usize,
        lambda: f64,
    ) -> Self {
        Self {
            y_column: y_column.into(),
            x_column: x_column.into(),
            dimension,
            lambda,
        }
    }
}

impl ConvexObjective for SvmHingeObjective {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.y_column, &self.x_column])
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let margin: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() * y;
        Ok((1.0 - margin).max(0.0))
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let margin: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() * y;
        if margin < 1.0 {
            for (g, xi) in gradient.iter_mut().zip(x) {
                *g += -y * xi;
            }
        }
        Ok(())
    }

    fn proximal(&self, model: &mut [f64], step: f64) {
        if self.lambda > 0.0 {
            let shrink = (1.0 - step * self.lambda).max(0.0);
            for w in model {
                *w *= shrink;
            }
        }
    }

    fn regularization(&self, model: &[f64]) -> f64 {
        0.5 * self.lambda * model.iter().map(|w| w * w).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igd::{IgdConfig, IgdEstimator};
    use crate::schedule::StepSchedule;
    use madlib_core::Estimator;
    use madlib_engine::{row, Column, ColumnType, Dataset, Schema, Table};

    fn separable_table(segments: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        for i in 0..200 {
            let shift = 1.0 + (i % 7) as f64 * 0.1;
            t.insert(row![1.0, vec![1.0, shift]]).unwrap();
            t.insert(row![-1.0, vec![1.0, -shift]]).unwrap();
        }
        t
    }

    fn accuracy(model: &[f64], table: &Table) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for r in table.iter() {
            let y = signed_label(r.get(0).as_double().unwrap()).unwrap();
            let x = r.get(1).as_double_array().unwrap();
            let score: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum();
            if score.signum() == y {
                correct += 1;
            }
            total += 1;
        }
        correct as f64 / total as f64
    }

    #[test]
    fn logistic_objective_learns_separator() {
        let table = separable_table(3);
        let objective = LogisticObjective::new("y", "x", 2);
        let summary = IgdEstimator::new(objective)
            .with_config(IgdConfig {
                max_epochs: 100,
                tolerance: 1e-9,
                schedule: StepSchedule::Constant(0.1),
            })
            .fit(&Dataset::from_table(&table))
            .unwrap();
        assert!(summary.objective_value < summary.initial_objective_value);
        assert!(accuracy(&summary.model, &table) > 0.99);
    }

    #[test]
    fn hinge_objective_learns_separator() {
        let table = separable_table(3);
        let objective = SvmHingeObjective::new("y", "x", 2, 1e-3);
        let summary = IgdEstimator::new(objective.clone())
            .with_config(IgdConfig {
                max_epochs: 60,
                tolerance: 1e-9,
                schedule: StepSchedule::InverseSqrt(0.5),
            })
            .fit(&Dataset::from_table(&table))
            .unwrap();
        assert!(accuracy(&summary.model, &table) > 0.99);
        assert!(objective.regularization(&summary.model) >= 0.0);
    }

    #[test]
    fn loss_values_match_closed_forms() {
        let schema = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let positive = row![1.0, vec![2.0]];
        let negative = row![0.0, vec![2.0]]; // remapped to −1
        let logistic = LogisticObjective::new("y", "x", 1);
        let model = [0.5];
        // margin = 1 for the positive row.
        let expected = (1.0_f64 + (-1.0_f64).exp()).ln();
        assert!((logistic.row_loss(&positive, &schema, &model).unwrap() - expected).abs() < 1e-12);
        // Negative row: margin = -1, loss = ln(1 + e).
        let expected_neg = (1.0_f64 + 1.0_f64.exp()).ln();
        assert!(
            (logistic.row_loss(&negative, &schema, &model).unwrap() - expected_neg).abs() < 1e-9
        );

        let hinge = SvmHingeObjective::new("y", "x", 1, 0.0);
        assert_eq!(hinge.row_loss(&positive, &schema, &model).unwrap(), 0.0);
        assert_eq!(hinge.row_loss(&negative, &schema, &model).unwrap(), 2.0);
        // Gradient of the satisfied hinge constraint is zero.
        let mut g = vec![0.0];
        hinge
            .accumulate_gradient(&positive, &schema, &[1.0], &mut g)
            .unwrap();
        assert_eq!(g, vec![0.0]);
    }

    #[test]
    fn label_remapping() {
        assert_eq!(signed_label(0.0).unwrap(), -1.0);
        assert_eq!(signed_label(1.0).unwrap(), 1.0);
        assert_eq!(signed_label(-1.0).unwrap(), -1.0);
        assert!(matches!(
            signed_label(5.0),
            Err(EngineError::InvalidArgument { .. })
        ));
    }

    /// A label other than −1, 0 or 1 fails the fit under either executor,
    /// instead of being read as its sign (or, NaN, poisoning the model).
    /// `tests/chunk_equivalence.rs` holds the chunk path to the row path's
    /// refusal.
    #[test]
    fn labels_outside_minus_one_zero_one_are_refused() {
        use madlib_engine::Executor;
        for bad in [0.3, 2.0, -7.0, f64::NAN] {
            let mut t = Table::new(separable_table(1).schema().clone(), 2).unwrap();
            for i in 0..40 {
                let y = (i % 2) as f64;
                t.insert(row![y, vec![1.0, y - 0.5]]).unwrap();
            }
            t.insert(row![bad, vec![1.0, 0.5]]).unwrap();
            for executor in [Executor::new(), Executor::serial()] {
                let dataset = Dataset::from_table(&t).with_executor(executor);
                let logistic = IgdEstimator::new(LogisticObjective::new("y", "x", 2));
                let hinge = IgdEstimator::new(SvmHingeObjective::new("y", "x", 2, 1e-3));
                assert!(logistic.fit(&dataset).is_err(), "label {bad}");
                assert!(hinge.fit(&dataset).is_err(), "label {bad}");
            }
        }
    }
}
