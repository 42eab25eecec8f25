//! Regression objectives: least squares, ridge, and lasso (Table 2 rows
//! "Least Squares" and "Lasso").

use crate::objective::{sgd_epoch_chunk_by_rows, ConvexObjective};
use madlib_engine::{EngineError, Result, Row, RowChunk, Schema};

/// The row's label and feature vector; a vector whose width is not the
/// model's is an error (a `zip` would silently drop coordinates).
pub(crate) fn labeled_point<'a>(
    row: &'a Row,
    schema: &Schema,
    y_column: &str,
    x_column: &str,
    model: &[f64],
) -> Result<(f64, &'a [f64])> {
    let y = row.get_named(schema, y_column)?.as_double()?;
    let x = row.get_named(schema, x_column)?.as_double_array()?;
    let (got, want) = (x.len(), model.len());
    if got != want {
        let message = format!("{got} features for a model of width {want}");
        return Err(EngineError::invalid(message));
    }
    Ok((y, x))
}

/// Squared-error objective `Σ (⟨w, x⟩ − y)²`.
#[derive(Debug, Clone)]
pub struct LeastSquaresObjective {
    y_column: String,
    x_column: String,
    dimension: usize,
}

impl LeastSquaresObjective {
    /// Creates the objective for feature vectors of length `dimension`.
    pub fn new(y_column: impl Into<String>, x_column: impl Into<String>, dimension: usize) -> Self {
        Self {
            y_column: y_column.into(),
            x_column: x_column.into(),
            dimension,
        }
    }
}

impl ConvexObjective for LeastSquaresObjective {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.y_column, &self.x_column])
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let residual: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() - y;
        Ok(residual * residual)
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        let (y, x) = labeled_point(row, schema, &self.y_column, &self.x_column, model)?;
        let residual: f64 = x.iter().zip(model).map(|(a, b)| a * b).sum::<f64>() - y;
        for (g, xi) in gradient.iter_mut().zip(x) {
            *g += 2.0 * residual * xi;
        }
        Ok(())
    }

    /// Vectorized epoch inner loop: reads the chunk's `(y, x)` buffers
    /// directly, skipping per-row `Value` unpacking.  The model update is
    /// still sequential per row (that is the definition of IGD) and repeats
    /// the per-row arithmetic exactly — the scratch gradient is zeroed and
    /// filled the same way — so the result is bit-identical to the fallback.
    /// Chunks with NULLs, wrong column types, or widths the per-row `zip`s
    /// would truncate fall back to [`sgd_epoch_chunk_by_rows`].
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
        for (point, &yv) in x.flat_values().chunks_exact(width).zip(y.values) {
            let mut dot = 0.0;
            for (xi, wi) in point.iter().zip(model.iter()) {
                dot += xi * wi;
            }
            let residual = dot - yv;
            scratch_gradient.iter_mut().for_each(|g| *g = 0.0);
            for (g, xi) in scratch_gradient.iter_mut().zip(point) {
                *g += 2.0 * residual * xi;
            }
            for (w, g) in model.iter_mut().zip(scratch_gradient.iter()) {
                *w -= step * g;
            }
            self.proximal(model, step);
        }
        Ok(chunk.len() as u64)
    }
}

/// Ridge regression: least squares plus `µ‖w‖₂²`.
#[derive(Debug, Clone)]
pub struct RidgeObjective {
    inner: LeastSquaresObjective,
    mu: f64,
}

impl RidgeObjective {
    /// Creates the objective with L2 penalty `mu`.
    pub fn new(
        y_column: impl Into<String>,
        x_column: impl Into<String>,
        dimension: usize,
        mu: f64,
    ) -> Self {
        Self {
            inner: LeastSquaresObjective::new(y_column, x_column, dimension),
            mu,
        }
    }
}

impl ConvexObjective for RidgeObjective {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        self.inner.input_columns()
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        self.inner.row_loss(row, schema, model)
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        self.inner
            .accumulate_gradient(row, schema, model, gradient)?;
        // The L2 term is spread across rows by the per-row update; adding the
        // full gradient of µ‖w‖² at every row would over-regularize, so it is
        // scaled into the per-row step via the proximal hook instead.
        Ok(())
    }

    fn proximal(&self, model: &mut [f64], step: f64) {
        // Weight decay: w ← w · (1 − 2·step·µ) — the gradient step of µ‖w‖².
        let shrink = (1.0 - 2.0 * step * self.mu).max(0.0);
        for w in model {
            *w *= shrink;
        }
    }

    fn regularization(&self, model: &[f64]) -> f64 {
        self.mu * model.iter().map(|w| w * w).sum::<f64>()
    }
}

/// Lasso: least squares plus `µ‖w‖₁`, handled with the soft-thresholding
/// proximal operator (the standard ISTA/proximal-SGD treatment, since the L1
/// term is not differentiable).
#[derive(Debug, Clone)]
pub struct LassoObjective {
    inner: LeastSquaresObjective,
    mu: f64,
}

impl LassoObjective {
    /// Creates the objective with L1 penalty `mu`.
    pub fn new(
        y_column: impl Into<String>,
        x_column: impl Into<String>,
        dimension: usize,
        mu: f64,
    ) -> Self {
        Self {
            inner: LeastSquaresObjective::new(y_column, x_column, dimension),
            mu,
        }
    }
}

impl ConvexObjective for LassoObjective {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        self.inner.input_columns()
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        self.inner.row_loss(row, schema, model)
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        self.inner.accumulate_gradient(row, schema, model, gradient)
    }

    fn proximal(&self, model: &mut [f64], step: f64) {
        let threshold = step * self.mu;
        for w in model {
            *w = w.signum() * (w.abs() - threshold).max(0.0);
        }
    }

    fn regularization(&self, model: &[f64]) -> f64 {
        self.mu * model.iter().map(|w| w.abs()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igd::{IgdConfig, IgdEstimator};
    use crate::schedule::StepSchedule;
    use madlib_core::Estimator;
    use madlib_engine::{row, Column, ColumnType, Dataset, Schema, Table};

    fn table_with_sparse_truth(segments: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        // y depends only on x1 of four features: the lasso should zero the rest.
        for i in 0..400 {
            let x1 = ((i * 7) % 13) as f64 / 13.0 - 0.5;
            let x2 = ((i * 3) % 11) as f64 / 11.0 - 0.5;
            let x3 = ((i * 5) % 17) as f64 / 17.0 - 0.5;
            let x4 = ((i * 11) % 19) as f64 / 19.0 - 0.5;
            t.insert(row![3.0 * x1, vec![x1, x2, x3, x4]]).unwrap();
        }
        t
    }

    /// A feature vector of another width than the model is an error in every
    /// labeled-point objective, not a sum over the shorter of the two.
    #[test]
    fn a_feature_vector_of_another_width_is_an_error() {
        use crate::objectives::classification::{LogisticObjective, SvmHingeObjective};
        let schema = table_with_sparse_truth(1).schema().clone();
        let objectives: [&dyn ConvexObjective; 4] = [
            &LeastSquaresObjective::new("y", "x", 4),
            &LassoObjective::new("y", "x", 4, 0.1),
            &LogisticObjective::new("y", "x", 4),
            &SvmHingeObjective::new("y", "x", 4, 1e-3),
        ];
        for objective in objectives {
            for x in [vec![1.0, 2.0, 3.0], vec![1.0; 5]] {
                let row = row![1.0, x];
                let mut gradient = [0.0; 4];
                assert!(objective.row_loss(&row, &schema, &[0.5; 4]).is_err());
                let accumulated =
                    objective.accumulate_gradient(&row, &schema, &[0.5; 4], &mut gradient);
                assert!(accumulated.is_err());
                assert_eq!(gradient, [0.0; 4]);
            }
            assert!(objective
                .row_loss(&row![1.0, vec![1.0; 4]], &schema, &[0.5; 4])
                .is_ok());
        }
    }

    fn run<O: ConvexObjective + Clone>(objective: &O, table: &Table, epochs: usize) -> Vec<f64> {
        IgdEstimator::new(objective.clone())
            .with_config(IgdConfig {
                max_epochs: epochs,
                tolerance: 1e-10,
                schedule: StepSchedule::Constant(0.05),
            })
            .fit(&Dataset::from_table(table))
            .unwrap()
            .model
    }

    #[test]
    fn least_squares_gradient_is_correct() {
        let schema = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let r = row![2.0, vec![1.0, 3.0]];
        let obj = LeastSquaresObjective::new("y", "x", 2);
        let model = [0.5, 0.5];
        // residual = 0.5 + 1.5 - 2 = 0; gradient = 0.
        assert_eq!(obj.row_loss(&r, &schema, &model).unwrap(), 0.0);
        let mut g = vec![0.0, 0.0];
        obj.accumulate_gradient(&r, &schema, &model, &mut g)
            .unwrap();
        assert_eq!(g, vec![0.0, 0.0]);
        // With model 0: residual = -2, loss 4, gradient = 2*(-2)*x.
        assert_eq!(obj.row_loss(&r, &schema, &[0.0, 0.0]).unwrap(), 4.0);
        let mut g = vec![0.0, 0.0];
        obj.accumulate_gradient(&r, &schema, &[0.0, 0.0], &mut g)
            .unwrap();
        assert_eq!(g, vec![-4.0, -12.0]);
    }

    #[test]
    fn lasso_shrinks_irrelevant_coefficients() {
        let table = table_with_sparse_truth(3);
        let lasso = LassoObjective::new("y", "x", 4, 0.05);
        let model = run(&lasso, &table, 200);
        assert!(
            (model[0] - 3.0).abs() < 0.5,
            "relevant coefficient {model:?}"
        );
        for irrelevant in &model[1..] {
            assert!(
                irrelevant.abs() < 0.15,
                "irrelevant coefficient should shrink toward zero: {model:?}"
            );
        }
        // The penalized objective reports a non-zero regularization term.
        assert!(lasso.regularization(&model) > 0.0);
    }

    #[test]
    fn ridge_decays_weights() {
        let table = table_with_sparse_truth(2);
        let ridge = RidgeObjective::new("y", "x", 4, 0.5);
        let plain = LeastSquaresObjective::new("y", "x", 4);
        let ridge_model = run(&ridge, &table, 100);
        let plain_model = run(&plain, &table, 100);
        let ridge_norm: f64 = ridge_model.iter().map(|w| w * w).sum();
        let plain_norm: f64 = plain_model.iter().map(|w| w * w).sum();
        assert!(ridge_norm < plain_norm, "ridge must shrink the weight norm");
        assert!(ridge.regularization(&ridge_model) > 0.0);
        assert_eq!(ridge.dimension(), 4);
    }

    #[test]
    fn soft_threshold_operator() {
        let lasso = LassoObjective::new("y", "x", 3, 1.0);
        let mut model = vec![2.0, -0.5, 0.3];
        lasso.proximal(&mut model, 0.4); // threshold = 0.4
        assert!((model[0] - 1.6).abs() < 1e-12);
        assert!((model[1] + 0.1).abs() < 1e-12);
        assert_eq!(model[2], 0.0);
        assert!((lasso.regularization(&[1.0, -2.0, 0.0]) - 3.0).abs() < 1e-12);
    }
}
