//! Binary logistic regression (paper Section 4.2).
//!
//! Fitted by iteratively reweighted least squares (IRLS, i.e. Newton's method
//! on the log-likelihood), following the paper's Figure 3 control flow: a
//! driver loop (the [`Iterative`] driver) repeatedly invokes a
//! user-defined aggregate (`logregr_irls_step`) that computes one Newton
//! update in a single parallel pass over the data, handing only the (small)
//! coefficient state from one iteration to the next.
//!
//! An SGD-based solver for the same model lives in the `madlib-convex` crate
//! (the paper's Section 5.1 framework); the two are cross-checked in the
//! integration tests.

use crate::error::{MethodError, Result};
use crate::train::{l2_relative_convergence, Iterated, Iterative};
use madlib_engine::aggregate::{extract_labeled_point, transition_chunk_by_rows};
use madlib_engine::dataset::Dataset;
use madlib_engine::{Aggregate, Row, RowChunk, Schema};
use madlib_linalg::decomposition::{symmetric_inverse_with, symmetric_solve, EigenWorkspace};
use madlib_linalg::kernels::{batch_dot, weighted_rank_k_update_lower, xty_update};
use madlib_linalg::{DenseMatrix, DenseVector};
use madlib_stats::Normal;
use serde::{Deserialize, Serialize};

/// The logistic function σ(z) = 1 / (1 + e^{−z}).
pub fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Fitted binary logistic-regression model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegressionModel {
    /// Fitted coefficients.
    pub coef: Vec<f64>,
    /// Standard error of each coefficient (from the inverse Fisher
    /// information at the optimum).
    pub std_err: Vec<f64>,
    /// Wald z statistics.
    pub z_stats: Vec<f64>,
    /// Two-sided p-values of the Wald tests.
    pub p_values: Vec<f64>,
    /// Log-likelihood at the optimum.
    pub log_likelihood: f64,
    /// Number of IRLS iterations performed.
    pub num_iterations: usize,
    /// Whether the convergence criterion was met.
    pub converged: bool,
    /// Number of observations.
    pub num_rows: u64,
}

impl LogisticRegressionModel {
    /// Predicted probability `P(y = 1 | x)`.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a feature-length mismatch.
    pub fn predict_probability(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.coef.len() {
            return Err(MethodError::invalid_input(format!(
                "feature length {} does not match coefficient length {}",
                x.len(),
                self.coef.len()
            )));
        }
        Ok(sigmoid(self.coef.iter().zip(x).map(|(c, v)| c * v).sum()))
    }

    /// Predicted class label with a 0.5 threshold.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a feature-length mismatch.
    pub fn predict(&self, x: &[f64]) -> Result<bool> {
        Ok(self.predict_probability(x)? >= 0.5)
    }
}

/// One IRLS step as a user-defined aggregate: given the previous coefficient
/// vector β, accumulate the Hessian `XᵀDX`, the gradient `Xᵀ(y − p)` and the
/// log-likelihood in one pass.
#[derive(Debug, Clone)]
struct IrlsStep<'a> {
    y_column: &'a str,
    x_column: &'a str,
    beta: &'a [f64],
}

/// Transition state for [`IrlsStep`].
#[derive(Debug, Clone)]
struct IrlsState {
    num_rows: u64,
    width: usize,
    hessian: DenseMatrix,
    gradient: DenseVector,
    log_likelihood: f64,
}

impl IrlsState {
    fn empty() -> Self {
        Self {
            num_rows: 0,
            width: 0,
            hessian: DenseMatrix::zeros(0, 0),
            gradient: DenseVector::zeros(0),
            log_likelihood: 0.0,
        }
    }
}

impl Aggregate for IrlsStep<'_> {
    type State = IrlsState;
    type Output = (DenseMatrix, DenseVector, f64, u64);

    fn initial_state(&self) -> IrlsState {
        IrlsState::empty()
    }

    fn transition(
        &self,
        state: &mut IrlsState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let (y, x) = extract_labeled_point(row, schema, self.y_column, self.x_column)?;
        if !(y == 0.0 || y == 1.0) {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "logistic regression labels must be 0 or 1, found {y}"
            )));
        }
        if state.num_rows == 0 {
            state.width = x.len();
            state.hessian = DenseMatrix::zeros(x.len(), x.len());
            state.gradient = DenseVector::zeros(x.len());
        } else if x.len() != state.width {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "inconsistent feature width: expected {}, found {}",
                state.width,
                x.len()
            )));
        }
        if x.len() != self.beta.len() {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "feature width {} does not match coefficient width {}",
                x.len(),
                self.beta.len()
            )));
        }
        state.num_rows += 1;
        let eta: f64 = x.iter().zip(self.beta).map(|(a, b)| a * b).sum();
        let p = sigmoid(eta);
        let w = (p * (1.0 - p)).max(1e-12);
        // Gradient of the log-likelihood: Σ (y − p) x.
        for (g, xi) in state.gradient.as_mut_slice().iter_mut().zip(x) {
            *g += (y - p) * xi;
        }
        // Hessian (negated): Σ w x xᵀ — only the lower triangle, symmetrized
        // in finalize (same trick as linear regression).
        for i in 0..x.len() {
            for j in 0..=i {
                state.hessian.add_to(i, j, w * x[i] * x[j]);
            }
        }
        // Log-likelihood contribution.
        state.log_likelihood += if y > 0.5 {
            p.max(1e-300).ln()
        } else {
            (1.0 - p).max(1e-300).ln()
        };
        Ok(())
    }

    /// Chunk-at-a-time IRLS transition: linear scores `η = Xβ` come from the
    /// batched dot-product kernel over the chunk's contiguous feature block,
    /// the gradient `Xᵀ(y − p)` from the batched `Xᵀy` kernel, and the
    /// weighted Hessian `XᵀDX` from the tiled weighted rank-k kernel — all
    /// bit-identical to the per-row formulation.  Chunks the vectorized path
    /// cannot represent (NULLs, wrong column types, ragged or mismatched
    /// widths, labels outside {0, 1}) fall back to per-row transitions, which
    /// reproduces per-row error behaviour exactly.
    fn transition_chunk(
        &self,
        state: &mut IrlsState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let y_idx = schema.index_of(self.y_column)?;
        let x_idx = schema.index_of(self.x_column)?;
        let (y, x) = match (chunk.doubles(y_idx), chunk.double_arrays(x_idx)) {
            (Ok(y), Ok(x)) if !y.nulls.any_null() && !x.nulls().any_null() => (y, x),
            _ => return transition_chunk_by_rows(self, state, chunk, schema),
        };
        let widths_consistent = x.uniform_width() == Some(self.beta.len())
            && (state.num_rows == 0 || state.width == self.beta.len());
        let labels_valid = y.values.iter().all(|&v| v == 0.0 || v == 1.0);
        if !widths_consistent || !labels_valid {
            return transition_chunk_by_rows(self, state, chunk, schema);
        }
        let width = self.beta.len();
        if state.num_rows == 0 {
            state.width = width;
            state.hessian = DenseMatrix::zeros(width, width);
            state.gradient = DenseVector::zeros(width);
        }
        let rows = chunk.len();
        let xs = x.flat_values();
        let mut eta = vec![0.0; rows];
        batch_dot(xs, self.beta, &mut eta);
        // Per-row residuals (y − p) and IRLS weights w = p(1 − p).
        let mut residuals = vec![0.0; rows];
        let mut weights = vec![0.0; rows];
        for (i, (&yv, &e)) in y.values.iter().zip(&eta).enumerate() {
            let p = sigmoid(e);
            residuals[i] = yv - p;
            weights[i] = (p * (1.0 - p)).max(1e-12);
            state.log_likelihood += if yv > 0.5 {
                p.max(1e-300).ln()
            } else {
                (1.0 - p).max(1e-300).ln()
            };
        }
        state.num_rows += rows as u64;
        xty_update(state.gradient.as_mut_slice(), xs, &residuals, width);
        weighted_rank_k_update_lower(&mut state.hessian, xs, &weights, width);
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![self.y_column, self.x_column])
    }

    fn merge(&self, left: IrlsState, right: IrlsState) -> IrlsState {
        if left.num_rows == 0 {
            return right;
        }
        if right.num_rows == 0 {
            return left;
        }
        let mut out = left;
        out.num_rows += right.num_rows;
        out.log_likelihood += right.log_likelihood;
        out.gradient
            .add_assign(&right.gradient)
            .expect("equal widths");
        out.hessian
            .add_assign(&right.hessian)
            .expect("equal widths");
        out
    }

    fn finalize(
        &self,
        mut state: IrlsState,
    ) -> madlib_engine::Result<(DenseMatrix, DenseVector, f64, u64)> {
        if state.num_rows == 0 {
            return Err(madlib_engine::EngineError::aggregate(
                "logistic regression over empty input",
            ));
        }
        state
            .hessian
            .symmetrize_from_lower()
            .map_err(madlib_engine::EngineError::aggregate)?;
        Ok((
            state.hessian,
            state.gradient,
            state.log_likelihood,
            state.num_rows,
        ))
    }
}

/// Binary logistic regression via an IRLS driver function.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    y_column: String,
    x_column: String,
    max_iterations: usize,
    tolerance: f64,
    ridge: f64,
    initial_coefficients: Option<Vec<f64>>,
}

impl LogisticRegression {
    /// Creates the estimator with default settings (at most 50 IRLS
    /// iterations, tolerance 1e-8, tiny ridge jitter for separable data).
    pub fn new(y_column: impl Into<String>, x_column: impl Into<String>) -> Self {
        Self {
            y_column: y_column.into(),
            x_column: x_column.into(),
            max_iterations: 50,
            tolerance: 1e-8,
            ridge: 1e-8,
            initial_coefficients: None,
        }
    }

    /// Warm-starts the IRLS iteration from `coefficients` instead of the
    /// zero vector.  A refresh ([`crate::IncrementalEstimator::refresh`]) is
    /// the fit started this way from the cataloged model's coefficients, so
    /// after a small append it converges in a few cheap Newton steps.
    /// Newton's method on the (strictly convex, ridge-stabilized) IRLS
    /// objective converges to the same optimum from any starting point, so
    /// the warm-started fit agrees with a cold start to within the
    /// convergence tolerance.  The length must match the feature width at
    /// fit time.
    #[must_use]
    pub fn with_initial_coefficients(mut self, coefficients: Vec<f64>) -> Self {
        self.initial_coefficients = Some(coefficients);
        self
    }

    /// Sets the maximum number of IRLS iterations.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the convergence tolerance on relative coefficient movement.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the ridge term added to the Hessian diagonal (stabilizes
    /// separable or collinear data).
    pub fn with_ridge(mut self, ridge: f64) -> Self {
        self.ridge = ridge;
        self
    }

    /// `hessian` with the ridge term added to its diagonal.
    fn ridged(&self, mut hessian: DenseMatrix) -> DenseMatrix {
        for i in 0..hessian.rows() {
            hessian.add_to(i, i, self.ridge);
        }
        hessian
    }
}

/// The paper's Figure 3 loop: one IRLS pass per iteration through the
/// dataset's terminals (honouring its filter and executor), the (small)
/// coefficient vector handed from each pass to the next and tested for
/// convergence, then one more pass at the optimum for the Fisher information
/// (standard errors) and the final log-likelihood.
impl Iterative for LogisticRegression {
    type Model = LogisticRegressionModel;
    type State = Vec<f64>;
    type Context = ();
    type StepOutput = (DenseMatrix, DenseVector, f64, u64);

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Reads the feature width from the first (filter-surviving) row; the
    /// first coefficients are `warm`'s when they have that width, else the
    /// estimator's initial coefficients (an error when they do not have
    /// it), else zeros.
    fn initial(
        &self,
        dataset: &Dataset<'_>,
        warm: Option<&LogisticRegressionModel>,
    ) -> Result<((), Vec<f64>)> {
        let first = dataset
            .first_row()?
            .ok_or_else(|| MethodError::invalid_input("empty input table"))?;
        let width = first
            .get_named(dataset.schema(), &self.x_column)?
            .as_double_array()?
            .len();
        match warm
            .map(|warm| &warm.coef)
            .filter(|coef| coef.len() == width)
            .or(self.initial_coefficients.as_ref())
        {
            None => Ok(((), vec![0.0; width])),
            Some(coefficients) if coefficients.len() == width => Ok(((), coefficients.clone())),
            Some(coefficients) => Err(MethodError::invalid_input(format!(
                "initial coefficient length {} does not match feature width {width}",
                coefficients.len()
            ))),
        }
    }

    fn step<'s>(
        &'s self,
        beta: &'s Vec<f64>,
        _iteration: usize,
    ) -> impl Aggregate<Output = Self::StepOutput> + 's {
        IrlsStep {
            y_column: &self.y_column,
            x_column: &self.x_column,
            beta,
        }
    }

    /// One Newton step: `β + (XᵀDX + ridge·I)⁻¹ Xᵀ(y − p)`.
    fn next(
        &self,
        beta: &Vec<f64>,
        (hessian, gradient, _, _): Self::StepOutput,
    ) -> Result<Vec<f64>> {
        let delta = symmetric_solve(&self.ridged(hessian), &gradient, 1e-12)
            .map_err(madlib_engine::EngineError::aggregate)?;
        Ok(beta
            .iter()
            .zip(delta.as_slice())
            .map(|(b, d)| b + d)
            .collect())
    }

    fn converged(&self, _: &(), previous: &Vec<f64>, next: &Vec<f64>) -> bool {
        l2_relative_convergence(previous, next, self.tolerance)
    }

    fn model(
        &self,
        dataset: &Dataset<'_>,
        _: (),
        outcome: Iterated<Vec<f64>>,
    ) -> Result<LogisticRegressionModel> {
        let (hessian, _gradient, log_likelihood, num_rows) =
            dataset.aggregate(&self.step(&outcome.state, 0))?;
        let (covariance, _condition) =
            symmetric_inverse_with(&self.ridged(hessian), 1e-12, &mut EigenWorkspace::new())?;

        let normal = Normal::standard();
        let coef = outcome.state;
        let width = coef.len();
        let mut std_err = Vec::with_capacity(width);
        let mut z_stats = Vec::with_capacity(width);
        let mut p_values = Vec::with_capacity(width);
        for (i, c) in coef.iter().enumerate() {
            let se = covariance.get(i, i).max(0.0).sqrt();
            std_err.push(se);
            let z = if se > 0.0 { c / se } else { f64::INFINITY };
            z_stats.push(z);
            p_values.push(if z.is_finite() {
                normal.two_sided_p_value(z)
            } else {
                0.0
            });
        }

        Ok(LogisticRegressionModel {
            coef,
            std_err,
            z_stats,
            p_values,
            log_likelihood,
            num_iterations: outcome.iterations,
            converged: outcome.converged,
            num_rows,
        })
    }
}

crate::iterative_estimator!(LogisticRegression);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{labeled_point_schema, logistic_regression_data};
    use crate::test_support::{assert_chunk_path_is_row_fallback, assert_input_columns_suffice};
    use crate::train::Estimator;
    use madlib_engine::expr::Predicate;
    use madlib_engine::{row, Column, ColumnType, Table, Value};
    use proptest::prelude::*;

    fn fit(estimator: &LogisticRegression, table: &Table) -> Result<LogisticRegressionModel> {
        estimator.fit(&Dataset::from_table(table))
    }

    fn fit_on(table: &Table) -> LogisticRegressionModel {
        fit(&LogisticRegression::new("y", "x"), table).unwrap()
    }

    #[test]
    fn irls_step_declares_every_column_it_reads() {
        let beta = [0.25, -0.5];
        assert_input_columns_suffice(&IrlsStep {
            y_column: "y",
            x_column: "x",
            beta: &beta,
        });
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    fn recovers_generator_coefficients() {
        let data = logistic_regression_data(4000, 3, 4, 17).unwrap();
        let model = fit_on(&data.table);
        assert!(model.converged);
        assert!(model.num_iterations <= 50);
        assert_eq!(model.num_rows, 4000);
        for (fitted, truth) in model.coef.iter().zip(&data.true_coefficients) {
            assert!(
                (fitted - truth).abs() < 0.4,
                "fitted {fitted} vs truth {truth}"
            );
        }
        // Log-likelihood of a fitted model must beat the null model.
        let null_ll = 4000.0 * (0.5_f64).ln();
        assert!(model.log_likelihood > null_ll);
    }

    #[test]
    fn partition_invariance() {
        let data = logistic_regression_data(800, 2, 1, 5).unwrap();
        let reference = fit_on(&data.table);
        for segs in [2, 5] {
            let t = data.table.repartition(segs).unwrap();
            let model = fit_on(&t);
            for (a, b) in model.coef.iter().zip(&reference.coef) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn prediction_and_significance() {
        let data = logistic_regression_data(3000, 2, 2, 23).unwrap();
        let model = fit_on(&data.table);
        // Predictions agree with the sign of the linear score under the true
        // model for confident points.
        let strongly_positive: Vec<f64> = data
            .true_coefficients
            .iter()
            .map(|c| c.signum() * 1.0)
            .collect();
        assert!(model.predict_probability(&strongly_positive).unwrap() > 0.5);
        assert!(model.predict(&strongly_positive).unwrap());
        assert!(model.predict_probability(&[0.0]).is_err());
        // Real features should be significant on 3000 rows.
        assert!(model.p_values.iter().all(|&p| p < 0.05));
        assert!(model.std_err.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn rejects_bad_labels_and_empty_input() {
        let mut bad = Table::new(labeled_point_schema(), 2).unwrap();
        bad.insert(row![2.0, vec![1.0]]).unwrap();
        assert!(fit(&LogisticRegression::new("y", "x"), &bad).is_err());

        let empty = Table::new(labeled_point_schema(), 2).unwrap();
        assert!(fit(&LogisticRegression::new("y", "x"), &empty).is_err());
    }

    #[test]
    fn separable_data_is_stabilized_by_ridge() {
        // Perfectly separable single feature.
        let mut t = Table::new(labeled_point_schema(), 2).unwrap();
        for i in 0..40 {
            let x = i as f64 - 20.0;
            let y = if x > 0.0 { 1.0 } else { 0.0 };
            t.insert(row![y, vec![1.0, x]]).unwrap();
        }
        let model = LogisticRegression::new("y", "x")
            .with_ridge(1e-3)
            .with_max_iterations(30)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert!(model.coef[1] > 0.0);
        assert!(model.coef.iter().all(|c| c.is_finite()));
    }

    /// A NaN feature makes every Hessian entry NaN: the first Newton step's
    /// Cholesky refuses the NaN pivot and the eigen fallback fails to
    /// converge, so the fit stops there with the step's typed error — it does
    /// not iterate on NaN coefficients until the final covariance fails.
    #[test]
    fn a_nan_feature_is_a_typed_error() {
        let data = logistic_regression_data(200, 3, 2, 29).unwrap();
        let mut t = Table::new(labeled_point_schema(), 2).unwrap();
        t.insert(row![1.0, vec![0.5, f64::NAN, -0.25]]).unwrap();
        for r in data.table.collect_rows() {
            t.insert(r).unwrap();
        }
        let outcome = fit(&LogisticRegression::new("y", "x"), &t);
        assert!(
            matches!(outcome, Err(MethodError::Engine(_))),
            "{outcome:?}"
        );
    }

    #[test]
    fn builder_options() {
        let lr = LogisticRegression::new("y", "x")
            .with_max_iterations(5)
            .with_tolerance(1e-3)
            .with_ridge(0.1);
        let data = logistic_regression_data(200, 2, 2, 3).unwrap();
        let model = fit(&lr, &data.table).unwrap();
        assert!(model.num_iterations <= 5);
    }

    proptest! {
        /// The IRLS step's chunk kernels are its per-row fallback, state bit
        /// for state bit and error for error, over 1–8-row chunks holding
        /// NULL labels and features, ragged and zero-width features and
        /// labels outside {0, 1}, filtered (compacted) or not.
        #[test]
        fn irls_step_chunk_path_is_its_row_fallback(
            rows in prop::collection::vec((0usize..16, -3.0..3.0f64, [-2.0..2.0f64, -2.0..2.0f64]), 0..60),
            beta in [-1.0..1.0f64, -1.0..1.0f64],
            (segments, chunk_capacity) in (1usize..4, 1usize..9),
        ) {
            let schema = Schema::new(vec![
                Column::new("keep", ColumnType::Double),
                Column::new("y", ColumnType::Double),
                Column::new("x", ColumnType::DoubleArray),
            ]);
            let mut table = Table::new(schema, segments)
                .unwrap()
                .with_chunk_capacity(chunk_capacity)
                .unwrap();
            for (i, &(kind, z, x)) in rows.iter().enumerate() {
                let label = f64::from(z > 0.0);
                let (y, x) = match kind {
                    0 => (Value::Null, Value::DoubleArray(x.to_vec())),
                    1 => (Value::Double(label), Value::Null),
                    2 => (Value::Double(label), Value::DoubleArray(x[..1].to_vec())),
                    3 => (Value::Double(label), Value::DoubleArray(Vec::new())),
                    4 => (Value::Double(0.5), Value::DoubleArray(x.to_vec())),
                    _ => (Value::Double(label), Value::DoubleArray(x.to_vec())),
                };
                let keep = Value::Double(f64::from(i % 3 != 0));
                table.insert(Row::new(vec![keep, y, x])).unwrap();
            }
            let step = IrlsStep { y_column: "y", x_column: "x", beta: &beta };
            let bits = |s: &IrlsState| {
                let words = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                let (hessian, gradient) = (words(s.hessian.as_slice()), words(s.gradient.as_slice()));
                (s.num_rows, s.width, hessian, gradient, s.log_likelihood.to_bits())
            };
            for filter in [None, Some(Predicate::column_gt("keep", 0.5))] {
                assert_chunk_path_is_row_fallback(&step, &table, filter.as_ref(), bits);
            }
        }
    }
}
