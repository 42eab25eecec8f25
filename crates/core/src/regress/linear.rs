//! Ordinary least squares linear regression (paper Section 4.1).
//!
//! This is the paper's canonical single-pass aggregation example: the
//! transition state accumulates `XᵀX = Σ xᵢxᵢᵀ`, `Xᵀy = Σ xᵢyᵢ`, `Σy`, `Σy²`
//! and the row count; the merge function adds states element-wise; the final
//! function pseudo-inverts `XᵀX` and produces the coefficient vector together
//! with the diagnostics shown in the paper's psql example: `r2`, `std_err`,
//! `t_stats`, `p_values`, and `condition_no`.
//!
//! The transition function supports all three inner-loop
//! [`KernelGeneration`]s so that the benchmark harness can regenerate the
//! Figure 4 version comparison.

use crate::error::{MethodError, Result};
use crate::train::SinglePass;
use madlib_engine::aggregate::{extract_labeled_point, transition_chunk_by_rows};
use madlib_engine::{Aggregate, FinalizeScratch, Row, RowChunk, Schema, StateReader, StateWriter};
use madlib_linalg::decomposition::{symmetric_inverse_with, EigenWorkspace};
use madlib_linalg::kernels::{
    needs_symmetrize, rank1_update, rank_k_update_lower, xty_update, KernelGeneration,
};
use madlib_linalg::{DenseMatrix, DenseVector};
use madlib_stats::StudentT;
use serde::{Deserialize, Serialize};

/// Transition state of the linear-regression aggregate: the Rust analogue of
/// the paper's `LinRegrTransitionState` (Listing 1).
#[derive(Debug, Clone, PartialEq)]
pub struct LinRegrState {
    /// Number of rows folded in so far.
    pub num_rows: u64,
    /// Width of the independent-variable vector (0 until the first row).
    pub width_of_x: usize,
    /// Σ y.
    pub y_sum: f64,
    /// Σ y².
    pub y_square_sum: f64,
    /// Σ xᵢ yᵢ.
    pub x_transp_y: DenseVector,
    /// Σ xᵢ xᵢᵀ (lower triangle only when the v0.3 kernel is in use).
    pub x_transp_x: DenseMatrix,
}

impl LinRegrState {
    fn empty() -> Self {
        Self {
            num_rows: 0,
            width_of_x: 0,
            y_sum: 0.0,
            y_square_sum: 0.0,
            x_transp_y: DenseVector::zeros(0),
            x_transp_x: DenseMatrix::zeros(0, 0),
        }
    }

    fn initialize(&mut self, width: usize) {
        self.width_of_x = width;
        self.x_transp_y = DenseVector::zeros(width);
        self.x_transp_x = DenseMatrix::zeros(width, width);
    }
}

/// The fitted model, mirroring the composite record returned by MADlib's
/// `linregr` aggregate in the paper's Section 4.1 example output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegressionModel {
    /// Fitted coefficients b̂.
    pub coef: Vec<f64>,
    /// Coefficient of determination R².
    pub r2: f64,
    /// Standard error of each coefficient.
    pub std_err: Vec<f64>,
    /// t statistic of each coefficient.
    pub t_stats: Vec<f64>,
    /// Two-sided p-value of each coefficient (Student-t with n − k df).
    pub p_values: Vec<f64>,
    /// Condition number of XᵀX.
    pub condition_no: f64,
    /// Number of observations used in the fit.
    pub num_rows: u64,
}

impl LinearRegressionModel {
    /// Predicts the response for a feature vector.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] when the feature length differs
    /// from the coefficient length.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.coef.len() {
            return Err(MethodError::invalid_input(format!(
                "feature length {} does not match coefficient length {}",
                x.len(),
                self.coef.len()
            )));
        }
        Ok(self.coef.iter().zip(x).map(|(c, v)| c * v).sum())
    }
}

/// Ordinary-least-squares linear regression as a user-defined aggregate.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    y_column: String,
    x_column: String,
    generation: KernelGeneration,
}

impl LinearRegression {
    /// Creates the aggregate reading `y_column` (double) and `x_column`
    /// (double array) using the default (v0.3) kernel.
    pub fn new(y_column: impl Into<String>, x_column: impl Into<String>) -> Self {
        Self {
            y_column: y_column.into(),
            x_column: x_column.into(),
            generation: KernelGeneration::default(),
        }
    }

    /// Selects the inner-loop kernel generation (used by the version-
    /// comparison benchmark, Figure 4).
    pub fn with_kernel(mut self, generation: KernelGeneration) -> Self {
        self.generation = generation;
        self
    }

    /// The kernel generation in use.
    pub fn kernel(&self) -> KernelGeneration {
        self.generation
    }
}

/// The paper's canonical single-pass aggregation: the estimator is its own
/// aggregate.  Grouped training is one segment-parallel grouped scan
/// (Section 4.2's `grouping_cols`); the incremental view keeps the
/// `XᵀX`/`Xᵀy` states, which persist with a checkpoint.
impl SinglePass for LinearRegression {
    type Aggregate = Self;

    fn aggregate(&self, _: &Schema) -> Self {
        self.clone()
    }
}

impl Aggregate for LinearRegression {
    type State = LinRegrState;
    type Output = LinearRegressionModel;

    fn initial_state(&self) -> LinRegrState {
        LinRegrState::empty()
    }

    fn transition(
        &self,
        state: &mut LinRegrState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let (y, x) = extract_labeled_point(row, schema, &self.y_column, &self.x_column)?;
        if state.num_rows == 0 {
            // "The first row determines the number of independent variables"
            // (paper Listing 1).
            state.initialize(x.len());
        } else if x.len() != state.width_of_x {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "inconsistent feature width: expected {}, found {}",
                state.width_of_x,
                x.len()
            )));
        }
        if !y.is_finite() || x.iter().any(|v| !v.is_finite()) {
            return Err(madlib_engine::EngineError::aggregate(
                "non-finite value in regression input",
            ));
        }
        state.num_rows += 1;
        state.y_sum += y;
        state.y_square_sum += y * y;
        for (acc, xi) in state.x_transp_y.as_mut_slice().iter_mut().zip(x) {
            *acc += xi * y;
        }
        rank1_update(self.generation, &mut state.x_transp_x, x);
        Ok(())
    }

    /// Chunk-at-a-time transition: the whole chunk's feature vectors arrive
    /// as one contiguous row-major block, so the `XᵀX` accumulation runs
    /// through the tiled rank-k kernel (touching the accumulator once per
    /// row-block instead of once per row) and `Xᵀy` / `Σy` / `Σy²` become
    /// straight slice loops.  Bit-identical to the per-row path by kernel
    /// contract.  Inputs the vectorized path cannot represent (NULLs,
    /// non-double columns, ragged widths) and the legacy kernel generations
    /// fall back to per-row transitions, which also reproduces the per-row
    /// error behaviour exactly.
    fn transition_chunk(
        &self,
        state: &mut LinRegrState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        if self.generation != KernelGeneration::V03 || chunk.is_empty() {
            return transition_chunk_by_rows(self, state, chunk, schema);
        }
        let y_idx = schema.index_of(&self.y_column)?;
        let x_idx = schema.index_of(&self.x_column)?;
        let (y, x) = match (chunk.doubles(y_idx), chunk.double_arrays(x_idx)) {
            (Ok(y), Ok(x)) if !y.nulls.any_null() && !x.nulls().any_null() => (y, x),
            _ => return transition_chunk_by_rows(self, state, chunk, schema),
        };
        let Some(width) = x.uniform_width() else {
            return transition_chunk_by_rows(self, state, chunk, schema);
        };
        if state.num_rows == 0 {
            state.initialize(width);
        } else if width != state.width_of_x {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "inconsistent feature width: expected {}, found {}",
                state.width_of_x, width
            )));
        }
        let xs = x.flat_values();
        if y.values.iter().any(|v| !v.is_finite()) || xs.iter().any(|v| !v.is_finite()) {
            return Err(madlib_engine::EngineError::aggregate(
                "non-finite value in regression input",
            ));
        }
        state.num_rows += chunk.len() as u64;
        for yv in y.values {
            state.y_sum += yv;
            state.y_square_sum += yv * yv;
        }
        xty_update(state.x_transp_y.as_mut_slice(), xs, y.values, width);
        rank_k_update_lower(&mut state.x_transp_x, xs, width);
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.y_column, &self.x_column])
    }

    fn merge(&self, left: LinRegrState, right: LinRegrState) -> LinRegrState {
        if left.num_rows == 0 {
            return right;
        }
        if right.num_rows == 0 {
            return left;
        }
        let mut out = left;
        out.num_rows += right.num_rows;
        out.y_sum += right.y_sum;
        out.y_square_sum += right.y_square_sum;
        out.x_transp_y
            .add_assign(&right.x_transp_y)
            .expect("merged states have equal width");
        out.x_transp_x
            .add_assign(&right.x_transp_x)
            .expect("merged states have equal width");
        out
    }

    fn finalize(&self, state: LinRegrState) -> madlib_engine::Result<LinearRegressionModel> {
        self.finalize_with(state, &mut FinalizeScratch::none())
    }

    /// Workspace-reusing finalize: the eigendecomposition of `XᵀX` scratch
    /// buffers live in the per-worker [`FinalizeScratch`], so a grouped scan
    /// finalizing thousands of groups allocates the O(k²) working set once
    /// per worker instead of once per group.  The workspace never carries
    /// state between groups, so results are bit-identical to
    /// [`Aggregate::finalize`].
    fn finalize_with(
        &self,
        mut state: LinRegrState,
        scratch: &mut FinalizeScratch,
    ) -> madlib_engine::Result<LinearRegressionModel> {
        if state.num_rows == 0 {
            return Err(madlib_engine::EngineError::aggregate(
                "linear regression over empty input",
            ));
        }
        if needs_symmetrize(self.generation) {
            state
                .x_transp_x
                .symmetrize_from_lower()
                .map_err(madlib_engine::EngineError::aggregate)?;
        }
        let workspace = scratch.get_or_insert_with(EigenWorkspace::new);
        finalize_state_with(&state, workspace).map_err(madlib_engine::EngineError::aggregate)
    }

    /// The columns and the kernel generation: the v0.3 kernel fills only
    /// the lower triangle of `XᵀX`, so states of different generations do
    /// not mix.
    fn state_fingerprint(&self) -> Option<Vec<u8>> {
        let mut out = StateWriter::new();
        out.put_str("linregr");
        out.put_str(&self.y_column);
        out.put_str(&self.x_column);
        out.put_u64(self.generation as u64);
        Some(out.into_bytes())
    }

    /// Listing 1's transition state as it is: the counts, the two sums,
    /// `Xᵀy` and `XᵀX` (row-major), every `f64` as its bits.
    fn encode_state(&self, state: &LinRegrState, out: &mut StateWriter) {
        out.put_u64(state.num_rows);
        out.put_u64(state.width_of_x as u64);
        out.put_f64(state.y_sum);
        out.put_f64(state.y_square_sum);
        out.put_f64s(state.x_transp_y.as_slice());
        out.put_f64s(state.x_transp_x.as_slice());
    }

    fn decode_state(&self, input: &mut StateReader<'_>) -> madlib_engine::Result<LinRegrState> {
        let (num_rows, width) = (input.u64()?, input.u64()?);
        let (y_sum, y_square_sum) = (input.f64()?, input.f64()?);
        let (xty, xtx) = (input.f64s()?, input.f64s()?);
        let width_of_x = usize::try_from(width)
            .ok()
            .filter(|&w| xty.len() == w && w.checked_mul(w) == Some(xtx.len()))
            .ok_or_else(|| {
                madlib_engine::EngineError::aggregate("linregr state: shape mismatch")
            })?;
        Ok(LinRegrState {
            num_rows,
            width_of_x,
            y_sum,
            y_square_sum,
            x_transp_y: DenseVector::from_vec(xty),
            x_transp_x: DenseMatrix::from_row_major(width_of_x, width_of_x, xtx)
                .map_err(madlib_engine::EngineError::aggregate)?,
        })
    }
}

/// The final-function computation (paper Listing 2) with a caller-provided
/// eigendecomposition workspace.
fn finalize_state_with(
    state: &LinRegrState,
    workspace: &mut EigenWorkspace,
) -> Result<LinearRegressionModel> {
    let k = state.width_of_x;
    let n = state.num_rows as f64;
    let (inverse_of_x_transp_x, condition_no) =
        symmetric_inverse_with(&state.x_transp_x, 1e-10, workspace)?;
    let coef_vec = inverse_of_x_transp_x.matvec(&state.x_transp_y)?;
    let coef: Vec<f64> = coef_vec.as_slice().to_vec();

    // Residual sum of squares via the accumulated sufficient statistics:
    // RSS = Σy² − 2 b̂ᵀ(Xᵀy) + b̂ᵀ(XᵀX)b̂.
    let xtx_b = state.x_transp_x.matvec(&coef_vec)?;
    let bt_xtx_b = coef_vec.dot(&xtx_b)?;
    let bt_xty = coef_vec.dot(&state.x_transp_y)?;
    let rss = (state.y_square_sum - 2.0 * bt_xty + bt_xtx_b).max(0.0);
    // Total sum of squares about the mean.
    let tss = (state.y_square_sum - state.y_sum * state.y_sum / n).max(0.0);
    let r2 = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };

    let df = n - k as f64;
    let sigma2 = if df > 0.0 { rss / df } else { f64::NAN };
    let mut std_err = Vec::with_capacity(k);
    let mut t_stats = Vec::with_capacity(k);
    let mut p_values = Vec::with_capacity(k);
    let t_dist = (df > 0.0).then(|| StudentT::new(df));
    #[allow(clippy::needless_range_loop)] // i indexes the matrix diagonal and coef together
    for i in 0..k {
        let se = (sigma2 * inverse_of_x_transp_x.get(i, i)).max(0.0).sqrt();
        std_err.push(se);
        let t = if se > 0.0 {
            coef[i] / se
        } else {
            f64::INFINITY
        };
        t_stats.push(t);
        let p = match &t_dist {
            Some(dist) if t.is_finite() => dist.two_sided_p_value(t),
            _ => 0.0,
        };
        p_values.push(p);
    }

    Ok(LinearRegressionModel {
        coef,
        r2,
        std_err,
        t_stats,
        p_values,
        condition_no,
        num_rows: state.num_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{labeled_point_schema, linear_regression_data};
    use crate::train::Estimator;
    use madlib_engine::{row, Dataset, Table, Value};

    /// Uniform-signature fit over a borrowed table (tests only need the
    /// default executor; the session's database is unused by single-pass
    /// aggregates).
    fn fit(estimator: &LinearRegression, table: &Table) -> Result<LinearRegressionModel> {
        estimator.fit(&Dataset::from_table(table))
    }

    /// Builds the tiny dataset whose fit is shown in the paper's psql
    /// example: y ≈ 1.73 + 2.24·x  (we use our own ground truth instead).
    fn small_table(segments: usize) -> Table {
        let mut t = Table::new(labeled_point_schema(), segments).unwrap();
        // y = 3 + 2*x exactly (intercept via constant first feature).
        for i in 0..20 {
            let x = i as f64 * 0.5;
            t.insert(row![3.0 + 2.0 * x, vec![1.0, x]]).unwrap();
        }
        t
    }

    #[test]
    fn exact_fit_on_noiseless_data() {
        let table = small_table(4);
        let model = fit(&LinearRegression::new("y", "x"), &table).unwrap();
        assert!((model.coef[0] - 3.0).abs() < 1e-8);
        assert!((model.coef[1] - 2.0).abs() < 1e-8);
        assert!((model.r2 - 1.0).abs() < 1e-9);
        assert_eq!(model.num_rows, 20);
        assert!(model.condition_no.is_finite());
        // Perfect fit: residual variance ~0, p-values ~0.
        assert!(model.p_values.iter().all(|&p| p < 1e-6));
        assert!((model.predict(&[1.0, 4.0]).unwrap() - 11.0).abs() < 1e-6);
        assert!(model.predict(&[1.0]).is_err());
    }

    #[test]
    fn recovers_generator_coefficients() {
        let data = linear_regression_data(2000, 6, 0.05, 4, 99).unwrap();
        let model = fit(&LinearRegression::new("y", "x"), &data.table).unwrap();
        for (fitted, truth) in model.coef.iter().zip(&data.true_coefficients) {
            assert!(
                (fitted - truth).abs() < 0.05,
                "fitted {fitted} vs truth {truth}"
            );
        }
        assert!(model.r2 > 0.95);
    }

    #[test]
    fn partition_invariance() {
        let data = linear_regression_data(500, 4, 0.1, 1, 7).unwrap();
        let reference = fit(&LinearRegression::new("y", "x"), &data.table).unwrap();
        for segs in [2, 3, 8] {
            let t = data.table.repartition(segs).unwrap();
            let model = fit(&LinearRegression::new("y", "x"), &t).unwrap();
            for (a, b) in model.coef.iter().zip(&reference.coef) {
                assert!((a - b).abs() < 1e-9);
            }
            assert!((model.r2 - reference.r2).abs() < 1e-9);
        }
    }

    #[test]
    fn all_kernel_generations_agree() {
        let data = linear_regression_data(300, 5, 0.2, 3, 21).unwrap();
        let reference = fit(
            &LinearRegression::new("y", "x").with_kernel(KernelGeneration::V03),
            &data.table,
        )
        .unwrap();
        for gen in [KernelGeneration::V01Alpha, KernelGeneration::V021Beta] {
            let model = fit(
                &LinearRegression::new("y", "x").with_kernel(gen),
                &data.table,
            )
            .unwrap();
            assert_eq!(model.num_rows, reference.num_rows);
            for (a, b) in model.coef.iter().zip(&reference.coef) {
                assert!((a - b).abs() < 1e-8, "kernel {gen:?} disagrees");
            }
        }
        assert_eq!(
            LinearRegression::new("y", "x")
                .with_kernel(KernelGeneration::V01Alpha)
                .kernel(),
            KernelGeneration::V01Alpha
        );
    }

    #[test]
    fn statistical_outputs_are_sensible() {
        // Noisy data: p-value of a junk feature should be large, of a real
        // feature small.
        let mut t = Table::new(labeled_point_schema(), 2).unwrap();
        let mut rng_state = 12345u64;
        let mut next = || {
            // Tiny xorshift for deterministic pseudo-noise without rand here.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..400 {
            let x1 = (i as f64 / 400.0) - 0.5;
            let junk = next();
            let y = 4.0 * x1 + 0.3 * next();
            t.insert(row![y, vec![1.0, x1, junk]]).unwrap();
        }
        let model = fit(&LinearRegression::new("y", "x"), &t).unwrap();
        assert!(
            model.p_values[1] < 1e-6,
            "real feature should be significant"
        );
        assert!(
            model.p_values[2] > 0.01,
            "junk feature should not be strongly significant"
        );
        assert!(model.std_err.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn error_cases() {
        let empty = Table::new(labeled_point_schema(), 2).unwrap();
        assert!(fit(&LinearRegression::new("y", "x"), &empty).is_err());

        // Inconsistent widths.
        let mut bad = Table::new(labeled_point_schema(), 1).unwrap();
        bad.insert(row![1.0, vec![1.0, 2.0]]).unwrap();
        bad.insert(row![1.0, vec![1.0]]).unwrap();
        assert!(fit(&LinearRegression::new("y", "x"), &bad).is_err());

        // Non-finite input.
        let mut nan = Table::new(labeled_point_schema(), 1).unwrap();
        nan.insert(Row::new(vec![
            Value::Double(f64::NAN),
            Value::DoubleArray(vec![1.0]),
        ]))
        .unwrap();
        assert!(fit(&LinearRegression::new("y", "x"), &nan).is_err());

        // Missing column.
        let data = small_table(1);
        assert!(fit(&LinearRegression::new("nope", "x"), &data).is_err());
    }

    #[test]
    fn rank_deficient_input_uses_pseudo_inverse() {
        // Duplicate column: XᵀX is singular; the pseudo-inverse path should
        // still produce a finite fit (as the paper notes, full rank is not a
        // requirement for MADlib).
        let mut t = Table::new(labeled_point_schema(), 2).unwrap();
        for i in 0..50 {
            let x = i as f64 * 0.1;
            t.insert(row![2.0 * x, vec![x, x]]).unwrap();
        }
        let model = fit(&LinearRegression::new("y", "x"), &t).unwrap();
        assert_eq!(model.condition_no, f64::INFINITY);
        // Predictions are still exact even though individual coefficients are
        // not identifiable: c0 + c1 must equal 2.
        assert!((model.coef[0] + model.coef[1] - 2.0).abs() < 1e-6);
        assert!((model.r2 - 1.0).abs() < 1e-9);
    }

    /// The persisted state is the state, bit for bit, and a cut anywhere in
    /// its bytes is a typed error; the fingerprint tells kernels apart.
    #[test]
    fn state_codec_round_trips_bit_for_bit() {
        let data = linear_regression_data(50, 4, 0.1, 1, 5).unwrap();
        let estimator = LinearRegression::new("y", "x");
        let mut state = estimator.initial_state();
        for row in data.table.iter() {
            estimator
                .transition(&mut state, &row, data.table.schema())
                .unwrap();
        }
        let mut out = StateWriter::new();
        estimator.encode_state(&state, &mut out);
        let bytes = out.into_bytes();
        let decoded = estimator
            .decode_state(&mut StateReader::new(&bytes))
            .unwrap();
        let mut again = StateWriter::new();
        estimator.encode_state(&decoded, &mut again);
        assert_eq!(again.into_bytes(), bytes);
        for cut in 0..bytes.len() {
            assert!(estimator
                .decode_state(&mut StateReader::new(&bytes[..cut]))
                .is_err());
        }
        let legacy = estimator.clone().with_kernel(KernelGeneration::V01Alpha);
        assert_ne!(legacy.state_fingerprint(), estimator.state_fingerprint());
    }
}
