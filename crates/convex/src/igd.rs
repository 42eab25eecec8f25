//! The incremental-gradient-descent (IGD/SGD) driver.
//!
//! One *epoch* of training is a single user-defined aggregate pass over the
//! data, following the parallelized-SGD / model-averaging pattern the paper
//! cites (Zinkevich et al. \[47\]): each segment runs sequential stochastic
//! updates over its local partition starting from the current model (the
//! transition function), the per-segment models are averaged (the merge
//! function), and the averaged model becomes the next epoch's starting point
//! (the final function + driver loop).  Only the model vector ever crosses
//! segment boundaries, so the structure is identical to the paper's Figure 3
//! driver for logistic regression.  [`IgdEstimator`] is the one way in.

use crate::objective::ConvexObjective;
use crate::schedule::StepSchedule;
use madlib_core::train::{l2_relative_convergence, Iterated, Iterative};
use madlib_core::{MethodError, Result};
use madlib_engine::dataset::Dataset;
use madlib_engine::{Aggregate, EngineError, Row, RowChunk, Schema};

/// Configuration for an IGD run.
#[derive(Debug, Clone)]
pub struct IgdConfig {
    /// Maximum number of epochs (full passes over the data).
    pub max_epochs: usize,
    /// Convergence tolerance on relative model movement between epochs.
    pub tolerance: f64,
    /// Step-size schedule, evaluated per epoch.
    pub schedule: StepSchedule,
}

impl Default for IgdConfig {
    fn default() -> Self {
        Self {
            max_epochs: 50,
            tolerance: 1e-6,
            schedule: StepSchedule::default(),
        }
    }
}

/// Result of an IGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct IgdSummary {
    /// The fitted model vector.
    pub model: Vec<f64>,
    /// Epochs executed.
    pub epochs: usize,
    /// Whether the movement-based convergence criterion fired.
    pub converged: bool,
    /// Final value of the objective (data loss + regularization).
    pub objective_value: f64,
    /// Objective value at the initial model, for before/after comparisons.
    pub initial_objective_value: f64,
}

/// Full-objective evaluation (data loss + regularization) over a dataset's
/// (filtered) rows.
///
/// # Errors
/// Propagates row-loss evaluation errors; a dataset that selects no row is
/// [`MethodError::InvalidInput`].
fn objective_value<O: ConvexObjective>(
    dataset: &Dataset<'_>,
    objective: &O,
    model: &[f64],
) -> Result<f64> {
    let losses = dataset.map_rows(|row, schema| objective.row_loss(row, schema, model))?;
    if losses.is_empty() {
        return Err(MethodError::invalid_input("IGD over an empty input"));
    }
    Ok(losses.iter().sum::<f64>() + objective.regularization(model))
}

/// IGD for any [`ConvexObjective`], packaged as an [`Iterative`] estimator:
/// the one way to train a convex-framework objective, through
/// `IgdEstimator::new(objective).fit(&dataset)` or the uniform
/// `Session::train(&estimator, &dataset)` convention — including per-group
/// training via `Session::train_grouped` (the default per-group gather
/// re-runs the full IGD driver per group) and warm-started refreshes via
/// `Session::train_incremental` / `Session::refresh`.
#[derive(Debug, Clone)]
pub struct IgdEstimator<O: ConvexObjective> {
    objective: O,
    config: IgdConfig,
    initial_model: Option<Vec<f64>>,
}

impl<O: ConvexObjective> IgdEstimator<O> {
    /// Wraps `objective` with the default [`IgdConfig`] and a zero initial
    /// model.
    pub fn new(objective: O) -> Self {
        Self {
            objective,
            config: IgdConfig::default(),
            initial_model: None,
        }
    }

    /// Replaces the IGD configuration (epochs, tolerance, schedule).
    #[must_use]
    pub fn with_config(mut self, config: IgdConfig) -> Self {
        self.config = config;
        self
    }

    /// Starts from an explicit initial model instead of zeros (a warm
    /// start from a previous fit).
    #[must_use]
    pub fn with_initial_model(mut self, initial_model: Vec<f64>) -> Self {
        self.initial_model = Some(initial_model);
        self
    }
}

/// Trains the objective over the dataset's (filtered) rows: the model
/// vector is the state, each epoch one aggregate pass started from the
/// previous epoch's model, stopped when the model's relative L2 movement is
/// within the configured tolerance; the objective is evaluated before the
/// first epoch and after the last.
impl<O: ConvexObjective> Iterative for IgdEstimator<O> {
    type Model = IgdSummary;
    type State = Vec<f64>;
    /// The objective at the initial model.
    type Context = f64;
    type StepOutput = Vec<f64>;

    fn max_iterations(&self) -> usize {
        self.config.max_epochs
    }

    /// The initial model is `warm`'s when it has the objective's dimension,
    /// else the estimator's initial model, else zeros.
    ///
    /// # Errors
    /// [`MethodError::InvalidInput`] when the estimator's initial model's
    /// length is not the objective's dimension or the dataset selects no
    /// row.
    fn initial(&self, dataset: &Dataset<'_>, warm: Option<&IgdSummary>) -> Result<(f64, Vec<f64>)> {
        let dimension = self.objective.dimension();
        let model = warm
            .map(|warm| &warm.model)
            .filter(|model| model.len() == dimension)
            .or(self.initial_model.as_ref())
            .map_or_else(|| vec![0.0; dimension], Vec::clone);
        if model.len() != dimension {
            return Err(MethodError::invalid_input(format!(
                "initial model has length {}, objective expects {dimension}",
                model.len()
            )));
        }
        Ok((objective_value(dataset, &self.objective, &model)?, model))
    }

    fn step<'s>(
        &'s self,
        model: &'s Vec<f64>,
        epoch: usize,
    ) -> impl Aggregate<Output = Vec<f64>> + 's {
        IgdEpoch {
            objective: &self.objective,
            start_model: model,
            step: self.config.schedule.step(epoch),
        }
    }

    fn next(&self, _: &Vec<f64>, model: Vec<f64>) -> Result<Vec<f64>> {
        Ok(model)
    }

    fn converged(&self, _: &f64, previous: &Vec<f64>, next: &Vec<f64>) -> bool {
        l2_relative_convergence(previous, next, self.config.tolerance)
    }

    fn model(
        &self,
        dataset: &Dataset<'_>,
        initial_objective_value: f64,
        outcome: Iterated<Vec<f64>>,
    ) -> Result<IgdSummary> {
        let objective_value = objective_value(dataset, &self.objective, &outcome.state)?;
        Ok(IgdSummary {
            model: outcome.state,
            epochs: outcome.iterations,
            converged: outcome.converged,
            objective_value,
            initial_objective_value,
        })
    }
}

madlib_core::iterative_estimator!([O: ConvexObjective] IgdEstimator<O>);

/// One epoch of per-segment sequential SGD with model averaging.
struct IgdEpoch<'a, O: ConvexObjective> {
    objective: &'a O,
    start_model: &'a [f64],
    step: f64,
}

/// Per-segment state: the locally-updated model and how many rows shaped it.
struct IgdEpochState {
    model: Vec<f64>,
    rows: u64,
    scratch_gradient: Vec<f64>,
}

impl<O: ConvexObjective> Aggregate for IgdEpoch<'_, O> {
    type State = IgdEpochState;
    type Output = Vec<f64>;

    fn initial_state(&self) -> IgdEpochState {
        IgdEpochState {
            model: self.start_model.to_vec(),
            rows: 0,
            scratch_gradient: vec![0.0; self.start_model.len()],
        }
    }

    fn transition(
        &self,
        state: &mut IgdEpochState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        state.scratch_gradient.iter_mut().for_each(|g| *g = 0.0);
        self.objective.accumulate_gradient(
            row,
            schema,
            &state.model,
            &mut state.scratch_gradient,
        )?;
        for (w, g) in state.model.iter_mut().zip(&state.scratch_gradient) {
            *w -= self.step * g;
        }
        self.objective.proximal(&mut state.model, self.step);
        state.rows += 1;
        Ok(())
    }

    /// Chunk-at-a-time epoch transition: hands the whole chunk to the
    /// objective's [`ConvexObjective::sgd_epoch_chunk`], which runs the same
    /// sequential per-row SGD updates over the chunk's contiguous column
    /// buffers (or falls back to materialized rows).  Bit-identical to the
    /// per-row path by contract.
    fn transition_chunk(
        &self,
        state: &mut IgdEpochState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        state.rows += self.objective.sgd_epoch_chunk(
            chunk,
            schema,
            &mut state.model,
            &mut state.scratch_gradient,
            self.step,
        )?;
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        self.objective.input_columns()
    }

    fn merge(&self, left: IgdEpochState, right: IgdEpochState) -> IgdEpochState {
        // Model averaging weighted by the number of rows each segment saw.
        if left.rows == 0 {
            return right;
        }
        if right.rows == 0 {
            return left;
        }
        let total = (left.rows + right.rows) as f64;
        let wl = left.rows as f64 / total;
        let wr = right.rows as f64 / total;
        let model = left
            .model
            .iter()
            .zip(&right.model)
            .map(|(a, b)| wl * a + wr * b)
            .collect();
        IgdEpochState {
            model,
            rows: left.rows + right.rows,
            scratch_gradient: left.scratch_gradient,
        }
    }

    fn finalize(&self, state: IgdEpochState) -> madlib_engine::Result<Vec<f64>> {
        if state.rows == 0 {
            return Err(EngineError::aggregate("IGD epoch over empty input"));
        }
        Ok(state.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::LeastSquaresObjective;
    use madlib_core::Estimator;
    use madlib_engine::{row, Column, ColumnType, Executor, Schema, Table};

    /// Least squares over `y` / `x` (two features) under `config`, started
    /// from `initial`.
    fn least_squares(config: IgdConfig, initial: Vec<f64>) -> IgdEstimator<LeastSquaresObjective> {
        IgdEstimator::new(LeastSquaresObjective::new("y", "x", 2))
            .with_config(config)
            .with_initial_model(initial)
    }

    fn regression_table(segments: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        // y = 2*x1 - 1*x2, noiseless.
        for i in 0..300 {
            let x1 = (i % 17) as f64 / 17.0 - 0.5;
            let x2 = (i % 11) as f64 / 11.0 - 0.5;
            t.insert(row![2.0 * x1 - x2, vec![x1, x2]]).unwrap();
        }
        t
    }

    /// An IGD epoch hands its objective only the objective's columns, and
    /// gets the full table's model from a copy that holds nothing else
    /// (`reference::aggregate_on_input_columns`): with and without a
    /// filter, ungrouped and grouped, under both executors.  The table puts
    /// a NULL-bearing text column, a bigint and an array around `y` / `x`.
    #[test]
    fn igd_epoch_declares_every_column_it_reads() {
        use madlib_engine::expr::Predicate;
        use madlib_engine::{reference, GroupKey, Value};
        let schema = Schema::new(vec![
            Column::new("note", ColumnType::Text),
            Column::new("y", ColumnType::Double),
            Column::new("n", ColumnType::Int),
            Column::new("x", ColumnType::DoubleArray),
            Column::new("tags", ColumnType::IntArray),
        ]);
        let mut table = Table::new(schema, 2)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        for i in 0..300_i64 {
            let (x1, x2) = ((i % 17) as f64 / 17.0 - 0.5, (i % 11) as f64 / 11.0 - 0.5);
            let note = [Value::Null, Value::Text("a".into())][(i % 2) as usize].clone();
            let row = Row::new(vec![
                note,
                Value::Double(2.0 * x1 - x2),
                Value::Int(i % 7),
                Value::DoubleArray(vec![x1, x2]),
                Value::IntArray(vec![i]),
            ]);
            table.insert_into_segment((i % 2) as usize, row).unwrap();
        }
        let objective = LeastSquaresObjective::new("y", "x", 2);
        let epoch = IgdEpoch {
            objective: &objective,
            start_model: &[0.1, -0.1],
            step: 0.05,
        };
        for executor in [Executor::new(), Executor::serial()] {
            for filtered in [false, true] {
                for keys in [&[][..], &["note"], &["n", "note"]] {
                    let mut dataset = Dataset::from_table(&table).with_executor(executor);
                    if filtered {
                        dataset = dataset.filter(Predicate::column_lt("n", 4.0));
                    }
                    let full = if keys.is_empty() {
                        let empty = GroupKey::composite(Vec::new());
                        dataset.aggregate(&epoch).map(|out| vec![(empty, out)])
                    } else {
                        dataset = dataset.group_by(keys.iter().copied());
                        dataset.aggregate_per_group(&epoch)
                    };
                    let narrowed = reference::aggregate_on_input_columns(&dataset, &epoch);
                    assert_eq!(format!("{narrowed:?}"), format!("{full:?}"));
                }
            }
        }
    }

    #[test]
    fn igd_fits_least_squares() {
        let table = regression_table(4);
        let config = IgdConfig {
            max_epochs: 200,
            tolerance: 1e-9,
            schedule: StepSchedule::Constant(0.05),
        };
        let summary = least_squares(config, vec![0.0, 0.0])
            .fit(&Dataset::from_table(&table))
            .unwrap();
        assert!(summary.objective_value < summary.initial_objective_value);
        assert!((summary.model[0] - 2.0).abs() < 0.05, "{:?}", summary.model);
        assert!((summary.model[1] + 1.0).abs() < 0.05, "{:?}", summary.model);
        assert!(summary.epochs <= 200);
    }

    #[test]
    fn warm_start_from_previous_model_converges_in_fewer_epochs() {
        // The incremental-refresh pattern for IGD: after an append, restart
        // the epochs from the previous fitted model instead of zeros.  On the
        // grown table the old optimum is already near the new one, so the
        // warm start both begins closer (lower initial objective) and
        // converges in no more epochs than a cold start.
        let mut table = regression_table(4);
        let config = IgdConfig {
            max_epochs: 400,
            tolerance: 1e-10,
            schedule: StepSchedule::Constant(0.05),
        };
        let fit = |table: &Table, initial: Vec<f64>| {
            least_squares(config.clone(), initial)
                .fit(&Dataset::from_table(table))
                .unwrap()
        };
        let cold = fit(&table, vec![0.0, 0.0]);

        // Append 1% new rows from the same generator.
        for i in 300..303 {
            let x1 = (i % 17) as f64 / 17.0 - 0.5;
            let x2 = (i % 11) as f64 / 11.0 - 0.5;
            table.insert(row![2.0 * x1 - x2, vec![x1, x2]]).unwrap();
        }

        let warm = fit(&table, cold.model.clone());
        let cold_again = fit(&table, vec![0.0, 0.0]);

        assert!(warm.initial_objective_value < cold_again.initial_objective_value);
        assert!(warm.epochs <= cold_again.epochs);
        // Both land on the same optimum within the convergence tolerance.
        for (w, c) in warm.model.iter().zip(&cold_again.model) {
            assert!(
                (w - c).abs() < 1e-4,
                "{:?} vs {:?}",
                warm.model,
                cold_again.model
            );
        }
    }

    #[test]
    fn dimension_mismatch_and_empty_table_are_errors() {
        let table = regression_table(2);
        let config = IgdConfig::default();
        assert_eq!(config.max_epochs, 50);
        assert!(matches!(
            least_squares(config.clone(), vec![0.0]).fit(&Dataset::from_table(&table)),
            Err(MethodError::InvalidInput { .. })
        ));

        let empty = Table::new(
            Schema::new(vec![
                Column::new("y", ColumnType::Double),
                Column::new("x", ColumnType::DoubleArray),
            ]),
            2,
        )
        .unwrap();
        // Even a run capped at zero epochs refuses a dataset with no row.
        for max_epochs in [50, 0] {
            let config = IgdConfig {
                max_epochs,
                ..config.clone()
            };
            assert!(matches!(
                least_squares(config, vec![0.0, 0.0]).fit(&Dataset::from_table(&empty)),
                Err(MethodError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn partitioning_changes_but_preserves_quality() {
        // Model averaging is not bitwise partition-invariant, but the fitted
        // quality must be: both runs reach a near-zero objective.
        let table = regression_table(1);
        let config = IgdConfig {
            max_epochs: 150,
            tolerance: 1e-10,
            schedule: StepSchedule::Constant(0.05),
        };
        let one = least_squares(config.clone(), vec![0.0, 0.0])
            .fit(&Dataset::from_table(&table))
            .unwrap();
        let six = least_squares(config, vec![0.0, 0.0])
            .fit(&Dataset::from_table(&table.repartition(6).unwrap()))
            .unwrap();
        assert!(one.objective_value < 0.2);
        assert!(six.objective_value < 0.2);
    }
}
