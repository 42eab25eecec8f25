//! The convex-objective abstraction.

use madlib_engine::{Result, Row, RowChunk, Schema};

/// A decomposable convex objective `f(w) = Σ_rows f_row(w)`.
///
/// Implementations describe a single training tuple's contribution to the
/// loss and its (sub)gradient; the [`crate::IgdRunner`] supplies the data
/// access, parallelism, iteration and convergence machinery.  This mirrors
/// the paper's observation that "each tuple in the input table encodes a
/// single fᵢ" and that adding a new model then takes "a matter of days" —
/// here, a few dozen lines.
pub trait ConvexObjective: Sync {
    /// Number of parameters in the model vector.
    fn dimension(&self) -> usize;

    /// The columns the per-row functions and
    /// [`ConvexObjective::sgd_epoch_chunk`] read, or `None` (the default):
    /// any column.  The IGD epoch aggregate declares these as its
    /// [`madlib_engine::Aggregate::input_columns`], so the contract is that
    /// method's.
    fn input_columns(&self) -> Option<Vec<&str>> {
        None
    }

    /// Loss contribution of one row at the given model.
    ///
    /// # Errors
    /// Implementations should surface malformed rows as engine errors.
    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64>;

    /// Adds one row's (sub)gradient contribution into `gradient`
    /// (pre-zeroed, length [`ConvexObjective::dimension`]).
    ///
    /// # Errors
    /// Implementations should surface malformed rows as engine errors.
    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()>;

    /// Optional proximal / projection step applied after each model update
    /// (e.g. the soft-thresholding operator for L1 regularization).  The
    /// default is a no-op.
    fn proximal(&self, _model: &mut [f64], _step: f64) {}

    /// Optional regularization term added to the reported objective value
    /// (the data terms come from [`ConvexObjective::row_loss`]).
    fn regularization(&self, _model: &[f64]) -> f64 {
        0.0
    }

    /// Runs the sequential SGD inner loop of one IGD epoch over a
    /// column-major chunk of rows: for each row in order, zero
    /// `scratch_gradient`, accumulate the row's gradient at the current
    /// `model`, take the step `model ← model − step·gradient`, and apply
    /// [`ConvexObjective::proximal`].  Returns the number of rows processed.
    ///
    /// The default delegates to [`sgd_epoch_chunk_by_rows`] (materialized
    /// rows through [`ConvexObjective::accumulate_gradient`]).  Objectives
    /// over dense labeled points override this to read the chunk's contiguous
    /// `(y, x)` buffers directly; overrides must be bit-identical to the
    /// fallback, which the cross-crate property tests enforce.
    ///
    /// # Errors
    /// Propagates malformed-row errors.
    fn sgd_epoch_chunk(
        &self,
        chunk: &RowChunk,
        schema: &Schema,
        model: &mut [f64],
        scratch_gradient: &mut [f64],
        step: f64,
    ) -> Result<u64> {
        sgd_epoch_chunk_by_rows(self, chunk, schema, model, scratch_gradient, step)
    }
}

/// The row-at-a-time fallback behind [`ConvexObjective::sgd_epoch_chunk`]:
/// materializes each row of the chunk and performs exactly the per-row SGD
/// update of the original epoch aggregate.  Public so chunk-aware objectives
/// can reuse it for inputs their vectorized path cannot represent.
///
/// # Errors
/// Propagates malformed-row errors.
pub fn sgd_epoch_chunk_by_rows<O: ConvexObjective + ?Sized>(
    objective: &O,
    chunk: &RowChunk,
    schema: &Schema,
    model: &mut [f64],
    scratch_gradient: &mut [f64],
    step: f64,
) -> Result<u64> {
    let mut values = Vec::with_capacity(chunk.arity());
    for i in 0..chunk.len() {
        chunk.read_row_into(i, &mut values);
        let row = Row::new(std::mem::take(&mut values));
        scratch_gradient.iter_mut().for_each(|g| *g = 0.0);
        objective.accumulate_gradient(&row, schema, model, scratch_gradient)?;
        for (w, g) in model.iter_mut().zip(scratch_gradient.iter()) {
            *w -= step * g;
        }
        objective.proximal(model, step);
        values = row.into_values();
    }
    Ok(chunk.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::row;
    use madlib_engine::{Column, ColumnType, Schema};

    /// Minimal objective used to exercise the trait's default methods.
    struct Quadratic;

    impl ConvexObjective for Quadratic {
        fn dimension(&self) -> usize {
            1
        }
        fn row_loss(&self, _row: &Row, _schema: &Schema, model: &[f64]) -> Result<f64> {
            Ok(model[0] * model[0])
        }
        fn accumulate_gradient(
            &self,
            _row: &Row,
            _schema: &Schema,
            model: &[f64],
            gradient: &mut [f64],
        ) -> Result<()> {
            gradient[0] += 2.0 * model[0];
            Ok(())
        }
    }

    #[test]
    fn default_methods_are_no_ops() {
        let objective = Quadratic;
        let schema = Schema::new(vec![Column::new("x", ColumnType::Double)]);
        let r = row![1.0];
        assert_eq!(objective.dimension(), 1);
        assert_eq!(objective.row_loss(&r, &schema, &[3.0]).unwrap(), 9.0);
        let mut g = vec![0.0];
        objective
            .accumulate_gradient(&r, &schema, &[3.0], &mut g)
            .unwrap();
        assert_eq!(g, vec![6.0]);
        let mut model = vec![1.0];
        objective.proximal(&mut model, 0.1);
        assert_eq!(model, vec![1.0]);
        assert_eq!(objective.regularization(&model), 0.0);
    }
}
