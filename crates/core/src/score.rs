//! The typed prediction surface: every fitted model scores through one
//! uniform contract, served in-engine.
//!
//! [`Predictor`] unifies every model's inherent `predict` behind one typed
//! prediction [`Value`], and [`FeatureScorer`] adapts any `Predictor` to the
//! engine's one-method [`Scorer`] contract, so [`Dataset::score`] runs
//! prediction as a chunked, work-stealing, filter- and group-aware scan
//! pass:
//!
//! - [`Predictor::predict_value`] is the per-row meaning of a prediction —
//!   a thin typed wrapper over each model's inherent `predict`, and the one
//!   per-row scoring path.
//! - [`Predictor::predict_batch`] scores a flattened uniform-width batch;
//!   the dot-product family (linregr, logregr, SVM) overrides it with
//!   `batch_dot`, k-means with `batch_closest_column` — **bit-identical to
//!   the per-row loop by the kernel contracts**, on every `MADLIB_SIMD`
//!   tier.
//! - [`FeatureScorer::predict_chunk`](Scorer::predict_chunk) batches
//!   uniform-width NULL-free chunks; a NULL-bearing or ragged chunk walks
//!   its feature column row by row, a NULL vector scoring to [`Value::Null`]
//!   (SQL-strict) and any other through `predict_value`, so the batched and
//!   per-row results never fork.
//! - [`Session::register_model`] / [`Session::register_grouped_models`]
//!   deposit fitted models in the [`madlib_engine::Database`] model
//!   catalog, and [`Session::score`] looks them up by name (routing grouped
//!   datasets through the [`GroupedModels`] registry `train_grouped`
//!   returned, as stored) — train once, serve by name, all inside the
//!   engine.

use crate::classify::{DecisionTreeModel, NaiveBayesModel, SvmModel};
use crate::cluster::KMeansModel;
use crate::error::{MethodError, Result};
use crate::regress::logistic::sigmoid;
use crate::regress::{LinearRegressionModel, LogisticRegressionModel};
use crate::train::{GroupedModels, Session};
use madlib_engine::score::Scorer;
use madlib_engine::{ColumnType, Dataset, EngineError, RowChunk, Schema, Value};
use madlib_linalg::array_ops;
use madlib_linalg::kernels::batch_dot;
use std::any::Any;
use std::ops::Deref;

/// A fitted model that scores feature vectors to typed prediction
/// [`Value`]s — the uniform serving contract over every model's inherent
/// `predict`.
pub trait Predictor: Send + Sync {
    /// Column type of the predictions (the schema of a materialized
    /// predictions column).
    fn output_type(&self) -> ColumnType;

    /// Scores one feature vector.
    ///
    /// # Errors
    /// Returns the model's inherent predict error (typically
    /// [`MethodError::InvalidInput`] on a feature-width mismatch).
    fn predict_value(&self, x: &[f64]) -> Result<Value>;

    /// Scores a batch of `rows` feature vectors flattened row-major into
    /// `xs` (each of `width` values), appending one prediction per row to
    /// `out`.
    ///
    /// The default loops [`Predictor::predict_value`]; vectorized overrides
    /// must be **bit-identical** to that loop (same values, same first
    /// error) — they ride the batched kernel tiers, which carry exactly
    /// that contract.
    ///
    /// # Errors
    /// Must fail exactly when (and how) the per-row loop would fail first.
    fn predict_batch(
        &self,
        xs: &[f64],
        width: usize,
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        predict_batch_rows(self, xs, width, rows, out)
    }
}

/// The reference per-row batch loop — public so vectorized
/// [`Predictor::predict_batch`] overrides can fall back to it verbatim for
/// widths their kernel cannot take (reproducing the per-row error exactly).
///
/// # Errors
/// Propagates the first [`Predictor::predict_value`] error in row order.
pub fn predict_batch_rows<P: Predictor + ?Sized>(
    predictor: &P,
    xs: &[f64],
    width: usize,
    rows: usize,
    out: &mut Vec<Value>,
) -> Result<()> {
    out.reserve(rows);
    if width == 0 {
        for _ in 0..rows {
            out.push(predictor.predict_value(&[])?);
        }
        return Ok(());
    }
    for x in xs.chunks_exact(width) {
        out.push(predictor.predict_value(x)?);
    }
    Ok(())
}

/// Rows [`extend_with_dots`] scores per kernel call: a stored chunk is one
/// call.
const DOT_BLOCK: usize = madlib_engine::chunk::CHUNK_CAPACITY;

/// The shared batch body of the dot-product family: `⟨weights, x_r⟩` for each
/// of the `rows` rows of `xs` through `batch_dot` — bit-identical to the
/// scalar `predict` dot product by the kernel contract — one block of rows at
/// a time through a stack scratch, appending `prediction(score)` per row.
fn extend_with_dots(
    xs: &[f64],
    weights: &[f64],
    rows: usize,
    out: &mut Vec<Value>,
    prediction: impl Fn(f64) -> Value,
) {
    let width = weights.len();
    let mut scratch = [0.0; DOT_BLOCK];
    out.reserve(rows);
    for first in (0..rows).step_by(DOT_BLOCK) {
        let scores = &mut scratch[..DOT_BLOCK.min(rows - first)];
        batch_dot(
            &xs[first * width..][..scores.len() * width],
            weights,
            scores,
        );
        out.extend(scores.iter().map(|&score| prediction(score)));
    }
}

/// Maps a method-library predict error onto the engine error type — used
/// identically by the batched and the row-by-row paths of
/// [`FeatureScorer`], so a chunk fails with the error its first failing row
/// would.
fn engine_error(err: MethodError) -> EngineError {
    EngineError::invalid(err)
}

/// Adapts a [`Predictor`] to the engine [`Scorer`] contract: reads the
/// feature vector from the named `double precision[]` column and scores it.
///
/// `D` is any handle that dereferences to a predictor — a borrow
/// (`FeatureScorer::new(&model, "x")`) or a catalog `Arc`
/// (`FeatureScorer::new(db.models().get::<M>("name")?, "x")`).
///
/// Its predictions are the per-row ones, bit for bit:
/// - a NULL feature vector scores to [`Value::Null`] (SQL-strict);
/// - uniform-width NULL-free chunks batch through
///   [`Predictor::predict_batch`]; ragged or NULL-bearing chunks walk the
///   feature column row by row through [`Predictor::predict_value`],
///   reading each vector in place.
#[derive(Debug, Clone)]
pub struct FeatureScorer<D> {
    model: D,
    column: String,
}

impl<D> FeatureScorer<D> {
    /// Wraps `model`, reading features from `features_column`.
    pub fn new(model: D, features_column: impl Into<String>) -> Self {
        Self {
            model,
            column: features_column.into(),
        }
    }

    /// The wrapped model handle.
    pub fn model(&self) -> &D {
        &self.model
    }

    /// The feature column this scorer reads.
    pub fn features_column(&self) -> &str {
        &self.column
    }
}

impl<D> Scorer for FeatureScorer<D>
where
    D: Deref + Sync,
    D::Target: Predictor,
{
    fn output_type(&self) -> ColumnType {
        self.model.output_type()
    }

    fn predict_chunk(
        &self,
        chunk: &RowChunk,
        schema: &Schema,
        out: &mut Vec<Value>,
    ) -> madlib_engine::Result<()> {
        let idx = schema.index_of(&self.column)?;
        let arrays = chunk.double_arrays(idx)?;
        match arrays.uniform_width() {
            Some(width) if !arrays.nulls().any_null() => self
                .model
                .predict_batch(arrays.flat_values(), width, chunk.len(), out)
                .map_err(engine_error),
            _ => {
                out.reserve(chunk.len());
                for i in 0..chunk.len() {
                    let prediction = if arrays.nulls().is_null(i) {
                        Value::Null
                    } else {
                        let x = arrays.row(i);
                        self.model.predict_value(x).map_err(engine_error)?
                    };
                    out.push(prediction);
                }
                Ok(())
            }
        }
    }
}

impl Predictor for LinearRegressionModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Double
    }

    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(Value::Double)
    }

    /// `batch_dot` over the coefficient vector — bit-identical to the
    /// scalar `predict` dot product by the kernel contract.
    fn predict_batch(
        &self,
        xs: &[f64],
        width: usize,
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        if width != self.coef.len() {
            return predict_batch_rows(self, xs, width, rows, out);
        }
        extend_with_dots(xs, &self.coef, rows, out, Value::Double);
        Ok(())
    }
}

impl Predictor for LogisticRegressionModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Bool
    }

    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(Value::Bool)
    }

    /// `batch_dot` then the elementwise sigmoid threshold — the same
    /// `sigmoid(⟨β, x⟩) ≥ 0.5` formulation as the scalar `predict`.
    fn predict_batch(
        &self,
        xs: &[f64],
        width: usize,
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        if width != self.coef.len() {
            return predict_batch_rows(self, xs, width, rows, out);
        }
        extend_with_dots(xs, &self.coef, rows, out, |z| {
            Value::Bool(sigmoid(z) >= 0.5)
        });
        Ok(())
    }
}

impl Predictor for SvmModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Double
    }

    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(Value::Double)
    }

    /// `batch_dot` then the sign threshold — the scalar `predict`'s
    /// `⟨w, x⟩ ≥ 0` formulation.
    fn predict_batch(
        &self,
        xs: &[f64],
        width: usize,
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        if width != self.weights.len() {
            return predict_batch_rows(self, xs, width, rows, out);
        }
        extend_with_dots(xs, &self.weights, rows, out, |d| {
            Value::Double(if d >= 0.0 { 1.0 } else { -1.0 })
        });
        Ok(())
    }
}

impl Predictor for KMeansModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Int
    }

    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(|idx| Value::Int(idx as i64))
    }

    /// `batch_closest_column` over the centroids — semantically identical
    /// to per-row `closest_column` (same comparison order, same strict-<
    /// tie-breaking) by the kernel contract.  Shapes the batched kernel
    /// would reject (no centroids, width mismatch) take the per-row loop so
    /// the errors match the scalar path exactly.
    fn predict_batch(
        &self,
        xs: &[f64],
        width: usize,
        rows: usize,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let batchable = width > 0 && self.centroids.iter().all(|c| c.len() == width);
        if self.centroids.is_empty() || !batchable {
            return predict_batch_rows(self, xs, width, rows, out);
        }
        let mut assignments = vec![0usize; rows];
        array_ops::batch_closest_column(&self.centroids, xs, width, &mut assignments)
            .map_err(MethodError::from)?;
        out.extend(assignments.into_iter().map(|idx| Value::Int(idx as i64)));
        Ok(())
    }
}

impl Predictor for NaiveBayesModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Text
    }

    // Per-class Gaussian log-scores have no batched kernel; the default
    // per-row batch loop applies.
    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(Value::Text)
    }
}

impl Predictor for DecisionTreeModel {
    fn output_type(&self) -> ColumnType {
        ColumnType::Text
    }

    // Tree walks are inherently per-row; the default batch loop applies.
    fn predict_value(&self, x: &[f64]) -> Result<Value> {
        self.predict(x).map(|label| Value::Text(label.to_owned()))
    }
}

impl Session {
    /// Deposits a fitted model in the session database's model catalog
    /// under `name`, replacing any existing entry (the model-refresh
    /// idiom).  Serve it back with [`Session::score`] or
    /// `database().models().get`.
    pub fn register_model<M: Any + Send + Sync>(&self, name: &str, model: M) {
        self.database().models().register(name, model);
    }

    /// Deposits a [`Session::train_grouped`] output in the model catalog as
    /// a servable per-group registry under `name`, replacing any existing
    /// entry.  The registry is stored as it is: its keys were sorted and
    /// checked when it was built.
    pub fn register_grouped_models<M: Any + Send + Sync>(
        &self,
        name: &str,
        models: GroupedModels<M>,
    ) {
        self.database().models().register_grouped(name, models);
    }

    /// Scores `dataset` with the catalog model registered under
    /// `model_name`, reading feature vectors from `features_column` —
    /// the serving half of the MADlib calling convention
    /// (`method_predict(source_table, model, …)`), returning one typed
    /// prediction per filter-surviving row in segment-then-row order.
    ///
    /// An ungrouped dataset looks up a single model; a `group_by` dataset
    /// looks up a grouped registry and routes every row to its group's
    /// model ([`Dataset::score_per_group`]), bit-identical to
    /// filter-then-predict per group.  Specify the model type explicitly:
    /// `session.score::<DecisionTreeModel>(&ds, "churn_tree", "x")`.
    ///
    /// # Errors
    /// Returns the catalog's typed lookup errors
    /// ([`madlib_engine::EngineError::ModelNotFound`], wrong-type
    /// mismatches) and propagates scan/predict errors.
    pub fn score<M>(
        &self,
        dataset: &Dataset,
        model_name: &str,
        features_column: &str,
    ) -> Result<Vec<Value>>
    where
        M: Predictor + Any + Send + Sync,
    {
        let models = self.database().models();
        let bound = dataset.clone().with_default_executor(*self.executor());
        if dataset.is_grouped() {
            let scorers = models
                .get_grouped::<M>(model_name)?
                .map(|model| FeatureScorer::new(model, features_column));
            Ok(bound.score_per_group(model_name, &scorers)?)
        } else {
            let model = models.get::<M>(model_name)?;
            let scorer = FeatureScorer::new(model, features_column);
            Ok(bound.score(&scorer)?)
        }
    }
}
