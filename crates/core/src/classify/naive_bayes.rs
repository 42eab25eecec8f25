//! Gaussian naive Bayes classification.
//!
//! Table 1 of the paper lists Naive Bayes among the supervised methods.  The
//! MADlib implementation computes per-class feature statistics with grouped
//! SQL aggregation; here the same structure appears as a single parallel
//! aggregate whose state is a per-class set of streaming summaries (count,
//! mean, variance per feature), merged across segments with the same
//! Chan/Welford update the `madlib-stats` summary uses.

use crate::error::{MethodError, Result};
use crate::train::{
    fit_grouped_single_pass, refresh_single_pass, train_incremental_single_pass, Estimator,
    GroupedModels, IncrementalEstimator, Session,
};
use madlib_engine::aggregate::transition_chunk_by_rows;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use madlib_engine::{Aggregate, Row, RowChunk, Schema, StateReader, StateWriter};
use madlib_stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-class training statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Number of training rows with this label.
    pub count: u64,
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature variances (with a small floor to avoid zero-variance
    /// degeneracy).
    pub variances: Vec<f64>,
}

/// A fitted Gaussian naive Bayes model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayesModel {
    /// Per-class statistics keyed by label.
    pub classes: BTreeMap<String, ClassStats>,
    /// Total number of training rows.
    pub total_rows: u64,
    /// Number of features.
    pub num_features: usize,
}

impl NaiveBayesModel {
    /// Log joint score `log P(class) + Σ log N(x_i | μ, σ²)` for each class,
    /// sorted descending by score.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on feature-length mismatch.
    pub fn log_scores(&self, x: &[f64]) -> Result<Vec<(String, f64)>> {
        if x.len() != self.num_features {
            return Err(MethodError::invalid_input(format!(
                "feature length {} does not match model width {}",
                x.len(),
                self.num_features
            )));
        }
        let mut scores = Vec::with_capacity(self.classes.len());
        for (label, stats) in &self.classes {
            let prior = (stats.count as f64 / self.total_rows as f64).ln();
            let mut log_likelihood = 0.0;
            for ((xi, mean), var) in x.iter().zip(&stats.means).zip(&stats.variances) {
                let var = var.max(1e-9);
                log_likelihood += -0.5 * ((xi - mean) * (xi - mean) / var)
                    - 0.5 * (2.0 * std::f64::consts::PI * var).ln();
            }
            scores.push((label.clone(), prior + log_likelihood));
        }
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(scores)
    }

    /// Most likely class label.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on feature-length mismatch or an
    /// untrained (empty) model.
    pub fn predict(&self, x: &[f64]) -> Result<String> {
        self.log_scores(x)?
            .into_iter()
            .next()
            .map(|(label, _)| label)
            .ok_or_else(|| MethodError::invalid_input("model has no classes"))
    }
}

/// Gaussian naive Bayes as a user-defined aggregate.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    label_column: String,
    features_column: String,
}

/// Transition state: per-class, per-feature streaming summaries.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayesState {
    classes: BTreeMap<String, Vec<Summary>>,
    num_features: usize,
}

impl NaiveBayes {
    /// Creates the aggregate reading `label_column` (text) and
    /// `features_column` (double array).
    pub fn new(label_column: impl Into<String>, features_column: impl Into<String>) -> Self {
        Self {
            label_column: label_column.into(),
            features_column: features_column.into(),
        }
    }
}

impl Estimator for NaiveBayes {
    type Model = NaiveBayesModel;

    /// Fits the model in one pass over the dataset's (filtered) rows.
    fn fit(&self, dataset: &Dataset<'_>, _session: &Session) -> Result<NaiveBayesModel> {
        dataset
            .executor()
            .validate_input(dataset.table(), true)
            .map_err(MethodError::from)?;
        dataset.aggregate(self).map_err(MethodError::from)
    }

    /// Single-pass grouped training: one grouped scan trains every group's
    /// per-class summaries at once.
    fn fit_grouped(
        &self,
        dataset: &Dataset<'_>,
        _session: &Session,
    ) -> Result<GroupedModels<NaiveBayesModel>> {
        fit_grouped_single_pass(self, dataset)
    }
}

impl IncrementalEstimator for NaiveBayes {
    /// Registers a materialized view of the per-class count/sum/sum-of-squares
    /// states; appends refresh the model at O(appended) cost.  The states
    /// persist with a checkpoint, so on a recovered database the view adopts
    /// them and absorbs only the rows replayed since.
    fn train_incremental(
        &self,
        session: &Session,
        table: &str,
        name: &str,
    ) -> Result<NaiveBayesModel> {
        train_incremental_single_pass(self, session, table, name)
    }

    /// Absorbs only appended rows and re-finalizes — bit-identical to a full
    /// retrain (the aggregate is algebraic).
    fn refresh(&self, session: &Session, table: &str, name: &str) -> Result<NaiveBayesModel> {
        refresh_single_pass(self, session, table, name)
    }
}

impl Aggregate for NaiveBayes {
    type State = NaiveBayesState;
    type Output = NaiveBayesModel;

    fn initial_state(&self) -> NaiveBayesState {
        NaiveBayesState::default()
    }

    fn transition(
        &self,
        state: &mut NaiveBayesState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let label = row
            .get_named(schema, &self.label_column)?
            .as_text()?
            .to_owned();
        let features = row
            .get_named(schema, &self.features_column)?
            .as_double_array()?;
        if state.num_features == 0 {
            state.num_features = features.len();
        } else if features.len() != state.num_features {
            return Err(madlib_engine::EngineError::aggregate(format!(
                "inconsistent feature width: expected {}, found {}",
                state.num_features,
                features.len()
            )));
        }
        let summaries = state
            .classes
            .entry(label)
            .or_insert_with(|| vec![Summary::new(); features.len()]);
        for (summary, value) in summaries.iter_mut().zip(features) {
            summary.update(*value);
        }
        Ok(())
    }

    /// Chunked transition: streams the contiguous label buffer and the
    /// flattened feature buffer instead of materializing one [`Row`] (two
    /// heap allocations) per training point.  Per-class summaries see their
    /// rows in exactly the per-row order, so states are bit-identical to the
    /// fallback.
    fn transition_chunk(
        &self,
        state: &mut NaiveBayesState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let label_idx = schema.index_of(&self.label_column)?;
        let features_idx = schema.index_of(&self.features_column)?;
        let (labels, label_nulls) = match chunk.column(label_idx) {
            ColumnChunk::Text { values, nulls } => (values, nulls),
            _ => return transition_chunk_by_rows(self, state, chunk, schema),
        };
        if !matches!(chunk.column(features_idx), ColumnChunk::DoubleArray { .. }) {
            return transition_chunk_by_rows(self, state, chunk, schema);
        }
        let features = chunk.double_arrays(features_idx)?;
        for (i, label) in labels.iter().enumerate() {
            // NULLs raise the same type errors the per-row accessors raise.
            if label_nulls.is_null(i) {
                return Err(madlib_engine::EngineError::TypeMismatch {
                    expected: "text",
                    found: "null".to_owned(),
                });
            }
            if features.nulls().is_null(i) {
                return Err(madlib_engine::EngineError::TypeMismatch {
                    expected: "double precision[]",
                    found: "null".to_owned(),
                });
            }
            let row_features = features.row(i);
            if state.num_features == 0 {
                state.num_features = row_features.len();
            } else if row_features.len() != state.num_features {
                return Err(madlib_engine::EngineError::aggregate(format!(
                    "inconsistent feature width: expected {}, found {}",
                    state.num_features,
                    row_features.len()
                )));
            }
            if !state.classes.contains_key(label) {
                state
                    .classes
                    .insert(label.clone(), vec![Summary::new(); row_features.len()]);
            }
            let summaries = state
                .classes
                .get_mut(label)
                .expect("class entry just ensured");
            for (summary, value) in summaries.iter_mut().zip(row_features) {
                summary.update(*value);
            }
        }
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.label_column, &self.features_column])
    }

    fn merge(&self, left: NaiveBayesState, right: NaiveBayesState) -> NaiveBayesState {
        if left.classes.is_empty() {
            return right;
        }
        let mut out = left;
        if out.num_features == 0 {
            out.num_features = right.num_features;
        }
        for (label, summaries) in right.classes {
            match out.classes.get_mut(&label) {
                None => {
                    out.classes.insert(label, summaries);
                }
                Some(existing) => {
                    for (a, b) in existing.iter_mut().zip(&summaries) {
                        a.merge(b);
                    }
                }
            }
        }
        out
    }

    fn finalize(&self, state: NaiveBayesState) -> madlib_engine::Result<NaiveBayesModel> {
        if state.classes.is_empty() {
            return Err(madlib_engine::EngineError::aggregate(
                "naive Bayes over empty input",
            ));
        }
        let mut classes = BTreeMap::new();
        let mut total_rows = 0u64;
        for (label, summaries) in state.classes {
            let count = summaries.first().map(|s| s.count()).unwrap_or(0);
            total_rows += count;
            let means = summaries.iter().map(|s| s.mean().unwrap_or(0.0)).collect();
            let variances = summaries
                .iter()
                .map(|s| s.variance_population().unwrap_or(0.0).max(1e-9))
                .collect();
            classes.insert(
                label,
                ClassStats {
                    count,
                    means,
                    variances,
                },
            );
        }
        Ok(NaiveBayesModel {
            classes,
            total_rows,
            num_features: state.num_features,
        })
    }

    fn state_fingerprint(&self) -> Option<Vec<u8>> {
        let mut out = StateWriter::new();
        out.put_str("naive_bayes");
        out.put_str(&self.label_column);
        out.put_str(&self.features_column);
        Some(out.into_bytes())
    }

    /// The feature count, then per class in label order its label and its
    /// per-feature summaries' accumulators, every `f64` as its bits.
    fn encode_state(&self, state: &NaiveBayesState, out: &mut StateWriter) {
        out.put_u64(state.num_features as u64);
        out.put_count(state.classes.len());
        for (label, summaries) in &state.classes {
            out.put_str(label);
            out.put_count(summaries.len());
            for summary in summaries {
                let (count, values, null_count) = summary.to_parts();
                out.put_u64(count);
                values.into_iter().for_each(|v| out.put_f64(v));
                out.put_u64(null_count);
            }
        }
    }

    fn decode_state(&self, input: &mut StateReader<'_>) -> madlib_engine::Result<NaiveBayesState> {
        let num_features = usize::try_from(input.u64()?)
            .map_err(|_| madlib_engine::EngineError::aggregate("naive Bayes state: width"))?;
        let mut classes = BTreeMap::new();
        // A class is at least its label's and its summaries' counts; a
        // summary six eight-byte words.
        for _ in 0..input.count(8)? {
            let label = input.str()?;
            let summaries = (0..input.count(48)?)
                .map(|_| {
                    let count = input.u64()?;
                    let values = [input.f64()?, input.f64()?, input.f64()?, input.f64()?];
                    Ok(Summary::from_parts((count, values, input.u64()?)))
                })
                .collect::<madlib_engine::Result<_>>()?;
            classes.insert(label, summaries);
        }
        Ok(NaiveBayesState {
            classes,
            num_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::{reference, row, Column, ColumnType, Schema, Table};

    fn session() -> Session {
        Session::in_memory(1).unwrap()
    }

    fn labeled_schema() -> Schema {
        Schema::new(vec![
            Column::new("label", ColumnType::Text),
            Column::new("features", ColumnType::DoubleArray),
        ])
    }

    fn two_blob_table(segments: usize) -> Table {
        let mut t = Table::new(labeled_schema(), segments).unwrap();
        // Class A around (0, 0); class B around (10, 10).
        for i in 0..50 {
            let jitter = (i % 5) as f64 * 0.1;
            t.insert(row!["A", vec![0.0 + jitter, 0.5 - jitter]])
                .unwrap();
            t.insert(row!["B", vec![10.0 - jitter, 9.5 + jitter]])
                .unwrap();
        }
        t
    }

    #[test]
    fn separates_well_separated_classes() {
        let t = two_blob_table(4);
        let model = NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&t), &session())
            .unwrap();
        assert_eq!(model.classes.len(), 2);
        assert_eq!(model.total_rows, 100);
        assert_eq!(model.num_features, 2);
        assert_eq!(model.predict(&[0.1, 0.4]).unwrap(), "A");
        assert_eq!(model.predict(&[9.8, 9.9]).unwrap(), "B");
        let scores = model.log_scores(&[0.0, 0.0]).unwrap();
        assert_eq!(scores[0].0, "A");
        assert!(scores[0].1 > scores[1].1);
    }

    #[test]
    fn partition_invariance() {
        let t1 = two_blob_table(1);
        let t8 = t1.repartition(8).unwrap();
        let m1 = NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&t1), &session())
            .unwrap();
        let m8 = NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&t8), &session())
            .unwrap();
        for (label, stats) in &m1.classes {
            let other = &m8.classes[label];
            assert_eq!(stats.count, other.count);
            for (a, b) in stats.means.iter().zip(&other.means) {
                assert!((a - b).abs() < 1e-9);
            }
            for (a, b) in stats.variances.iter().zip(&other.variances) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn chunked_and_row_paths_are_bit_identical() {
        let base = two_blob_table(1);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(7)
            .unwrap();
        t.insert_all(base.iter()).unwrap();
        let nb = NaiveBayes::new("label", "features");
        let chunked = nb.fit(&Dataset::from_table(&t), &session()).unwrap();
        let by_rows = reference::aggregate(&Dataset::from_table(&t), &nb).unwrap();
        assert_eq!(chunked.total_rows, by_rows.total_rows);
        for (label, stats) in &chunked.classes {
            let other = &by_rows.classes[label];
            assert_eq!(stats.count, other.count);
            for (a, b) in stats.means.iter().zip(&other.means) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in stats.variances.iter().zip(&other.variances) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn class_priors_influence_prediction() {
        let mut t = Table::new(labeled_schema(), 2).unwrap();
        // Heavily imbalanced identical distributions: prior should dominate.
        for _ in 0..95 {
            t.insert(row!["common", vec![0.0]]).unwrap();
        }
        for _ in 0..5 {
            t.insert(row!["rare", vec![0.0]]).unwrap();
        }
        let model = NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&t), &session())
            .unwrap();
        assert_eq!(model.predict(&[0.0]).unwrap(), "common");
    }

    #[test]
    fn error_handling() {
        let empty = Table::new(labeled_schema(), 2).unwrap();
        assert!(NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&empty), &session())
            .is_err());

        let mut ragged = Table::new(labeled_schema(), 1).unwrap();
        ragged.insert(row!["A", vec![1.0, 2.0]]).unwrap();
        ragged.insert(row!["A", vec![1.0]]).unwrap();
        assert!(NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&ragged), &session())
            .is_err());

        let t = two_blob_table(1);
        let model = NaiveBayes::new("label", "features")
            .fit(&Dataset::from_table(&t), &session())
            .unwrap();
        assert!(model.predict(&[1.0]).is_err());
        assert!(model.log_scores(&[1.0, 2.0, 3.0]).is_err());
    }

    /// The persisted state is the state, bit for bit, and a cut anywhere in
    /// its bytes is a typed error.
    #[test]
    fn state_codec_round_trips_bit_for_bit() {
        let t = two_blob_table(1);
        let nb = NaiveBayes::new("label", "features");
        let mut state = nb.initial_state();
        for row in t.iter() {
            nb.transition(&mut state, &row, t.schema()).unwrap();
        }
        let mut out = StateWriter::new();
        nb.encode_state(&state, &mut out);
        let bytes = out.into_bytes();
        let decoded = nb.decode_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(decoded.classes, state.classes);
        let mut again = StateWriter::new();
        nb.encode_state(&decoded, &mut again);
        assert_eq!(again.into_bytes(), bytes);
        for cut in 0..bytes.len() {
            assert!(nb
                .decode_state(&mut StateReader::new(&bytes[..cut]))
                .is_err());
        }
    }
}
