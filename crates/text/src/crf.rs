//! Linear-chain conditional random field model.
//!
//! The CRF is "the basic statistical model" of the paper's text-analytics
//! work (Section 5.2): POS tagging, NER, and entity resolution are all cast
//! as sequence labeling over it.  [`ChainCrf`] holds the trained weights
//! (emission weights per label × observation symbol plus transition weights
//! per label pair) and is consumed by the [`crate::viterbi`] and
//! [`crate::mcmc`] inference modules.  Training goes through the uniform
//! `Estimator` convention: [`CrfEstimator`] wraps the `madlib-convex` SGD
//! framework (the CRF row of Table 2), so
//! `Session::train(&CrfEstimator::new(...), &dataset)` fits one CRF and
//! `Session::train_grouped` fits one CRF per `grouping_cols` key
//! (per-document-class sequence models).

use madlib_convex::objectives::CrfObjective;
use madlib_convex::{IgdConfig, IgdEstimator, StepSchedule};
use madlib_core::train::Estimator;
use madlib_core::MethodError;
use madlib_engine::dataset::Dataset;
use madlib_engine::{EngineError, Result};
use serde::{Deserialize, Serialize};

/// A trained linear-chain CRF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainCrf {
    num_labels: usize,
    num_observations: usize,
    weights: Vec<f64>,
}

impl ChainCrf {
    /// Creates a CRF with all-zero weights.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(num_labels: usize, num_observations: usize) -> Self {
        assert!(
            num_labels > 0 && num_observations > 0,
            "dimensions must be positive"
        );
        Self {
            num_labels,
            num_observations,
            weights: vec![0.0; num_labels * num_observations + num_labels * num_labels],
        }
    }

    /// Creates a CRF from explicit weights (emission block followed by
    /// transition block).
    ///
    /// # Errors
    /// Returns an engine error when the weight length is inconsistent.
    pub fn from_weights(
        num_labels: usize,
        num_observations: usize,
        weights: Vec<f64>,
    ) -> Result<Self> {
        let expected = num_labels * num_observations + num_labels * num_labels;
        if weights.len() != expected {
            return Err(EngineError::invalid(format!(
                "expected {expected} weights, got {}",
                weights.len()
            )));
        }
        Ok(Self {
            num_labels,
            num_observations,
            weights,
        })
    }

    /// Number of label values.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Number of observation symbols.
    pub fn num_observations(&self) -> usize {
        self.num_observations
    }

    /// The flat weight vector (emission block then transition block).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Emission weight for (label, observation).
    pub fn emission(&self, label: usize, observation: usize) -> f64 {
        self.weights[label * self.num_observations + observation]
    }

    /// Transition weight for (previous label → label).
    pub fn transition(&self, previous: usize, label: usize) -> f64 {
        self.weights[self.num_labels * self.num_observations + previous * self.num_labels + label]
    }

    /// Unnormalized log-score of a labeling for an observation sequence.
    ///
    /// # Errors
    /// Returns an engine error on length mismatch or out-of-range symbols.
    pub fn sequence_log_score(&self, observations: &[usize], labels: &[usize]) -> Result<f64> {
        if observations.len() != labels.len() {
            return Err(EngineError::invalid(
                "observations and labels must have equal length",
            ));
        }
        let mut score = 0.0;
        for (t, (&obs, &label)) in observations.iter().zip(labels).enumerate() {
            if obs >= self.num_observations || label >= self.num_labels {
                return Err(EngineError::invalid("symbol out of range"));
            }
            score += self.emission(label, obs);
            if t > 0 {
                score += self.transition(labels[t - 1], label);
            }
        }
        Ok(score)
    }
}

/// CRF training packaged as an [`Estimator`] — the uniform
/// `Session::train(&estimator, &dataset)` entry point for sequence labeling.
///
/// The dataset supplies labeled sequences as two `bigint[]` columns (one
/// observation symbol and one label per token); training runs the
/// `madlib-convex` SGD framework over the [`CrfObjective`] (each epoch is
/// one aggregate pass on the chunked scan pipeline, with per-segment model
/// averaging), and the fitted weight vector comes back as a [`ChainCrf`]
/// ready for Viterbi or MCMC inference.
#[derive(Debug, Clone)]
pub struct CrfEstimator {
    observations_column: String,
    labels_column: String,
    num_labels: usize,
    num_observations: usize,
    config: IgdConfig,
}

impl CrfEstimator {
    /// Creates the estimator for `num_labels` label values and
    /// `num_observations` distinct observation symbols, reading the named
    /// `bigint[]` sequence columns.  Runs a constant 0.05 step at tolerance
    /// 1e-8 (the schedule the old driver hard-coded) for up to 50 epochs —
    /// the old driver took the epoch count as a required argument, so
    /// callers porting from it should set [`CrfEstimator::with_epochs`].
    pub fn new(
        observations_column: impl Into<String>,
        labels_column: impl Into<String>,
        num_labels: usize,
        num_observations: usize,
    ) -> Self {
        Self {
            observations_column: observations_column.into(),
            labels_column: labels_column.into(),
            num_labels,
            num_observations,
            config: IgdConfig {
                max_epochs: 50,
                tolerance: 1e-8,
                schedule: StepSchedule::Constant(0.05),
            },
        }
    }

    /// Sets the number of SGD epochs.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.config.max_epochs = epochs;
        self
    }

    /// Replaces the whole IGD configuration (epochs, tolerance, schedule).
    #[must_use]
    pub fn with_config(mut self, config: IgdConfig) -> Self {
        self.config = config;
        self
    }
}

impl Estimator for CrfEstimator {
    type Model = ChainCrf;

    fn fit(&self, dataset: &Dataset) -> madlib_core::Result<ChainCrf> {
        let objective = CrfObjective::new(
            &self.observations_column,
            &self.labels_column,
            self.num_labels,
            self.num_observations,
        );
        let summary = IgdEstimator::new(objective)
            .with_config(self.config.clone())
            .fit(dataset)?;
        ChainCrf::from_weights(self.num_labels, self.num_observations, summary.model)
            .map_err(MethodError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::{Column, ColumnType, Row, Schema, Table, Value};

    pub(crate) fn training_corpus(sequences: usize, segments: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("observations", ColumnType::IntArray),
            Column::new("labels", ColumnType::IntArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        for s in 0..sequences {
            let length = 5 + s % 4;
            let mut observations = Vec::new();
            let mut labels = Vec::new();
            for t_idx in 0..length {
                let label = (t_idx + s) % 2;
                observations.push((label * 2 + s % 2) as i64);
                labels.push(label as i64);
            }
            t.insert(Row::new(vec![
                Value::IntArray(observations),
                Value::IntArray(labels),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn construction_and_accessors() {
        let crf = ChainCrf::zeros(3, 5);
        assert_eq!(crf.num_labels(), 3);
        assert_eq!(crf.num_observations(), 5);
        assert_eq!(crf.weights().len(), 3 * 5 + 3 * 3);
        assert_eq!(crf.emission(2, 4), 0.0);
        assert_eq!(crf.transition(1, 2), 0.0);
        assert!(ChainCrf::from_weights(2, 2, vec![0.0; 3]).is_err());
        assert!(ChainCrf::from_weights(2, 2, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn sequence_score_validation() {
        let crf = ChainCrf::zeros(2, 3);
        assert_eq!(crf.sequence_log_score(&[0, 1], &[0, 1]).unwrap(), 0.0);
        assert!(crf.sequence_log_score(&[0], &[0, 1]).is_err());
        assert!(crf.sequence_log_score(&[9], &[0]).is_err());
        assert!(crf.sequence_log_score(&[0], &[9]).is_err());
    }

    #[test]
    fn training_learns_emission_preferences() {
        let table = training_corpus(40, 2);
        let crf = CrfEstimator::new("observations", "labels", 2, 4)
            .with_epochs(50)
            .fit(&Dataset::from_table(&table))
            .unwrap();
        // Observation 0 co-occurs with label 0, observation 2 with label 1.
        assert!(crf.emission(0, 0) > crf.emission(1, 0));
        assert!(crf.emission(1, 2) > crf.emission(0, 2));
        // The true labeling scores above a corrupted one.
        let observations = [0usize, 3, 0, 3];
        let truth = [0usize, 1, 0, 1];
        let corrupted = [1usize, 0, 1, 0];
        assert!(
            crf.sequence_log_score(&observations, &truth).unwrap()
                > crf.sequence_log_score(&observations, &corrupted).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_panic() {
        ChainCrf::zeros(0, 3);
    }
}
