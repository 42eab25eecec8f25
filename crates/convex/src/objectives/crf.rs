//! Linear-chain conditional-random-field objective (Table 2 row
//! "Labeling (CRF)"): the negative log-likelihood
//! `Σ_k [ log Z(z_k) − Σ_j w_j F_j(y_k, z_k) ]`.
//!
//! Each table row is one labeled token sequence: an observation column
//! (`bigint[]` of per-token observation symbols) and a label column
//! (`bigint[]` of per-token labels).  The parameter vector concatenates an
//! emission weight matrix (label × observation symbol) and a transition
//! weight matrix (label × label).  The per-sequence gradient is the classic
//! "observed features minus expected features" computed with the
//! forward–backward algorithm in log space.

use crate::objective::ConvexObjective;
use madlib_engine::{EngineError, Result, Row, Schema};

/// Numerically stable log-sum-exp.
fn log_sum_exp(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max.is_infinite() {
        return max;
    }
    max + values.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

/// Linear-chain CRF negative log-likelihood objective.
#[derive(Debug, Clone)]
pub struct CrfObjective {
    observations_column: String,
    labels_column: String,
    num_labels: usize,
    num_observations: usize,
}

impl CrfObjective {
    /// Creates the objective for `num_labels` label values and
    /// `num_observations` distinct observation symbols.
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
        }
    }

    /// Number of label values.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Index of the emission weight for (label, observation).
    pub fn emission_index(&self, label: usize, observation: usize) -> usize {
        label * self.num_observations + observation
    }

    /// Index of the transition weight for (previous label, label).
    pub fn transition_index(&self, previous: usize, label: usize) -> usize {
        self.num_labels * self.num_observations + previous * self.num_labels + label
    }

    fn sequence(&self, row: &Row, schema: &Schema) -> Result<(Vec<usize>, Vec<usize>)> {
        let observations = row
            .get_named(schema, &self.observations_column)?
            .as_int_array()?;
        let labels = row.get_named(schema, &self.labels_column)?.as_int_array()?;
        if observations.len() != labels.len() {
            return Err(EngineError::aggregate(
                "observation and label sequences must have equal length",
            ));
        }
        let obs: Vec<usize> = observations
            .iter()
            .map(|&o| {
                if o < 0 || o as usize >= self.num_observations {
                    Err(EngineError::aggregate(format!(
                        "observation {o} out of range"
                    )))
                } else {
                    Ok(o as usize)
                }
            })
            .collect::<Result<_>>()?;
        let labs: Vec<usize> = labels
            .iter()
            .map(|&l| {
                if l < 0 || l as usize >= self.num_labels {
                    Err(EngineError::aggregate(format!("label {l} out of range")))
                } else {
                    Ok(l as usize)
                }
            })
            .collect::<Result<_>>()?;
        Ok((obs, labs))
    }

    /// Unnormalized log-score of a (labels, observations) pair under `model`.
    pub fn sequence_score(&self, model: &[f64], observations: &[usize], labels: &[usize]) -> f64 {
        let mut score = 0.0;
        for (t, (&obs, &label)) in observations.iter().zip(labels).enumerate() {
            score += model[self.emission_index(label, obs)];
            if t > 0 {
                score += model[self.transition_index(labels[t - 1], label)];
            }
        }
        score
    }

    /// Log partition function and per-position forward messages (log space).
    fn forward(&self, model: &[f64], observations: &[usize]) -> (Vec<Vec<f64>>, f64) {
        let n = observations.len();
        let k = self.num_labels;
        let mut alpha = vec![vec![f64::NEG_INFINITY; k]; n];
        for label in 0..k {
            alpha[0][label] = model[self.emission_index(label, observations[0])];
        }
        for t in 1..n {
            for label in 0..k {
                let scores: Vec<f64> = (0..k)
                    .map(|prev| alpha[t - 1][prev] + model[self.transition_index(prev, label)])
                    .collect();
                alpha[t][label] =
                    log_sum_exp(&scores) + model[self.emission_index(label, observations[t])];
            }
        }
        let log_z = log_sum_exp(&alpha[n - 1]);
        (alpha, log_z)
    }

    fn backward(&self, model: &[f64], observations: &[usize]) -> Vec<Vec<f64>> {
        let n = observations.len();
        let k = self.num_labels;
        let mut beta = vec![vec![0.0; k]; n];
        for t in (0..n - 1).rev() {
            for label in 0..k {
                let scores: Vec<f64> = (0..k)
                    .map(|next| {
                        beta[t + 1][next]
                            + model[self.transition_index(label, next)]
                            + model[self.emission_index(next, observations[t + 1])]
                    })
                    .collect();
                beta[t][label] = log_sum_exp(&scores);
            }
        }
        beta
    }
}

impl ConvexObjective for CrfObjective {
    fn dimension(&self) -> usize {
        self.num_labels * self.num_observations + self.num_labels * self.num_labels
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.observations_column, &self.labels_column])
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        let (observations, labels) = self.sequence(row, schema)?;
        if observations.is_empty() {
            return Ok(0.0);
        }
        let (_alpha, log_z) = self.forward(model, &observations);
        Ok(log_z - self.sequence_score(model, &observations, &labels))
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        let (observations, labels) = self.sequence(row, schema)?;
        if observations.is_empty() {
            return Ok(());
        }
        let n = observations.len();
        let k = self.num_labels;
        let (alpha, log_z) = self.forward(model, &observations);
        let beta = self.backward(model, &observations);

        // Gradient of the negative log-likelihood = expected − observed.
        // Observed feature counts.
        for (t, (&obs, &label)) in observations.iter().zip(&labels).enumerate() {
            gradient[self.emission_index(label, obs)] -= 1.0;
            if t > 0 {
                gradient[self.transition_index(labels[t - 1], label)] -= 1.0;
            }
        }
        // Expected emission counts from the node marginals.
        for t in 0..n {
            for label in 0..k {
                let marginal = (alpha[t][label] + beta[t][label] - log_z).exp();
                gradient[self.emission_index(label, observations[t])] += marginal;
            }
        }
        // Expected transition counts from the edge marginals.
        for t in 1..n {
            for prev in 0..k {
                for label in 0..k {
                    let log_edge = alpha[t - 1][prev]
                        + model[self.transition_index(prev, label)]
                        + model[self.emission_index(label, observations[t])]
                        + beta[t][label]
                        - log_z;
                    gradient[self.transition_index(prev, label)] += log_edge.exp();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igd::{IgdConfig, IgdRunner};
    use crate::schedule::StepSchedule;
    use madlib_engine::{Column, ColumnType, Database, Executor, Row, Table, Value};

    fn sequence_schema() -> madlib_engine::Schema {
        madlib_engine::Schema::new(vec![
            Column::new("observations", ColumnType::IntArray),
            Column::new("labels", ColumnType::IntArray),
        ])
    }

    /// Corpus where observation o deterministically carries label o % 2 and
    /// labels alternate — learnable by both emission and transition weights.
    fn corpus(segments: usize, sequences: usize) -> Table {
        let mut t = Table::new(sequence_schema(), segments).unwrap();
        for s in 0..sequences {
            let length = 6 + (s % 3);
            let mut observations = Vec::with_capacity(length);
            let mut labels = Vec::with_capacity(length);
            for t_idx in 0..length {
                let label = (t_idx + s) % 2;
                // Observation symbols 0/1 signal label 0, symbols 2/3 signal
                // label 1; the low bit varies with the sequence index so all
                // four symbols appear in the corpus.
                let obs = label * 2 + (s % 2);
                observations.push(obs as i64);
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
    fn log_sum_exp_is_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0_f64.ln()).abs() < 1e-12);
        assert!((log_sum_exp(&[1000.0, 1000.0]) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert_eq!(
            log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn zero_model_loss_is_uniform_log_likelihood() {
        let objective = CrfObjective::new("observations", "labels", 2, 4);
        let schema = sequence_schema();
        let row = Row::new(vec![
            Value::IntArray(vec![0, 2, 1]),
            Value::IntArray(vec![0, 1, 0]),
        ]);
        let model = vec![0.0; objective.dimension()];
        // With all-zero weights every labeling is equally likely: loss is
        // T·0 subtracted from log(K^T)... precisely log(2^3).
        let loss = objective.row_loss(&row, &schema, &model).unwrap();
        assert!((loss - (8.0_f64).ln()) < 1e-9);
    }

    #[test]
    fn gradient_at_zero_matches_finite_differences() {
        let objective = CrfObjective::new("observations", "labels", 2, 4);
        let schema = sequence_schema();
        let row = Row::new(vec![
            Value::IntArray(vec![0, 3, 1, 2]),
            Value::IntArray(vec![0, 1, 0, 1]),
        ]);
        let dim = objective.dimension();
        let model = vec![0.1; dim];
        let mut analytic = vec![0.0; dim];
        objective
            .accumulate_gradient(&row, &schema, &model, &mut analytic)
            .unwrap();
        let eps = 1e-5;
        for i in (0..dim).step_by(3) {
            let mut plus = model.clone();
            plus[i] += eps;
            let mut minus = model.clone();
            minus[i] -= eps;
            let numeric = (objective.row_loss(&row, &schema, &plus).unwrap()
                - objective.row_loss(&row, &schema, &minus).unwrap())
                / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-4,
                "component {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn training_reduces_negative_log_likelihood_and_learns_emissions() {
        let table = corpus(2, 40);
        let objective = CrfObjective::new("observations", "labels", 2, 4);
        let runner = IgdRunner::new(IgdConfig {
            max_epochs: 60,
            tolerance: 1e-9,
            schedule: StepSchedule::Constant(0.05),
        });
        let summary = runner
            .run(
                &Executor::new(),
                &Database::new(2).unwrap(),
                &table,
                &objective,
                vec![0.0; objective.dimension()],
            )
            .unwrap();
        assert!(summary.objective_value < 0.5 * summary.initial_objective_value);
        // Emission weights: observation 0 and 1 should favor label 0; 2 and 3
        // should favor label 1.
        let m = &summary.model;
        assert!(m[objective.emission_index(0, 0)] > m[objective.emission_index(1, 0)]);
        assert!(m[objective.emission_index(1, 2)] > m[objective.emission_index(0, 2)]);
    }

    #[test]
    fn malformed_sequences_are_rejected() {
        let objective = CrfObjective::new("observations", "labels", 2, 4);
        let schema = sequence_schema();
        let model = vec![0.0; objective.dimension()];
        let mismatched = Row::new(vec![Value::IntArray(vec![0, 1]), Value::IntArray(vec![0])]);
        assert!(objective.row_loss(&mismatched, &schema, &model).is_err());
        let bad_label = Row::new(vec![Value::IntArray(vec![0]), Value::IntArray(vec![7])]);
        assert!(objective.row_loss(&bad_label, &schema, &model).is_err());
        let bad_obs = Row::new(vec![Value::IntArray(vec![9]), Value::IntArray(vec![0])]);
        let mut g = vec![0.0; objective.dimension()];
        assert!(objective
            .accumulate_gradient(&bad_obs, &schema, &model, &mut g)
            .is_err());
        // Empty sequences contribute nothing.
        let empty = Row::new(vec![Value::IntArray(vec![]), Value::IntArray(vec![])]);
        assert_eq!(objective.row_loss(&empty, &schema, &model).unwrap(), 0.0);
    }
}
