//! Low-rank matrix-factorization objective (Table 2 row "Recommendation"):
//! `Σ_(i,j)∈Ω (Lᵢᵀ Rⱼ − Mᵢⱼ)² + µ‖L,R‖²_F`.
//!
//! The model vector is the concatenation of the row-major user-factor matrix
//! `L (num_users × rank)` and item-factor matrix `R (num_items × rank)`; each
//! rating tuple touches exactly one row of each, so the per-row gradient is
//! sparse — the pattern the paper highlights as fitting SGD well.

use crate::objective::ConvexObjective;
use madlib_engine::{EngineError, Result, Row, Schema};

/// Matrix-factorization objective over a `(user_id, item_id, rating)` table.
#[derive(Debug, Clone)]
pub struct MatrixFactorizationObjective {
    user_column: String,
    item_column: String,
    rating_column: String,
    num_users: usize,
    num_items: usize,
    rank: usize,
    mu: f64,
}

impl MatrixFactorizationObjective {
    /// Creates the objective.  `num_users`/`num_items` bound the id ranges;
    /// `mu` is the Frobenius regularization weight.
    pub fn new(
        user_column: impl Into<String>,
        item_column: impl Into<String>,
        rating_column: impl Into<String>,
        num_users: usize,
        num_items: usize,
        rank: usize,
        mu: f64,
    ) -> Self {
        Self {
            user_column: user_column.into(),
            item_column: item_column.into(),
            rating_column: rating_column.into(),
            num_users,
            num_items,
            rank,
            mu,
        }
    }

    /// Offset of user `u`'s factor block in the model vector.
    pub fn user_offset(&self, user: usize) -> usize {
        user * self.rank
    }

    /// Offset of item `i`'s factor block in the model vector.
    pub fn item_offset(&self, item: usize) -> usize {
        (self.num_users + item) * self.rank
    }

    /// Predicted rating under a model vector.
    pub fn predict(&self, model: &[f64], user: usize, item: usize) -> f64 {
        let u = self.user_offset(user);
        let i = self.item_offset(item);
        (0..self.rank).map(|f| model[u + f] * model[i + f]).sum()
    }

    /// An initial model with small deterministic values (SGD on a
    /// factorization cannot start at zero because the gradient would vanish).
    pub fn initial_model(&self) -> Vec<f64> {
        let len = (self.num_users + self.num_items) * self.rank;
        (0..len)
            .map(|i| 0.1 + 0.01 * ((i * 2_654_435_761) % 97) as f64 / 97.0)
            .collect()
    }

    fn triple(&self, row: &Row, schema: &Schema) -> Result<(usize, usize, f64)> {
        let user = row.get_named(schema, &self.user_column)?.as_int()?;
        let item = row.get_named(schema, &self.item_column)?.as_int()?;
        let rating = row.get_named(schema, &self.rating_column)?.as_double()?;
        if user < 0 || user as usize >= self.num_users {
            return Err(EngineError::aggregate(format!(
                "user id {user} out of range"
            )));
        }
        if item < 0 || item as usize >= self.num_items {
            return Err(EngineError::aggregate(format!(
                "item id {item} out of range"
            )));
        }
        Ok((user as usize, item as usize, rating))
    }
}

impl ConvexObjective for MatrixFactorizationObjective {
    fn dimension(&self) -> usize {
        (self.num_users + self.num_items) * self.rank
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![
            &self.user_column,
            &self.item_column,
            &self.rating_column,
        ])
    }

    fn row_loss(&self, row: &Row, schema: &Schema, model: &[f64]) -> Result<f64> {
        let (user, item, rating) = self.triple(row, schema)?;
        let err = self.predict(model, user, item) - rating;
        Ok(err * err)
    }

    fn accumulate_gradient(
        &self,
        row: &Row,
        schema: &Schema,
        model: &[f64],
        gradient: &mut [f64],
    ) -> Result<()> {
        let (user, item, rating) = self.triple(row, schema)?;
        let err = self.predict(model, user, item) - rating;
        let u = self.user_offset(user);
        let i = self.item_offset(item);
        for f in 0..self.rank {
            gradient[u + f] += 2.0 * err * model[i + f] + 2.0 * self.mu * model[u + f];
            gradient[i + f] += 2.0 * err * model[u + f] + 2.0 * self.mu * model[i + f];
        }
        Ok(())
    }

    fn regularization(&self, model: &[f64]) -> f64 {
        self.mu * model.iter().map(|w| w * w).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igd::{IgdConfig, IgdRunner};
    use crate::schedule::StepSchedule;
    use madlib_engine::{row, Column, ColumnType, Database, Executor, Table};

    fn ratings_table(users: usize, items: usize, segments: usize) -> Table {
        let schema = madlib_engine::Schema::new(vec![
            Column::new("user_id", ColumnType::Int),
            Column::new("item_id", ColumnType::Int),
            Column::new("rating", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        // Rank-1 ground truth: rating(u, i) = a_u * b_i with simple patterns.
        for u in 0..users {
            for i in 0..items {
                let rating = (1.0 + u as f64 * 0.2) * (0.5 + i as f64 * 0.1);
                t.insert(row![u as i64, i as i64, rating]).unwrap();
            }
        }
        t
    }

    #[test]
    fn factorization_reduces_reconstruction_error() {
        let table = ratings_table(8, 10, 3);
        let objective =
            MatrixFactorizationObjective::new("user_id", "item_id", "rating", 8, 10, 2, 1e-4);
        let runner = IgdRunner::new(IgdConfig {
            max_epochs: 300,
            tolerance: 1e-10,
            schedule: StepSchedule::Constant(0.03),
        });
        let summary = runner
            .run(
                &Executor::new(),
                &Database::new(3).unwrap(),
                &table,
                &objective,
                objective.initial_model(),
            )
            .unwrap();
        assert!(summary.objective_value < 0.05 * summary.initial_objective_value);
        // Spot-check one reconstruction.
        let truth = (1.0 + 3.0 * 0.2) * (0.5 + 4.0 * 0.1);
        let predicted = objective.predict(&summary.model, 3, 4);
        assert!((predicted - truth).abs() < 0.25, "{predicted} vs {truth}");
    }

    #[test]
    fn id_range_checks() {
        let schema = madlib_engine::Schema::new(vec![
            Column::new("user_id", ColumnType::Int),
            Column::new("item_id", ColumnType::Int),
            Column::new("rating", ColumnType::Double),
        ]);
        let objective =
            MatrixFactorizationObjective::new("user_id", "item_id", "rating", 3, 3, 2, 0.0);
        let bad_user = row![7i64, 0i64, 1.0];
        let model = objective.initial_model();
        assert!(objective.row_loss(&bad_user, &schema, &model).is_err());
        let bad_item = row![0i64, 9i64, 1.0];
        let mut g = vec![0.0; objective.dimension()];
        assert!(objective
            .accumulate_gradient(&bad_item, &schema, &model, &mut g)
            .is_err());
    }

    #[test]
    fn layout_offsets_are_disjoint() {
        let objective = MatrixFactorizationObjective::new("u", "i", "r", 4, 5, 3, 0.0);
        assert_eq!(objective.dimension(), (4 + 5) * 3);
        assert_eq!(objective.user_offset(0), 0);
        assert_eq!(objective.user_offset(3), 9);
        assert_eq!(objective.item_offset(0), 12);
        assert_eq!(objective.item_offset(4), 24);
        assert!(objective.regularization(&objective.initial_model()) >= 0.0);
        assert_eq!(objective.initial_model().len(), objective.dimension());
    }
}
