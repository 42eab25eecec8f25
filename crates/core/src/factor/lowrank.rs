//! Low-rank (SVD-style) matrix factorization.
//!
//! Table 1 lists "SVD Matrix Factorization" and Table 2's "Recommendation"
//! objective minimizes `Σ (Lᵢᵀ Rⱼ − Mᵢⱼ)² + µ‖L,R‖²` — the incomplete-matrix
//! low-rank factorization used for collaborative filtering.  We implement the
//! same model trained with stochastic gradient descent over a ratings table
//! `(user_id, item_id, rating)`, which is also how the MADlib `svd_mf` module
//! approaches large sparse inputs.

use crate::error::{MethodError, Result};
use crate::train::Estimator;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fitted low-rank factorization `M ≈ L Rᵀ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowRankModel {
    /// Left (user) factors, one row per user id `0..num_users`.
    pub user_factors: Vec<Vec<f64>>,
    /// Right (item) factors, one row per item id `0..num_items`.
    pub item_factors: Vec<Vec<f64>>,
    /// Rank of the factorization.
    pub rank: usize,
    /// Root-mean-square error over the observed entries at the end of
    /// training.
    pub train_rmse: f64,
    /// Number of observed ratings used.
    pub num_ratings: usize,
    /// Epochs run.
    pub epochs: usize,
}

impl LowRankModel {
    /// Predicted rating for a (user, item) pair.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] for ids outside the training
    /// range.
    pub fn predict(&self, user: usize, item: usize) -> Result<f64> {
        let u = self
            .user_factors
            .get(user)
            .ok_or_else(|| MethodError::invalid_input(format!("unknown user id {user}")))?;
        let v = self
            .item_factors
            .get(item)
            .ok_or_else(|| MethodError::invalid_input(format!("unknown item id {item}")))?;
        Ok(u.iter().zip(v).map(|(a, b)| a * b).sum())
    }
}

/// SGD trainer for the low-rank factorization.
#[derive(Debug, Clone)]
pub struct LowRankFactorization {
    user_column: String,
    item_column: String,
    rating_column: String,
    rank: usize,
    learning_rate: f64,
    regularization: f64,
    epochs: usize,
    seed: u64,
}

impl LowRankFactorization {
    /// Creates a trainer with rank `rank` and sensible defaults
    /// (learning rate 0.02, regularization 0.05, 30 epochs).
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] when `rank == 0`.
    pub fn new(
        user_column: impl Into<String>,
        item_column: impl Into<String>,
        rating_column: impl Into<String>,
        rank: usize,
    ) -> Result<Self> {
        if rank == 0 {
            return Err(MethodError::invalid_parameter("rank", "must be positive"));
        }
        Ok(Self {
            user_column: user_column.into(),
            item_column: item_column.into(),
            rating_column: rating_column.into(),
            rank,
            learning_rate: 0.02,
            regularization: 0.05,
            epochs: 30,
            seed: 0,
        })
    }

    /// Sets the SGD learning rate.
    pub fn with_learning_rate(mut self, learning_rate: f64) -> Self {
        self.learning_rate = learning_rate;
        self
    }

    /// Sets the L2 regularization µ.
    pub fn with_regularization(mut self, regularization: f64) -> Self {
        self.regularization = regularization;
        self
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Sets the RNG seed (initial factors + shuffling).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Extracts the `(user, item, rating)` triples of one column-major chunk.
    ///
    /// The fast path reads the three contiguous column buffers directly
    /// (`bigint`, `bigint`, `double precision`, no NULLs); anything else —
    /// NULL-bearing chunks, unexpected column types — falls back to
    /// materialized per-row access, which raises exactly the errors the
    /// legacy row loop did.
    fn chunk_triples(
        &self,
        chunk: &madlib_engine::RowChunk,
        schema: &madlib_engine::Schema,
    ) -> madlib_engine::Result<Vec<(usize, usize, f64)>> {
        let user_idx = schema.index_of(&self.user_column)?;
        let item_idx = schema.index_of(&self.item_column)?;
        let rating_idx = schema.index_of(&self.rating_column)?;
        let mut out = Vec::with_capacity(chunk.len());
        if let (
            ColumnChunk::Int {
                values: users,
                nulls: user_nulls,
            },
            ColumnChunk::Int {
                values: items,
                nulls: item_nulls,
            },
            ColumnChunk::Double {
                values: ratings,
                nulls: rating_nulls,
            },
        ) = (
            chunk.column(user_idx),
            chunk.column(item_idx),
            chunk.column(rating_idx),
        ) {
            if !user_nulls.any_null() && !item_nulls.any_null() && !rating_nulls.any_null() {
                for ((&u, &i), &r) in users.iter().zip(items).zip(ratings) {
                    if u < 0 || i < 0 {
                        return Err(madlib_engine::EngineError::aggregate(
                            "user/item ids must be non-negative",
                        ));
                    }
                    out.push((u as usize, i as usize, r));
                }
                return Ok(out);
            }
        }
        for row in 0..chunk.len() {
            let u = chunk.value(row, user_idx).as_int()?;
            let i = chunk.value(row, item_idx).as_int()?;
            let r = chunk.value(row, rating_idx).as_double()?;
            if u < 0 || i < 0 {
                return Err(madlib_engine::EngineError::aggregate(
                    "user/item ids must be non-negative",
                ));
            }
            out.push((u as usize, i as usize, r));
        }
        Ok(out)
    }
}

impl Estimator for LowRankFactorization {
    type Model = LowRankModel;

    /// Fits the factorization over the dataset's (filtered) ratings rows.
    /// The triple-loading pass rides the chunked scan pipeline; the SGD
    /// epochs run in-core, seeded, over the collected triples in scan order.
    fn fit(&self, dataset: &Dataset) -> Result<LowRankModel> {
        let triples: Vec<(usize, usize, f64)> = dataset
            .map_chunks(|chunk, schema| self.chunk_triples(chunk, schema))
            .map_err(MethodError::from)?;
        if triples.is_empty() {
            return Err(MethodError::invalid_input("no ratings in input table"));
        }
        let num_users = triples.iter().map(|t| t.0).max().unwrap_or(0) + 1;
        let num_items = triples.iter().map(|t| t.1).max().unwrap_or(0) + 1;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let scale = 1.0 / (self.rank as f64).sqrt();
        let mut user_factors: Vec<Vec<f64>> = (0..num_users)
            .map(|_| {
                (0..self.rank)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect()
            })
            .collect();
        let mut item_factors: Vec<Vec<f64>> = (0..num_items)
            .map(|_| {
                (0..self.rank)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect()
            })
            .collect();

        let mut order: Vec<usize> = (0..triples.len()).collect();
        for _epoch in 0..self.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let (u, i, rating) = triples[idx];
                let prediction: f64 = user_factors[u]
                    .iter()
                    .zip(&item_factors[i])
                    .map(|(a, b)| a * b)
                    .sum();
                let err = rating - prediction;
                for f in 0..self.rank {
                    let uf = user_factors[u][f];
                    let vf = item_factors[i][f];
                    user_factors[u][f] +=
                        self.learning_rate * (err * vf - self.regularization * uf);
                    item_factors[i][f] +=
                        self.learning_rate * (err * uf - self.regularization * vf);
                }
            }
        }

        let sse: f64 = triples
            .iter()
            .map(|&(u, i, r)| {
                let p: f64 = user_factors[u]
                    .iter()
                    .zip(&item_factors[i])
                    .map(|(a, b)| a * b)
                    .sum();
                (r - p) * (r - p)
            })
            .sum();
        let train_rmse = (sse / triples.len() as f64).sqrt();

        Ok(LowRankModel {
            user_factors,
            item_factors,
            rank: self.rank,
            train_rmse,
            num_ratings: triples.len(),
            epochs: self.epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::ratings_data;
    use madlib_engine::Table;

    fn fit(estimator: &LowRankFactorization, table: &Table) -> Result<LowRankModel> {
        estimator.fit(&Dataset::from_table(table))
    }

    #[test]
    fn reconstructs_low_rank_matrix() {
        let table = ratings_data(30, 25, 2, 0.6, 3, 42).unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 4)
            .unwrap()
            .with_epochs(60)
            .with_seed(1);
        let model = fit(&estimator, &table).unwrap();
        assert_eq!(model.rank, 4);
        assert!(model.num_ratings > 100);
        assert!(
            model.train_rmse < 0.15,
            "rank-4 fit of a rank-2 matrix should be accurate, rmse={}",
            model.train_rmse
        );
        // Predictions on observed entries should be close.
        let rows = table.collect_rows();
        let row = &rows[0];
        let u = row.get(0).as_int().unwrap() as usize;
        let i = row.get(1).as_int().unwrap() as usize;
        let r = row.get(2).as_double().unwrap();
        assert!((model.predict(u, i).unwrap() - r).abs() < 0.5);
    }

    #[test]
    fn unknown_ids_are_rejected_in_predict() {
        let table = ratings_data(5, 5, 1, 0.9, 1, 3).unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2)
            .unwrap()
            .with_epochs(5);
        let model = fit(&estimator, &table).unwrap();
        assert!(model.predict(0, 0).is_ok());
        assert!(model.predict(1000, 0).is_err());
        assert!(model.predict(0, 1000).is_err());
    }

    #[test]
    fn deterministic_with_seed_and_validates_parameters() {
        assert!(LowRankFactorization::new("u", "i", "r", 0).is_err());
        let table = ratings_data(8, 8, 2, 0.8, 2, 9).unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 3)
            .unwrap()
            .with_seed(5)
            .with_epochs(10);
        let a = fit(&estimator, &table).unwrap();
        let b = fit(&estimator, &table).unwrap();
        assert_eq!(a.user_factors, b.user_factors);
        assert_eq!(a.item_factors, b.item_factors);
    }

    #[test]
    fn negative_ids_are_rejected() {
        let schema = madlib_engine::Schema::new(vec![
            madlib_engine::Column::new("user_id", madlib_engine::ColumnType::Int),
            madlib_engine::Column::new("item_id", madlib_engine::ColumnType::Int),
            madlib_engine::Column::new("rating", madlib_engine::ColumnType::Double),
        ]);
        let mut table = Table::new(schema, 1).unwrap();
        table.insert(madlib_engine::row![-1i64, 0i64, 3.0]).unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2).unwrap();
        assert!(fit(&estimator, &table).is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        let empty = madlib_engine::Table::new(
            madlib_engine::Schema::new(vec![
                madlib_engine::Column::new("user_id", madlib_engine::ColumnType::Int),
                madlib_engine::Column::new("item_id", madlib_engine::ColumnType::Int),
                madlib_engine::Column::new("rating", madlib_engine::ColumnType::Double),
            ]),
            2,
        )
        .unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2).unwrap();
        assert!(fit(&estimator, &empty).is_err());
    }
}
