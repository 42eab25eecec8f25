//! In-engine model serving: the scoring half of the MADlib calling
//! convention.
//!
//! Training runs inside the engine — one `Session::train` call per model,
//! executed as chunked, work-stealing scans.  This module gives
//! *prediction* the same treatment, with one copy of each idea:
//!
//! - **One scorer method.**  [`Scorer`] is the serving analogue of
//!   [`crate::aggregate::Aggregate`]: [`Scorer::output_type`] and
//!   [`Scorer::predict_chunk`], which appends exactly one prediction per row
//!   of a column-major chunk.  The per-row meaning of a prediction is the
//!   method library's (`madlib_core::Predictor::predict_value`); a chunk
//!   method that batches through the kernel tiers must equal it bit for
//!   bit, and the tests hold it there.
//! - **One registry.**  [`Dataset::score_per_group`] serves a
//!   [`GroupedModels`] registry — the `train_grouped` output, as stored in
//!   the model catalog — routing each row to its composite
//!   [`GroupKey`](crate::GroupKey)'s scorer, bit-identical to filtering
//!   each group out and scoring it separately.  Routing is [`crate::group`]'s keying pass and index
//!   sort, the code grouped aggregation runs, with "open a slot" meaning
//!   "look the group up, or fail with [`EngineError::ModelNotFound`]".
//! - **One ranged pass.**  [`Dataset::score`], [`Dataset::score_with_stats`],
//!   [`Dataset::score_into`] (a one-column predictions table, segment
//!   placement preserved), [`Dataset::score_per_group`] and
//!   [`Dataset::top_k_by_score`] are thin calls of the dataset's one
//!   order-preserving pass, the body [`Dataset::map_chunks`] runs on too:
//!   chunk-range units on the work-stealing pool, outputs in
//!   segment-then-row order.
//! - **One count check.**  Every `predict_chunk` call the engine makes is
//!   held to its count; a scorer that appends any other number of
//!   predictions fails the call with [`EngineError::PredictionCount`]
//!   instead of misaligning the output.
//! - [`Dataset::top_k_by_score`] is k-nearest-neighbour / vector-similarity
//!   search over a `double precision[]` column on the same batched kernels —
//!   a serving workload with no training step at all.  Each unit keeps its
//!   best `k` as scores and scan positions, turning a row away on its score
//!   alone once full; rows are built for the global `k` only
//!   ([`Dataset::top_k_by_score_with_stats`] counts both).

use crate::chunk::{ColumnChunk, RowChunk, Segment, CHUNK_CAPACITY};
use crate::database::Database;
use crate::dataset::Dataset;
use crate::error::{EngineError, Result};
use crate::executor::ExecutionStats;
use crate::group::{GroupedModels, IndexSort, SlotDirectory};
use crate::row::Row;
use crate::scan::ChunkRange;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Distribution, Table};
use crate::value::Value;
use madlib_linalg::kernels;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// A model that scores chunks of rows — the serving-side counterpart of
/// [`crate::aggregate::Aggregate`].
///
/// [`Scorer::predict_chunk`] sees whatever a scan hands it — a stored
/// chunk, a filter's compaction, one group's gather — so its predictions
/// must be a per-row function of each row: the same bits under any chunk
/// split and kernel tier.
pub trait Scorer: Sync {
    /// Column type of the predictions this scorer emits (the schema of the
    /// materialized predictions column).
    fn output_type(&self) -> ColumnType;

    /// Scores every row of a column-major chunk, appending exactly
    /// `chunk.len()` predictions to `out` in row order.  The serving
    /// terminals check the count and fail with
    /// [`EngineError::PredictionCount`] otherwise.
    ///
    /// # Errors
    /// Implementation-defined (e.g. a feature-width mismatch); a batched
    /// implementation fails exactly when, and how, its first failing row
    /// would.
    fn predict_chunk(&self, chunk: &RowChunk, schema: &Schema, out: &mut Vec<Value>) -> Result<()>;
}

/// Scores `chunk` with `scorer`, holding it to [`Scorer::predict_chunk`]'s
/// count: the one call site of that method in the engine.
fn predict<S: Scorer + ?Sized>(
    scorer: &S,
    chunk: &RowChunk,
    schema: &Schema,
    out: &mut Vec<Value>,
) -> Result<()> {
    let before = out.len();
    scorer.predict_chunk(chunk, schema, out)?;
    if out.len() != before + chunk.len() {
        return Err(EngineError::PredictionCount {
            rows: chunk.len(),
            predictions: out.len().saturating_sub(before),
        });
    }
    Ok(())
}

/// Similarity metric for [`Dataset::top_k_by_score`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Similarity {
    /// Inner product `x · q` — **higher** scores rank first (the SQL
    /// dot-product-UDF shape; equivalent to cosine ranking for normalized
    /// vectors).  Rides `batch_dot`.
    Dot,
    /// Squared Euclidean distance `‖x − q‖²` — **lower** scores rank first
    /// (k-nearest-neighbour).  Rides `batch_squared_distances`.
    Euclidean,
}

impl Similarity {
    /// A score as an integer whose order is the metric's ranking order —
    /// a larger key ranks strictly before a smaller one.  It is
    /// [`f64::total_cmp`]'s key (flipped for [`Similarity::Euclidean`]'s
    /// ascending order), so NaN scores order deterministically: a NaN of
    /// the sign x86 arithmetic produces ranks worst under
    /// [`Similarity::Dot`] and first under [`Similarity::Euclidean`] — but
    /// never flaps.
    fn key(self, score: f64) -> i64 {
        let bits = score.to_bits() as i64;
        let total = bits ^ (((bits >> 63) as u64) >> 1) as i64;
        match self {
            Similarity::Dot => total,
            Similarity::Euclidean => !total,
        }
    }

    /// The per-row reference score — the formulation the batched kernels are
    /// bit-identical to by contract (left-to-right accumulation).
    fn score_row(self, x: &[f64], query: &[f64]) -> f64 {
        match self {
            Similarity::Dot => x.iter().zip(query).map(|(a, b)| a * b).sum(),
            Similarity::Euclidean => x
                .iter()
                .zip(query)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum(),
        }
    }

    /// The batched kernel for uniform-width, NULL-free chunks.
    fn score_batch(self, xs: &[f64], query: &[f64], out: &mut [f64]) {
        match self {
            Similarity::Dot => kernels::batch_dot(xs, query, out),
            Similarity::Euclidean => kernels::batch_squared_distances(xs, query, out),
        }
    }
}

/// Where a scored row stands among all others, and where it is: its score,
/// then its scan position — (segment, first chunk of its chunk-range unit,
/// surviving-row ordinal within the unit), the same order as (segment,
/// ordinal within the segment) and a pure function of the dataset, never of
/// scheduling.  The position is also the row's location: the ordinal-th
/// filter-surviving row from the unit's first chunk on.
#[derive(Clone, Copy)]
struct Rank {
    score: f64,
    segment: usize,
    chunk_lo: usize,
    ordinal: usize,
}

impl Rank {
    /// The key of the total order: better score first, then scan position.
    /// Gives every row a distinct rank, so top-k results are deterministic
    /// even with tied scores.
    fn order(&self, metric: Similarity) -> (Reverse<i64>, usize, usize, usize) {
        let score = Reverse(metric.key(self.score));
        (score, self.segment, self.chunk_lo, self.ordinal)
    }
}

/// What [`Dataset::top_k_by_score_with_stats`] did: its ranged pass, and how
/// many rows got past the score check and were built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKStats {
    /// The ranged pass: rows scanned and passed by the filter, segments,
    /// kernel tier, worker time.
    pub scan: ExecutionStats,
    /// Rows that passed a unit's score check into the unit's best-first
    /// list: at least `min(k, scored rows)` per unit.
    pub rows_offered: u64,
    /// [`Row`]s built: the returned rows, `min(k, scored rows)`.
    pub rows_materialized: u64,
}

impl Dataset<'_> {
    /// Rejects grouped datasets from the ungrouped serving terminals with
    /// guidance pointing at the grouped entry points.
    fn require_ungrouped_serving(&self, operation: &str) -> Result<()> {
        if self.is_grouped() {
            return Err(EngineError::invalid(format!(
                "{operation} over a grouped dataset; score it with Session::score \
                 (a catalog registry by name) or Dataset::score_per_group"
            )));
        }
        Ok(())
    }

    /// The ranged pass of the ungrouped scoring terminals: `scorer` over
    /// every filter-surviving chunk.
    fn score_ranged<S: Scorer + ?Sized>(
        &self,
        operation: &str,
        scorer: &S,
    ) -> Result<(Vec<Value>, Vec<usize>, ExecutionStats)> {
        self.require_ungrouped_serving(operation)?;
        self.ranged(true, |_| {
            |chunk: &RowChunk, schema: &Schema, out: &mut Vec<Value>| {
                predict(scorer, chunk, schema, out)
            }
        })
    }

    /// Scores every filter-surviving row with `scorer`, returning one
    /// prediction per row in segment-then-row order (the same order
    /// [`Dataset::collect_rows`] yields rows, so predictions zip with rows).
    ///
    /// Runs as a chunked, work-stealing scan pass: each (compacted) chunk
    /// goes through [`Scorer::predict_chunk`].  Terminal operation; requires
    /// an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates predicate and scorer errors; fails with
    /// [`EngineError::PredictionCount`] when the scorer appends the wrong
    /// number of predictions for a chunk; errors on a grouped dataset.
    pub fn score<S: Scorer + ?Sized>(&self, scorer: &S) -> Result<Vec<Value>> {
        Ok(self.score_with_stats(scorer)?.0)
    }

    /// Like [`Dataset::score`], additionally returning the pass's
    /// [`ExecutionStats`]: rows scanned and rows that passed the filter
    /// (`rows_aggregated`), the table's segment count, the kernel tier, and
    /// the worker time inside the chunk-range units (`busy_ns`).
    ///
    /// # Errors
    /// As [`Dataset::score`].
    pub fn score_with_stats<S: Scorer + ?Sized>(
        &self,
        scorer: &S,
    ) -> Result<(Vec<Value>, ExecutionStats)> {
        let (predictions, _, stats) = self.score_ranged("score", scorer)?;
        Ok((predictions, stats))
    }

    /// Scores every filter-surviving row and materializes the predictions as
    /// a new one-column (`prediction`, [`Scorer::output_type`]) table
    /// registered in `database` under `table_name` — the engine-resident
    /// `CREATE TABLE predictions AS SELECT predict(...)` shape.  Each
    /// prediction lands in the segment its source row came from, so
    /// downstream scans over the predictions table parallelize like the
    /// source.  Terminal operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// As [`Dataset::score`], and [`EngineError::TableAlreadyExists`] on a
    /// `table_name` collision.
    pub fn score_into<S: Scorer + ?Sized>(
        &self,
        scorer: &S,
        database: &Database,
        table_name: &str,
    ) -> Result<()> {
        let (predictions, per_segment, _) = self.score_ranged("score_into", scorer)?;
        let column = Column::new("prediction", scorer.output_type());
        let mut predictions = predictions.into_iter();
        // Each segment's predictions become that segment's chunks directly:
        // one typed column, built a chunk's worth at a time.
        let segment = |mut left: usize| -> Result<Segment> {
            let mut chunks = Vec::with_capacity(left.div_ceil(CHUNK_CAPACITY));
            while left > 0 {
                let rows = left.min(CHUNK_CAPACITY);
                let mut stored = ColumnChunk::new(column.column_type, rows, 0);
                for value in predictions.by_ref().take(rows) {
                    let pushed = stored.push(value);
                    pushed.map_err(|value| column.type_mismatch(value.type_name()))?;
                }
                chunks.push(Arc::new(RowChunk::from_parts(rows, vec![stored])));
                left -= rows;
            }
            Ok(Segment::from_chunks(chunks))
        };
        let segments = per_segment.into_iter().map(segment);
        let table = Table::from_segments(
            Arc::new(Schema::new(vec![column.clone()])),
            segments.collect::<Result<_>>()?,
            Distribution::RoundRobin,
            0,
            CHUNK_CAPACITY,
        );
        database.register_table(table_name, table)
    }

    /// Scores every filter-surviving row through its *group's* scorer: the
    /// row's composite [`GroupKey`](crate::GroupKey) (over the dataset's
    /// `group_by` columns) selects the scorer in `scorers`, the registry
    /// named `name`, and predictions return in segment-then-row order —
    /// **bit-identical to filtering each group out and scoring it with its
    /// scorer separately**, because per-group chunk gathers preserve row
    /// order and a scorer's predictions are per-row.
    ///
    /// Single-group chunks (the common, clustered case) go straight through
    /// [`Scorer::predict_chunk`]; mixed chunks are counting-sorted by group,
    /// each group's rows gathered into a compacted sub-chunk and scored, and
    /// the predictions scattered back to their row positions.
    ///
    /// # Errors
    /// Propagates predicate, column-lookup and scorer errors and the count
    /// check's [`EngineError::PredictionCount`]; errors when the dataset has
    /// no grouping columns or lists one twice, and with
    /// [`EngineError::ModelNotFound`] (carrying `name`) when a surviving
    /// row's group has no scorer in the registry.
    pub fn score_per_group<S: Scorer>(
        &self,
        name: &str,
        scorers: &GroupedModels<S>,
    ) -> Result<Vec<Value>> {
        let group_indices = self.group_column_indices()?;
        let group_indices = group_indices.as_slice();
        let open_unit = |_| {
            // The unit's directory: key → dense slot into `resolved`.
            let mut directory = SlotDirectory::default();
            let mut resolved: Vec<&S> = Vec::new();
            let mut keyed = IndexSort::default();
            let mut group_predictions: Vec<Value> = Vec::new();
            move |chunk: &RowChunk, schema: &Schema, out: &mut Vec<Value>| {
                directory.key_chunk(chunk, group_indices, &mut keyed, |key| {
                    resolved.push(scorers.require(name, key)?);
                    Ok(())
                })?;
                if let [(slot, _)] = keyed.runs()[..] {
                    return predict(resolved[slot as usize], chunk, schema, out);
                }
                let base = out.len();
                out.resize(base + chunk.len(), Value::Null);
                for (slot, indices) in keyed.sorted() {
                    let sub = chunk.gather_rows(indices);
                    group_predictions.clear();
                    predict(
                        resolved[slot as usize],
                        &sub,
                        schema,
                        &mut group_predictions,
                    )?;
                    for (&row, prediction) in indices.iter().zip(group_predictions.drain(..)) {
                        out[base + row as usize] = prediction;
                    }
                }
                Ok(())
            }
        };
        Ok(self.ranged(true, open_unit)?.0)
    }

    /// The `k` best-scoring rows of the `column` feature vectors against
    /// `query` — k-nearest-neighbour ([`Similarity::Euclidean`]) or
    /// maximum-inner-product ([`Similarity::Dot`]) search, returned
    /// best-first as `(row, score)` pairs.
    ///
    /// Runs as the ranged pass on the batched distance/dot kernels (per-row
    /// fallback for NULL-bearing or ragged chunks, bit-identical by the
    /// kernel contracts).  Rows whose `column` value is NULL are skipped;
    /// ties and NaN scores break deterministically by scan position, so
    /// results never depend on scheduling.  Honors the dataset's filter.
    /// Terminal operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] for `k == 0`, an empty
    /// `query`, or a non-NULL row whose vector width differs from the
    /// query's; [`EngineError::ColumnNotFound`] / type errors for a missing
    /// or non-`double precision[]` column; errors on a grouped dataset.
    pub fn top_k_by_score(
        &self,
        column: &str,
        query: &[f64],
        k: usize,
        metric: Similarity,
    ) -> Result<Vec<(Row, f64)>> {
        Ok(self.top_k_by_score_with_stats(column, query, k, metric)?.0)
    }

    /// Like [`Dataset::top_k_by_score`], additionally returning what the
    /// pass did ([`TopKStats`]).
    ///
    /// Each chunk-range unit keeps a best-first list of at most `k` ranks —
    /// scores and locations, no rows.  Rows reach a unit in scan order, so
    /// once its list is full a row that does not score strictly better than
    /// the list's last entry ranks after it and is turned away on that one
    /// comparison.  The unit lists merge into the global `k`, and only then
    /// are those `k` rows built, each by walking from its unit's first chunk
    /// to its ordinal — through the filter's selection masks when the scan
    /// is filtered, so a row of a compacted batch is found again the same
    /// way as any other.
    ///
    /// # Errors
    /// As [`Dataset::top_k_by_score`].
    pub fn top_k_by_score_with_stats(
        &self,
        column: &str,
        query: &[f64],
        k: usize,
        metric: Similarity,
    ) -> Result<(Vec<(Row, f64)>, TopKStats)> {
        self.require_ungrouped_serving("top_k_by_score")?;
        if k == 0 {
            return Err(EngineError::invalid("top_k_by_score: k must be positive"));
        }
        if query.is_empty() {
            return Err(EngineError::invalid(
                "top_k_by_score: query vector must be non-empty",
            ));
        }
        let column_idx = self.schema().index_of(column)?;
        let offered = AtomicU64::new(0);
        let open_unit = |range: ChunkRange| {
            let offered = &offered;
            let mut ordinal = 0;
            let mut scores: Vec<f64> = Vec::new();
            // The unit's output vector is its best-first list.  `offer`
            // takes a row that ranks before the list's last entry, or any
            // row while the list is short, and returns the key a later row
            // must beat once the list is full.
            let offer = move |best: &mut Vec<Rank>, ordinal: usize, score: f64| {
                if best.len() == k {
                    best.pop();
                }
                // Every kept rank came earlier in the unit: a tie goes after it.
                let key = metric.key(score);
                let at = best.partition_point(|kept| metric.key(kept.score) >= key);
                let rank = Rank {
                    score,
                    segment: range.segment,
                    chunk_lo: range.chunk_lo,
                    ordinal,
                };
                best.insert(at, rank);
                offered.fetch_add(1, AtomicOrdering::Relaxed);
                (best.len() == k).then(|| metric.key(best[k - 1].score))
            };
            move |chunk: &RowChunk, _: &Schema, best: &mut Vec<Rank>| {
                let arrays = chunk.double_arrays(column_idx)?;
                let mut kth = (best.len() == k).then(|| metric.key(best[k - 1].score));
                if !arrays.nulls().any_null() && arrays.uniform_width() == Some(query.len()) {
                    scores.resize(chunk.len(), 0.0);
                    metric.score_batch(arrays.flat_values(), query, &mut scores);
                    for (i, &score) in scores.iter().enumerate() {
                        if kth.is_none_or(|kth| metric.key(score) > kth) {
                            kth = offer(best, ordinal + i, score);
                        }
                    }
                } else {
                    for i in 0..chunk.len() {
                        if arrays.nulls().is_null(i) {
                            continue;
                        }
                        let x = arrays.row(i);
                        check_query_width(x, query)?;
                        let score = metric.score_row(x, query);
                        if kth.is_none_or(|kth| metric.key(score) > kth) {
                            kth = offer(best, ordinal + i, score);
                        }
                    }
                }
                ordinal += chunk.len();
                Ok(())
            }
        };
        let (mut ranks, _, scan) = self.ranged(false, open_unit)?;
        ranks.sort_unstable_by_key(|rank| rank.order(metric));
        ranks.truncate(k);
        let table = self.table();
        let mut best = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let chunks = &table.segment(rank.segment).chunks()[rank.chunk_lo..];
            let row = self.nth_row_in(chunks, &mut { rank.ordinal })?;
            best.push((row.expect("a ranked row is in its unit"), rank.score));
        }
        let stats = TopKStats {
            scan,
            rows_offered: offered.into_inner(),
            rows_materialized: best.len() as u64,
        };
        Ok((best, stats))
    }
}

/// Errors when a non-NULL vector's width differs from the query's.
fn check_query_width(x: &[f64], query: &[f64]) -> Result<()> {
    if x.len() != query.len() {
        return Err(EngineError::invalid(format!(
            "top_k_by_score: row vector has length {}, query has length {}",
            x.len(),
            query.len()
        )));
    }
    Ok(())
}
