//! In-engine model serving: the scoring half of the MADlib calling
//! convention.
//!
//! Training (PRs 3–7) runs inside the engine — one `Session::train` call per
//! model, executed as chunked, work-stealing scans.  This module gives
//! *prediction* the same treatment, instead of leaving it as ad-hoc per-row
//! `predict` loops outside the scan pipeline:
//!
//! - [`Scorer`] is the serving analogue of [`crate::aggregate::Aggregate`]: a
//!   per-row [`Scorer::predict_row`] contract plus an optional vectorized
//!   [`Scorer::predict_chunk`] override that must be **bit-identical** to the
//!   row loop (the method library rides the `batch_dot` /
//!   `batch_closest_column` kernel tiers for its overrides).
//! - [`Dataset::score`] runs a scorer over the dataset's filter-surviving
//!   rows as a chunked, work-stealing scan pass, returning one prediction
//!   [`Value`] per row in segment-then-row order;
//!   [`Dataset::score_into`] materializes the predictions as a one-column
//!   table registered in the catalog (segment placement preserved).
//! - [`Dataset::score_per_group`] serves a *grouped* registry
//!   ([`GroupScorers`], e.g. a `train_grouped` output from the model
//!   catalog): each row routes to its composite-[`GroupKey`] group's model,
//!   bit-identical to filtering each group out and scoring it separately.
//!   Routing is [`crate::group`]'s keying pass and index sort — the same
//!   code grouped aggregation runs — with "open a slot" meaning "resolve the
//!   group's scorer, or fail with [`EngineError::ModelNotFound`]".
//! - [`Dataset::top_k_by_score`] is k-nearest-neighbour / vector-similarity
//!   search over a `double precision[]` column on the same batched kernels —
//!   the first pure *serving* workload with no training step at all.

use crate::chunk::{ColumnChunk, RowChunk, Segment, CHUNK_CAPACITY};
use crate::database::Database;
use crate::dataset::Dataset;
use crate::error::{EngineError, Result};
use crate::group::{GroupKey, IndexSort, SlotDirectory};
use crate::row::Row;
use crate::scan;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Distribution, Table};
use crate::value::Value;
use madlib_linalg::kernels;
use std::sync::Arc;

/// A model that can score rows — the serving-side counterpart of
/// [`crate::aggregate::Aggregate`].
///
/// Implementations define the per-row contract ([`Scorer::predict_row`]);
/// [`Scorer::predict_chunk`] has a default per-row fallback and may be
/// overridden with a vectorized implementation, which **must produce
/// bit-identical predictions (and identical errors) to the row loop** — the
/// same contract the aggregate `transition_chunk` overrides obey.  That
/// bit-identity is what lets [`Dataset::score`] batch whatever a chunk holds
/// — a stored chunk, a compacted one, one group's gather — under any chunk
/// split and kernel tier without changing results.
pub trait Scorer: Sync {
    /// Column type of the predictions this scorer emits (the schema of the
    /// materialized predictions column).
    fn output_type(&self) -> ColumnType;

    /// Scores one materialized row.
    ///
    /// # Errors
    /// Implementation-defined (e.g. a feature-width mismatch).
    fn predict_row(&self, row: &Row, schema: &Schema) -> Result<Value>;

    /// Scores every row of a column-major chunk, appending exactly
    /// `chunk.len()` predictions to `out` in row order.
    ///
    /// The default delegates to [`Scorer::predict_row`] row by row; override
    /// it to batch through vectorized kernels (bit-identically).
    ///
    /// # Errors
    /// Must fail exactly when (and how) the per-row loop would fail first.
    fn predict_chunk(&self, chunk: &RowChunk, schema: &Schema, out: &mut Vec<Value>) -> Result<()> {
        predict_chunk_rows(self, chunk, schema, out)
    }
}

/// The default per-row scoring loop over a chunk — public so vectorized
/// [`Scorer::predict_chunk`] overrides can fall back to it verbatim for the
/// shapes their kernels cannot batch (NULL-bearing or ragged feature
/// columns), keeping the fallback path shared instead of re-implemented.
///
/// # Errors
/// Propagates the first [`Scorer::predict_row`] error in row order.
pub fn predict_chunk_rows<S: Scorer + ?Sized>(
    scorer: &S,
    chunk: &RowChunk,
    schema: &Schema,
    out: &mut Vec<Value>,
) -> Result<()> {
    let mut values = Vec::with_capacity(chunk.arity());
    out.reserve(chunk.len());
    for i in 0..chunk.len() {
        chunk.read_row_into(i, &mut values);
        let row = Row::new(std::mem::take(&mut values));
        out.push(scorer.predict_row(&row, schema)?);
        values = row.into_values();
    }
    Ok(())
}

/// A named per-group scorer registry: one scorer per composite [`GroupKey`],
/// sorted by key — the servable shape of a `train_grouped` output.
/// [`Dataset::score_per_group`] routes each row to its group's scorer and
/// reports a missing group as a typed [`EngineError::ModelNotFound`] carrying
/// the registry's name.
#[derive(Debug, Clone)]
pub struct GroupScorers<S> {
    name: String,
    scorers: Vec<(GroupKey, S)>,
}

impl<S> GroupScorers<S> {
    /// Builds a registry from `(key, scorer)` pairs, sorting by key.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] when two pairs share a key —
    /// routing would be ambiguous.
    pub fn new(name: impl Into<String>, mut scorers: Vec<(GroupKey, S)>) -> Result<Self> {
        scorers.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(pair) = scorers.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(EngineError::invalid(format!(
                "duplicate group key {:?} in grouped scorer registry",
                pair[0].0
            )));
        }
        Ok(Self {
            name: name.into(),
            scorers,
        })
    }

    /// The registry's name (used in [`EngineError::ModelNotFound`] errors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.scorers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.scorers.is_empty()
    }

    /// The scorer for `key`, if present (binary search over the sorted keys).
    pub fn get(&self, key: &GroupKey) -> Option<&S> {
        self.scorers
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|idx| &self.scorers[idx].1)
    }

    /// Iterates `(key, scorer)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(GroupKey, S)> {
        self.scorers.iter()
    }
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
    /// Whether `a` ranks strictly better than `b` under this metric.
    /// Uses `f64::total_cmp`, so NaN scores order deterministically (they
    /// rank worst under [`Similarity::Dot`] and best-after-nothing under
    /// [`Similarity::Euclidean`]'s ascending order — but never flap).
    fn ranks_before(self, a: f64, b: f64) -> bool {
        match self {
            Similarity::Dot => a.total_cmp(&b).is_gt(),
            Similarity::Euclidean => a.total_cmp(&b).is_lt(),
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

/// Where a scored row stands among all others: its score, then its scan
/// position — (segment, surviving-row ordinal within the segment scan), a
/// pure function of the dataset, never of scheduling.
#[derive(Clone, Copy)]
struct Rank {
    score: f64,
    segment: usize,
    ordinal: usize,
}

impl Rank {
    /// Total order: better score first, then scan position.  Gives every
    /// row a distinct rank, so top-k results are deterministic even with
    /// tied scores.
    fn ranks_before(&self, other: &Rank, metric: Similarity) -> bool {
        if metric.ranks_before(self.score, other.score) {
            return true;
        }
        if metric.ranks_before(other.score, self.score) {
            return false;
        }
        (self.segment, self.ordinal) < (other.segment, other.ordinal)
    }
}

/// One k-NN candidate while a segment scan is in flight.
struct Candidate {
    rank: Rank,
    row: Row,
}

/// Offers a row to a best-first list bounded at `k` entries; `row`
/// materializes it, and runs only when the row enters the list.
fn offer(
    best: &mut Vec<Candidate>,
    k: usize,
    metric: Similarity,
    rank: Rank,
    row: impl FnOnce() -> Row,
) {
    // A full list turns away whatever does not rank before its last entry:
    // one comparison, nothing built — where all but a few rows of a scan end.
    if best.len() == k && !rank.ranks_before(&best[k - 1].rank, metric) {
        return;
    }
    let at = best.partition_point(|c| c.rank.ranks_before(&rank, metric));
    best.insert(at, Candidate { rank, row: row() });
    best.truncate(k);
}

impl Dataset<'_> {
    /// Rejects grouped datasets from the ungrouped serving terminals with
    /// guidance pointing at the grouped entry point.
    fn require_ungrouped_serving(&self, operation: &str) -> Result<()> {
        if self.is_grouped() {
            return Err(EngineError::invalid(format!(
                "{operation} over a grouped dataset; use score_per_group with a \
                 GroupScorers registry (e.g. Database::models().grouped_scorers) \
                 for grouped scoring"
            )));
        }
        Ok(())
    }

    /// Scores every filter-surviving row with `scorer`, returning one
    /// prediction per row in segment-then-row order (the same order
    /// [`Dataset::collect_rows`] yields rows, so predictions zip with rows).
    ///
    /// Runs as a chunked, work-stealing scan pass: each (compacted) chunk
    /// goes through [`Scorer::predict_chunk`] (vectorized overrides ride the
    /// kernel tiers), bit-identical to [`Scorer::predict_row`] per row by the
    /// scorer contract.  Terminal operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates predicate and scorer errors; errors on a grouped dataset.
    pub fn score<S: Scorer + ?Sized>(&self, scorer: &S) -> Result<Vec<Value>> {
        self.require_ungrouped_serving("score")?;
        let per_segment = self.score_segments(scorer)?;
        let rows = per_segment.iter().flatten().map(Vec::len).sum();
        let mut out = Vec::with_capacity(rows);
        for mut unit in per_segment.into_iter().flatten() {
            out.append(&mut unit);
        }
        Ok(out)
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
    /// Propagates predicate and scorer errors; errors on a grouped dataset
    /// and on a `table_name` collision
    /// ([`EngineError::TableAlreadyExists`]).
    pub fn score_into<S: Scorer + ?Sized>(
        &self,
        scorer: &S,
        database: &Database,
        table_name: &str,
    ) -> Result<()> {
        self.require_ungrouped_serving("score_into")?;
        let per_segment = self.score_segments(scorer)?;
        let column = Column::new("prediction", scorer.output_type());
        // Each segment's predictions become that segment's chunks directly:
        // one typed column, built a chunk's worth at a time.
        let segment = |units: Vec<Vec<Value>>| -> Result<Segment> {
            let mut left: usize = units.iter().map(Vec::len).sum();
            let mut chunks = Vec::with_capacity(left.div_ceil(CHUNK_CAPACITY));
            let mut predictions = units.into_iter().flatten();
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

    /// The shared scan pass behind [`Dataset::score`] and
    /// [`Dataset::score_into`]: per segment, the prediction vectors of its
    /// scan units in range order — concatenated, the segment's predictions
    /// in row order, unconditionally identical to the whole-segment scan.
    /// Chunk-range stealing spreads hot segments across workers; a unit's
    /// vector is sized once for its rows and never copied on the way out (the
    /// per-segment lists move the vectors, not their predictions).
    fn score_segments<S: Scorer + ?Sized>(&self, scorer: &S) -> Result<Vec<Vec<Vec<Value>>>> {
        let schema = self.schema();
        let filter = self.filter_predicate();
        let per_segment = scan::run_per_segment_ranged(
            self.table(),
            self.executor().is_parallel(),
            |range, segment| {
                let chunks = range.chunks(segment);
                let mut out = Vec::with_capacity(chunks.iter().map(|chunk| chunk.len()).sum());
                scan::scan_chunks(chunks, schema, filter, None, |batch| {
                    scorer.predict_chunk(batch.chunk(), schema, &mut out)
                })?;
                Ok(vec![out])
            },
            |mut left, right| {
                left.extend(right);
                left
            },
        );
        per_segment.into_iter().collect()
    }

    /// Scores every filter-surviving row through its *group's* scorer: the
    /// row's composite [`GroupKey`] (over the dataset's `group_by` columns)
    /// selects the model in `scorers`, and predictions return in
    /// segment-then-row order — **bit-identical to filtering each group out
    /// and scoring it with its model separately**, because per-group chunk
    /// gathers preserve row order and the scorer contract is per-row pure.
    ///
    /// Single-group chunks (the common, clustered case) batch straight
    /// through [`Scorer::predict_chunk`]; mixed chunks are counting-sorted
    /// by group, each group's rows gathered into a compacted sub-chunk,
    /// batch-scored, and the predictions scattered back to their row
    /// positions.
    ///
    /// # Errors
    /// Propagates predicate, column-lookup and scorer errors; errors when
    /// the dataset has no grouping columns or lists one twice, and with
    /// [`EngineError::ModelNotFound`] when a surviving row's group has no
    /// scorer in the registry.
    pub fn score_per_group<S: Scorer>(&self, scorers: &GroupScorers<S>) -> Result<Vec<Value>> {
        let schema = self.schema();
        let group_indices = self.group_column_indices()?;
        let group_indices = group_indices.as_slice();
        let filter = self.filter_predicate();
        let per_segment = scan::run_per_segment_ranged(
            self.table(),
            self.executor().is_parallel(),
            |range, segment| {
                let mut out = Vec::new();
                let chunks = range.chunks(segment);
                score_chunks_grouped(scorers, chunks, schema, group_indices, filter, &mut out)?;
                Ok(out)
            },
            |mut left, right: Vec<Value>| {
                left.extend(right);
                left
            },
        );
        let mut out = Vec::with_capacity(self.table().row_count());
        for res in per_segment {
            out.extend(res?);
        }
        Ok(out)
    }

    /// The `k` best-scoring rows of the `column` feature vectors against
    /// `query` — k-nearest-neighbour ([`Similarity::Euclidean`]) or
    /// maximum-inner-product ([`Similarity::Dot`]) search, returned
    /// best-first as `(row, score)` pairs.
    ///
    /// Runs as a segment-parallel scan on the batched distance/dot kernels
    /// (per-row fallback for NULL-bearing or ragged chunks, bit-identical by
    /// the kernel contracts).  Rows whose `column` value is NULL are skipped;
    /// ties and NaN scores break deterministically by scan position, so
    /// results never depend on scheduling.  Honors the
    /// dataset's filter.  Terminal operation; requires an ungrouped dataset.
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
        self.require_ungrouped_serving("top_k_by_score")?;
        if k == 0 {
            return Err(EngineError::invalid("top_k_by_score: k must be positive"));
        }
        if query.is_empty() {
            return Err(EngineError::invalid(
                "top_k_by_score: query vector must be non-empty",
            ));
        }
        let schema = self.schema();
        let column_idx = schema.index_of(column)?;
        let filter = self.filter_predicate();
        let per_segment = scan::run_per_segment(
            self.table(),
            self.executor().is_parallel(),
            |seg, segment| {
                let mut best: Vec<Candidate> = Vec::new();
                let mut ordinal = 0usize;
                let mut scores: Vec<f64> = Vec::new();
                scan::scan_chunks(segment.chunks(), schema, filter, None, |batch| {
                    let chunk = batch.chunk();
                    let arrays = chunk.double_arrays(column_idx)?;
                    if !arrays.nulls().any_null() && arrays.uniform_width() == Some(query.len()) {
                        scores.resize(chunk.len(), 0.0);
                        metric.score_batch(arrays.flat_values(), query, &mut scores);
                        for (i, &score) in scores.iter().enumerate() {
                            let rank = Rank {
                                score,
                                segment: seg,
                                ordinal,
                            };
                            ordinal += 1;
                            offer(&mut best, k, metric, rank, || chunk.row(i));
                        }
                    } else {
                        for i in 0..chunk.len() {
                            if arrays.nulls().is_null(i) {
                                ordinal += 1;
                                continue;
                            }
                            let x = arrays.row(i);
                            check_query_width(x, query)?;
                            let rank = Rank {
                                score: metric.score_row(x, query),
                                segment: seg,
                                ordinal,
                            };
                            ordinal += 1;
                            offer(&mut best, k, metric, rank, || chunk.row(i));
                        }
                    }
                    Ok(())
                })?;
                Ok(best)
            },
        );
        // Merge the per-segment top-k lists (each sorted best-first) into
        // the global best-first list and truncate to k.
        let mut merged: Vec<Candidate> = Vec::new();
        for res in per_segment {
            for Candidate { rank, row } in res? {
                offer(&mut merged, k, metric, rank, || row);
            }
        }
        let scored = |c: Candidate| (c.row, c.rank.score);
        Ok(merged.into_iter().map(scored).collect())
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

/// Opens a new scorer slot: looks `key` up in the registry and appends its
/// scorer to `resolved`, or reports the group as a typed
/// [`EngineError::ModelNotFound`].
fn resolve_scorer<'a, S>(
    scorers: &'a GroupScorers<S>,
    key: &GroupKey,
    resolved: &mut Vec<&'a S>,
) -> Result<()> {
    let scorer = scorers.get(key).ok_or_else(|| EngineError::ModelNotFound {
        name: scorers.name().to_owned(),
        group: Some(format!("{key:?}")),
    })?;
    resolved.push(scorer);
    Ok(())
}

/// The chunked grouped scoring pass over one range of chunks: the keying
/// pass ([`SlotDirectory::key_chunk`]) routes every row to its scorer slot,
/// then single-scorer chunks batch straight through `predict_chunk` while
/// mixed chunks are sorted by slot, gathered per group (row order preserved)
/// and their predictions scattered back to row positions.
fn score_chunks_grouped<S: Scorer>(
    scorers: &GroupScorers<S>,
    chunks: &[std::sync::Arc<RowChunk>],
    schema: &Schema,
    group_indices: &[usize],
    filter: Option<&crate::expr::Predicate>,
    out: &mut Vec<Value>,
) -> Result<()> {
    // Range-level directory: key → dense slot into `resolved` scorers.
    let mut directory = SlotDirectory::default();
    let mut resolved: Vec<&S> = Vec::new();
    let mut keyed = IndexSort::default();
    let mut group_predictions: Vec<Value> = Vec::new();

    scan::scan_chunks(chunks, schema, filter, None, |batch| {
        let chunk = batch.chunk();
        directory.key_chunk(chunk, group_indices, &mut keyed, |key| {
            resolve_scorer(scorers, key, &mut resolved)
        })?;

        if let [(slot, _)] = keyed.runs()[..] {
            // Single-group chunk: the whole chunk is one batch.
            return resolved[slot as usize].predict_chunk(chunk, schema, out);
        }

        // Mixed chunk: gather each group's rows (in row order) into a
        // compacted sub-chunk, batch-score it, and scatter the predictions
        // back to row positions.
        let base = out.len();
        out.resize(base + chunk.len(), Value::Null);
        for (slot, indices) in keyed.sorted() {
            let sub = chunk.gather_rows(indices);
            group_predictions.clear();
            resolved[slot as usize].predict_chunk(&sub, schema, &mut group_predictions)?;
            debug_assert_eq!(group_predictions.len(), indices.len());
            for (&row_idx, prediction) in indices.iter().zip(group_predictions.drain(..)) {
                out[base + row_idx as usize] = prediction;
            }
        }
        Ok(())
    })?;
    Ok(())
}
