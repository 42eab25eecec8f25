//! Lazy, composable scan descriptions — the engine half of the MADlib-style
//! uniform calling convention.
//!
//! MADlib's defining interface decision (paper Sections 3–4) is that every
//! method is invoked the same way: `method_train(source_table, output,
//! dep_var, indep_vars, grouping_cols)` — one call, optionally one model
//! *per group*.  [`Dataset`] is the Rust shape of the first half of that
//! convention: a description of *which rows* a computation runs over —
//! a source table, an optional predicate (the `WHERE` clause) and optional
//! grouping columns (`grouping_cols`) — built lazily.  A dataset owns a
//! snapshot of its table (a clone that shares every chunk buffer), so rows
//! appended to the source after it was opened never reach its scans:
//!
//! ```
//! # use madlib_engine::{Database, Column, ColumnType, Schema, Value, row};
//! # use madlib_engine::expr::Predicate;
//! # use madlib_engine::aggregate::CountAggregate;
//! # let db = Database::new(2).unwrap();
//! # db.create_table("patients", Schema::new(vec![
//! #     Column::new("hospital", ColumnType::Text),
//! #     Column::new("age", ColumnType::Double),
//! # ])).unwrap();
//! # db.with_table_mut("patients", |t| t.insert(row!["a", 40.0])).unwrap();
//! let per_hospital = db
//!     .dataset("patients")
//!     .unwrap()
//!     .filter(Predicate::column_gt("age", 18.0))
//!     .group_by(["hospital"])
//!     .aggregate_per_group(&CountAggregate)
//!     .unwrap();
//! ```
//!
//! Nothing is scanned until a *terminal operation* runs: [`Dataset::aggregate`],
//! [`Dataset::aggregate_per_group`], [`Dataset::map_chunks`],
//! [`Dataset::map_rows`], [`Dataset::collect_rows`], [`Dataset::nth_row`] or
//! [`Dataset::gather_groups`].  All of them dispatch onto the shared
//! [`crate::scan`] pipeline (segment fan-out, chunk-level predicate masks,
//! compaction), under the [`Executor`] the dataset is bound to; each has one
//! scan body, chunk at a time, and [`crate::reference`] holds the per-row
//! meaning the aggregate terminals reproduce.  The aggregate terminals are
//! "fan out every scan unit, fold the unit states, finalize" over the
//! crate-private `fold` module — the same unit runners and merge hierarchy a
//! [`crate::materialize::MaterializedAggregate`] keeps its states with.
//!
//! The grouped terminal runs the segment-parallel, chunk-at-a-time hash
//! grouping introduced in PR 2 (typed [`GroupKey`]s, counting-sort
//! partitioning, per-group gathers through
//! [`crate::chunk::RowChunk::gather_rows`]); it is the *only* grouped-scan
//! entry point — the old `Executor` method matrix has been removed.
//! `grouping_cols` is an arbitrary column *list*, as in the paper:
//! `group_by(["a", "b"])` keys every group by the composite tuple of its
//! columns' values (one [`crate::group::KeyPart`] per column).  When a chunk
//! splinters into more groups than batching pays for, the scan switches to a
//! radix partition pass: each row is bucketed by its group slot, bucket rows
//! are staged across chunks (cheap columnar copies, no [`Row`]
//! materialization) and flushed through [`Aggregate::transition_chunk`] one
//! group at a time — so even the ≥1-group-per-chunk-row regime runs on the
//! vectorized kernels, bit-identical to the row loop.

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::executor::{ExecutionStats, Executor};
use crate::expr::Predicate;
use crate::fold::{self, GroupedUnit};
use crate::group::{self, GroupKey, IndexSort, SlotDirectory};
use crate::row::Row;
use crate::scan;
use crate::schema::Schema;
use crate::table::{Distribution, Table};
use madlib_linalg::kernels;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A lazy, composable description of a scan: a source table plus an optional
/// row predicate and optional grouping columns, bound to the [`Executor`]
/// that will run it.
///
/// A dataset owns a snapshot of its table: [`Dataset::from_table`] clones
/// the table, which shares every chunk buffer and costs one pointer per
/// segment, so appends to (or a truncation or drop of) the source after
/// that never change what the dataset scans.
#[derive(Debug, Clone)]
pub struct Dataset {
    table: Table,
    filter: Option<Predicate>,
    group_columns: Vec<String>,
    /// The executor bound with [`Dataset::with_executor`] or
    /// [`Dataset::with_default_executor`]; `None` runs under
    /// [`Executor::new`].
    executor: Option<Executor>,
}

impl Dataset {
    /// Creates a dataset over a snapshot of `table`, with no filter or
    /// grouping and no executor bound (so it runs under the default
    /// parallel chunk-at-a-time executor).
    pub fn from_table(table: &Table) -> Dataset {
        Dataset {
            table: table.clone(),
            filter: None,
            group_columns: Vec::new(),
            executor: None,
        }
    }

    /// Restricts the dataset to rows accepted by `predicate`.  Chaining
    /// filters composes with AND.
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filter = Some(match self.filter.take() {
            None => predicate,
            Some(existing) => existing.and(predicate),
        });
        self
    }

    /// Sets the grouping columns (the paper's `grouping_cols` — an arbitrary
    /// column list).  Grouped terminals evaluate their aggregate once per
    /// distinct *composite* group key: one [`crate::group::KeyPart`] per
    /// column, compared tuple-wise.
    ///
    /// The builder stays infallible; column names are resolved by the
    /// terminal operations, which report unknown or duplicate columns (and
    /// an empty list) as typed [`EngineError`]s.
    #[must_use]
    pub fn group_by<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_columns = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Binds the dataset to a specific executor (parallel or serial),
    /// replacing any bound before.  An executor bound here sticks: a
    /// training session runs this dataset under it instead of its own.
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Binds `executor` only if none is bound yet: how a training session
    /// applies its own, so that one bound with [`Dataset::with_executor`]
    /// wins over the session's, which wins over [`Executor::new`].
    #[must_use]
    pub fn with_default_executor(mut self, executor: Executor) -> Self {
        self.executor.get_or_insert(executor);
        self
    }

    /// The same dataset: a clone, which shares the table's chunk buffers.
    // Only `benchmark/src` calls this (7 calls); ROADMAP item 7 deletes it.
    #[doc(hidden)]
    pub fn reborrow(&self) -> Dataset {
        self.clone()
    }

    /// The source table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The source table's schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// The composed row predicate, if any.
    pub fn filter_predicate(&self) -> Option<&Predicate> {
        self.filter.as_ref()
    }

    /// The grouping columns (empty when ungrouped).
    pub fn group_columns(&self) -> &[String] {
        &self.group_columns
    }

    /// Whether the dataset has grouping columns.
    pub fn is_grouped(&self) -> bool {
        !self.group_columns.is_empty()
    }

    /// The executor this dataset runs under: the one bound, else
    /// [`Executor::new`].
    pub fn executor(&self) -> Executor {
        self.executor.unwrap_or_else(Executor::new)
    }

    /// Resolves the grouping columns to schema indices, validating the list
    /// (see [`group::group_column_indices`]).
    pub(crate) fn group_column_indices(&self) -> Result<Vec<usize>> {
        group::group_column_indices(self.schema(), &self.group_columns)
    }

    pub(crate) fn require_ungrouped(&self, operation: &str) -> Result<()> {
        if self.is_grouped() {
            return Err(EngineError::invalid(format!(
                "{operation} over a grouped dataset; use aggregate_per_group \
                 (or Session::train_grouped) for grouped evaluation"
            )));
        }
        Ok(())
    }

    /// Runs `aggregate` over the dataset's (filtered) rows and returns the
    /// finalized output.  Terminal operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates aggregate and predicate errors; errors on a grouped
    /// dataset.
    pub fn aggregate<A: Aggregate>(&self, aggregate: &A) -> Result<A::Output> {
        Ok(self.aggregate_with_stats(aggregate)?.0)
    }

    /// Like [`Dataset::aggregate`], additionally returning scan statistics.
    ///
    /// # Errors
    /// Propagates aggregate and predicate errors; errors on a grouped
    /// dataset.
    pub fn aggregate_with_stats<A: Aggregate>(
        &self,
        aggregate: &A,
    ) -> Result<(A::Output, ExecutionStats)> {
        self.require_ungrouped("ungrouped aggregation")?;
        let (segments, stats) = fold::scan_units(
            aggregate,
            self.table(),
            &self.executor(),
            self.filter.as_ref(),
        )?;
        let state = fold::fold_units(aggregate, segments);
        Ok((aggregate.finalize(state)?, stats))
    }

    /// Runs `aggregate` once per distinct group key, returning the finalized
    /// per-group outputs sorted by key ([`GroupKey`]'s total order, NULL
    /// group first; composite keys compare tuple-wise).  Groups with no
    /// (filter-surviving) rows are absent.
    ///
    /// The grouping is evaluated per segment on the shared scan pipeline and
    /// the per-segment group states merged in segment order, so the
    /// data-parallel structure is identical to the ungrouped path — this is
    /// what lets MADlib train e.g. one regression per group in a single pass
    /// (Section 4.2's grouping constructs).  Each chunk is partitioned by
    /// key and every group's rows are gathered, in row order, into a
    /// compacted sub-chunk for [`Aggregate::transition_chunk`]; when a chunk
    /// has too many groups for direct gathers to pay off, its rows are
    /// instead staged into group-slot radix buckets and flushed in batches,
    /// so high-cardinality scans stay on the vectorized kernels
    /// (bit-identical results either way).
    ///
    /// After the merge, the per-group **finalize** stage runs on the same
    /// work-stealing worker pool as the scan (groups are independent):
    /// outputs land in per-group slots and are reassembled in key order, and
    /// each finalize worker reuses one [`crate::FinalizeScratch`] across all
    /// the groups it claims, so results are bit-identical to the serial
    /// finalize loop regardless of scheduling.
    ///
    /// # Errors
    /// Propagates aggregate, predicate and column-lookup errors; errors when
    /// the dataset has no grouping columns or lists one twice.  A finalize
    /// worker panic surfaces as [`crate::EngineError::WorkerPanicked`].
    pub fn aggregate_per_group<A: Aggregate>(
        &self,
        aggregate: &A,
    ) -> Result<Vec<(GroupKey, A::Output)>>
    where
        A::Output: Send,
    {
        let segments = fold::scan_grouped_units(
            aggregate,
            self.table(),
            &self.executor(),
            self.group_column_indices()?,
            self.filter.as_ref(),
        )?;
        let states = segments.into_iter().flat_map(GroupedUnit::into_states);
        fold::fold_groups(aggregate, states, self.executor().is_parallel())
    }

    /// Applies `map` once per column-major chunk of filter-surviving rows
    /// (per segment, in parallel) and concatenates the outputs in
    /// segment-then-row order.  Partially selected chunks arrive compacted,
    /// so `map` only ever sees rows that passed the filter.  Terminal
    /// operation; requires an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates predicate errors and errors returned by `map`.
    pub fn map_chunks<T, F>(&self, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&RowChunk, &Schema) -> Result<Vec<T>> + Sync,
    {
        self.require_ungrouped("chunk projection")?;
        let sink = |_| {
            |chunk: &RowChunk, schema: &Schema, out: &mut Vec<T>| {
                out.append(&mut map(chunk, schema)?);
                Ok(())
            }
        };
        Ok(self.ranged(false, sink)?.0)
    }

    /// The one order-preserving pass behind [`Dataset::map_chunks`] and the
    /// scoring terminals (top-k included): every filter-surviving chunk, in
    /// chunk-range units on the work-stealing pool
    /// ([`scan::run_per_segment_ranged`]), goes through a sink that
    /// `open_unit` makes once per unit from the unit's range and that
    /// appends the chunk's outputs to its unit's vector.  Returns the
    /// outputs in segment-then-row order — each unit's vector copied once,
    /// into that result — with the number each segment produced and the
    /// pass's [`ExecutionStats`] (each unit timed with two clock reads).
    /// `one_per_row` says the sink appends one output per row, so a unit's
    /// vector is allocated once for its rows.
    ///
    /// # Errors
    /// The earliest failing unit's error in segment-then-range order:
    /// predicate and sink errors, and worker panics as
    /// [`EngineError::WorkerPanicked`].
    pub(crate) fn ranged<T, F>(
        &self,
        one_per_row: bool,
        open_unit: impl Fn(scan::ChunkRange) -> F + Sync,
    ) -> Result<(Vec<T>, Vec<usize>, ExecutionStats)>
    where
        T: Send,
        F: FnMut(&RowChunk, &Schema, &mut Vec<T>) -> Result<()>,
    {
        let (schema, filter) = (self.schema(), self.filter.as_ref());
        let parallel = self.executor().is_parallel();
        let run_unit = |range: scan::ChunkRange, segment: &Segment| {
            let start = Instant::now();
            let chunks = range.chunks(segment);
            let rows = chunks.iter().map(|chunk| chunk.len());
            let mut out = Vec::with_capacity(if one_per_row { rows.sum() } else { 0 });
            let mut sink = open_unit(range);
            let stats = scan::scan_chunks(chunks, schema, filter, None, |batch| {
                sink(batch.chunk(), schema, &mut out)
            })?;
            Ok((out, stats, start.elapsed()))
        };
        let filtered = filter.is_some();
        let per_segment = scan::run_per_segment_ranged(self.table(), parallel, filtered, run_unit);
        let mut stats = ExecutionStats {
            rows_scanned: 0,
            rows_aggregated: 0,
            segments: self.table().num_segments(),
            kernel_path: kernels::active_path(),
            busy_ns: 0,
        };
        let mut units = Vec::new();
        let mut per_segment_outputs = Vec::with_capacity(stats.segments);
        for segment in per_segment {
            let mut outputs = 0;
            for (out, unit_stats, busy) in segment? {
                stats.rows_scanned += unit_stats.rows_scanned;
                stats.rows_aggregated += unit_stats.rows_passed;
                stats.busy_ns += busy.as_nanos() as u64;
                outputs += out.len();
                units.push(out);
            }
            per_segment_outputs.push(outputs);
        }
        let mut outputs = Vec::with_capacity(per_segment_outputs.iter().sum());
        for mut unit in units {
            outputs.append(&mut unit);
        }
        Ok((outputs, per_segment_outputs, stats))
    }

    /// Applies `map` to every filter-surviving row (per segment, in
    /// parallel), concatenating outputs in segment-then-row order.  The
    /// row-level adapter over [`Dataset::map_chunks`].
    ///
    /// # Errors
    /// Propagates predicate errors and errors returned by `map`.
    pub fn map_rows<T, F>(&self, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Row, &Schema) -> Result<T> + Sync,
    {
        self.map_chunks(|chunk, schema| {
            let mut out = Vec::with_capacity(chunk.len());
            let mut values = Vec::with_capacity(chunk.arity());
            for i in 0..chunk.len() {
                chunk.read_row_into(i, &mut values);
                let row = Row::new(std::mem::take(&mut values));
                out.push(map(&row, schema)?);
                values = row.into_values();
            }
            Ok(out)
        })
    }

    /// Materializes the filter-surviving rows in segment order.  Terminal
    /// operation; requires an ungrouped dataset.  Intended for small results
    /// and tests — large scans should stay on the aggregate/map terminals.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub fn collect_rows(&self) -> Result<Vec<Row>> {
        self.map_rows(|row, _| Ok(row.clone()))
    }

    /// The first filter-surviving row in segment order, if any; used by
    /// drivers that probe the input shape (e.g. the feature width) before
    /// iterating.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub fn first_row(&self) -> Result<Option<Row>> {
        self.nth_row(0)
    }

    /// The filter-surviving row at `position` in segment-then-row order —
    /// the row [`Dataset::collect_rows`] holds at that index — or `None` when
    /// fewer rows survive.  Serial and chunk-at-a-time: the filter runs once
    /// per chunk, chunks before the target are skipped by their selected-row
    /// count, and only the one row is materialized, so a driver that has
    /// *chosen* a row by its scan position (k-means seeding) fetches it
    /// without holding the table's rows.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub fn nth_row(&self, position: usize) -> Result<Option<Row>> {
        let table = self.table();
        let mut remaining = position;
        for segment in (0..table.num_segments()).map(|s| table.segment(s)) {
            if let Some(row) = self.nth_row_in(segment.chunks(), &mut remaining)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// The filter-surviving row `*position` rows into `chunks`, if they hold
    /// that many; otherwise `None`, with `*position` lowered by the rows they
    /// do hold.  The filter runs once per chunk and chunks before the row
    /// are skipped by their selected-row count.
    ///
    /// # Errors
    /// Propagates predicate errors.
    pub(crate) fn nth_row_in(
        &self,
        chunks: &[Arc<RowChunk>],
        position: &mut usize,
    ) -> Result<Option<Row>> {
        for chunk in chunks {
            let (index, selected) = match &self.filter {
                None => ((*position < chunk.len()).then_some(*position), chunk.len()),
                Some(predicate) => {
                    let mask = predicate.evaluate_chunk(chunk, self.schema())?;
                    let index = mask.selected_indices().nth(*position);
                    (index, mask.count_selected())
                }
            };
            if let Some(index) = index {
                return Ok(Some(chunk.row(index)));
            }
            *position -= selected;
        }
        Ok(None)
    }

    /// Splits the dataset into one table per group, preserving each row's
    /// original segment (and per-segment row order) so that any scan over a
    /// gathered table is bitwise identical to a scan over the source
    /// filtered down to that group.  Groups are returned sorted by key.
    ///
    /// This is the "per-group gather" used to run *iterative* estimators per
    /// group: single-pass aggregates go through
    /// [`Dataset::aggregate_per_group`] instead and never materialize
    /// per-group storage.
    ///
    /// # Errors
    /// Propagates predicate and column-lookup errors; errors when the
    /// dataset has no grouping columns or lists one twice.
    pub fn gather_groups(&self) -> Result<Vec<(GroupKey, Table)>> {
        let schema = self.schema();
        let group_indices = self.group_column_indices()?;
        let group_indices = group_indices.as_slice();
        let source = self.table();
        let filter = self.filter.as_ref();
        let chunk_capacity = source.chunk_capacity();
        let parallel = self.executor().is_parallel();
        // Per segment, in parallel: key each chunk of filter-surviving rows
        // and append every group's rows — one ascending index run per group —
        // to that group's segment, filling chunks as a table append does.
        let per_segment =
            scan::run_per_segment(source, parallel, filter.is_some(), |_, segment| {
                let mut directory = SlotDirectory::default();
                let mut split: Vec<(GroupKey, Segment)> = Vec::new();
                let mut keyed = IndexSort::default();
                scan::scan_chunks(segment.chunks(), schema, filter, None, |batch| {
                    let chunk = batch.chunk();
                    directory.key_chunk(chunk, group_indices, &mut keyed, |key| {
                        split.push((key.clone(), Segment::default()));
                        Ok::<(), EngineError>(())
                    })?;
                    for (slot, indices) in keyed.sorted() {
                        let group = &mut split[slot as usize].1;
                        group.append_rows(chunk, indices, chunk_capacity);
                    }
                    Ok(())
                })?;
                Ok(split)
            });
        // Assemble the per-group tables: every group's segment `seg` is the
        // one built from source segment `seg`, so every row keeps its
        // original segment and per-segment position.
        let mut groups: BTreeMap<GroupKey, Vec<Segment>> = BTreeMap::new();
        for (seg, res) in per_segment.into_iter().enumerate() {
            for (key, segment) in res? {
                let segments = groups
                    .entry(key)
                    .or_insert_with(|| vec![Segment::default(); source.num_segments()]);
                segments[seg] = segment;
            }
        }
        let groups = groups.into_iter().map(|(key, segments)| {
            let schema = source.shared_schema();
            let placement = Distribution::RoundRobin;
            let table = Table::from_segments(schema, segments, placement, 0, chunk_capacity);
            (key, table)
        });
        Ok(groups.collect())
    }
}

impl Database {
    /// Opens a dataset over a snapshot of the named table (the analogue of
    /// naming a `source_table` in a MADlib call).
    ///
    /// # Errors
    /// Returns [`EngineError::TableNotFound`] for an unknown name.
    pub fn dataset(&self, name: &str) -> Result<Dataset> {
        Ok(Dataset::from_table(&self.table(name)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountAggregate, SumAggregate};
    use crate::reference;
    use crate::row;
    use crate::schema::{Column, ColumnType};
    use crate::value::Value;

    fn make_table(segments: usize, rows: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Text),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        for i in 0..rows {
            let grp = if i % 2 == 0 { "even" } else { "odd" };
            t.insert(row![grp, i as f64, vec![i as f64, 1.0]]).unwrap();
        }
        t
    }

    #[test]
    fn builder_composes_filters_and_grouping() {
        let t = make_table(2, 10);
        let ds = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 1.5))
            .filter(Predicate::column_lt("y", 8.5))
            .group_by(["grp"]);
        assert!(ds.is_grouped());
        assert_eq!(ds.group_columns(), ["grp".to_owned()]);
        // Both filters apply (AND): y in {2..8} → 7 rows.
        let groups = ds.aggregate_per_group(&CountAggregate).unwrap();
        let total: u64 = groups.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn ungrouped_terminals_reject_grouped_datasets() {
        let t = make_table(2, 4);
        let ds = Dataset::from_table(&t).group_by(["grp"]);
        assert!(ds.aggregate(&CountAggregate).is_err());
        assert!(ds.map_rows(|_, _| Ok(())).is_err());
        assert!(ds.collect_rows().is_err());
    }

    #[test]
    fn grouped_terminals_validate_the_column_list() {
        use crate::error::EngineError;

        let t = make_table(2, 4);
        // No grouping columns at all.
        assert!(matches!(
            Dataset::from_table(&t).aggregate_per_group(&CountAggregate),
            Err(EngineError::InvalidArgument { .. })
        ));
        assert!(Dataset::from_table(&t).gather_groups().is_err());
        // Unknown names surface as typed ColumnNotFound at terminal time.
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["nope"])
                .aggregate_per_group(&CountAggregate),
            Err(EngineError::ColumnNotFound { name }) if name == "nope"
        ));
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["grp", "nope"])
                .gather_groups(),
            Err(EngineError::ColumnNotFound { name }) if name == "nope"
        ));
        // Duplicate columns are rejected instead of silently mis-grouping.
        assert!(matches!(
            Dataset::from_table(&t)
                .group_by(["grp", "grp"])
                .aggregate_per_group(&CountAggregate),
            Err(EngineError::InvalidArgument { message }) if message.contains("duplicate")
        ));
        assert!(Dataset::from_table(&t)
            .group_by(["grp", "grp"])
            .gather_groups()
            .is_err());
        // A valid multi-column list works.
        assert!(Dataset::from_table(&t)
            .group_by(["grp", "y"])
            .aggregate_per_group(&CountAggregate)
            .is_ok());
    }

    #[test]
    fn composite_grouping_matches_filtered_runs() {
        let schema = Schema::new(vec![
            Column::new("a", ColumnType::Text),
            Column::new("b", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        for i in 0..53 {
            let a = ["x", "y"][i % 2];
            let b = (i % 3) as i64;
            t.insert(row![a, b, i as f64]).unwrap();
        }
        t.insert(Row::new(vec![
            Value::Null,
            Value::Int(0),
            Value::Double(100.0),
        ]))
        .unwrap();

        let grouped = Dataset::from_table(&t).group_by(["a", "b"]);
        let groups = grouped
            .aggregate_per_group(&SumAggregate::new("v"))
            .unwrap();
        // 2 × 3 live tuples plus the (NULL, 0) group.
        assert_eq!(groups.len(), 7);
        let by_rows = reference::aggregate_per_group(&grouped, &SumAggregate::new("v")).unwrap();
        assert_eq!(groups, by_rows);
        for (key, sum) in &groups {
            assert_eq!(key.arity(), 2);
            let filtered = Dataset::from_table(&t)
                .filter(Predicate::columns_are_key(["a", "b"], key.clone()))
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            assert_eq!(sum.to_bits(), filtered.to_bits());
        }
    }

    #[test]
    fn grouped_aggregation_matches_filtered_runs() {
        let base = make_table(1, 97);
        let mut t = Table::new(base.schema().clone(), 4)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        t.insert_all(base.iter()).unwrap();

        let grouped = Dataset::from_table(&t).group_by(["grp"]);
        let groups = grouped
            .aggregate_per_group(&SumAggregate::new("y"))
            .unwrap();
        assert_eq!(groups.len(), 2);
        let by_rows = reference::aggregate_per_group(&grouped, &SumAggregate::new("y")).unwrap();
        assert_eq!(groups, by_rows);
        for (key, sum) in &groups {
            let filtered = Dataset::from_table(&t)
                .filter(Predicate::column_is_key("grp", key.clone()))
                .aggregate(&SumAggregate::new("y"))
                .unwrap();
            assert_eq!(sum.to_bits(), filtered.to_bits());
        }
    }

    #[test]
    fn grouped_keys_are_typed_not_stringly() {
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Double),
            Column::new("v", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, 2).unwrap();
        // -0.0 and 0.0 must be distinct groups; NaNs must form one group.
        t.insert(row![0.0, 1.0]).unwrap();
        t.insert(row![-0.0, 2.0]).unwrap();
        t.insert(row![f64::NAN, 4.0]).unwrap();
        t.insert(row![f64::NAN, 8.0]).unwrap();
        t.insert(Row::new(vec![Value::Null, Value::Double(16.0)]))
            .unwrap();
        let groups = Dataset::from_table(&t)
            .group_by(["k"])
            .aggregate_per_group(&SumAggregate::new("v"))
            .unwrap();
        assert_eq!(groups.len(), 4);
        // Total order: NULL first, then -0.0 < 0.0 < NaN.
        assert_eq!(groups[0].0, GroupKey::from_value(&Value::Null));
        assert_eq!(groups[0].1, 16.0);
        match groups[1].0.clone().into_value() {
            Value::Double(v) => assert_eq!(v.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected key {other:?}"),
        }
        assert_eq!(groups[1].1, 2.0);
        assert_eq!(groups[2].0.clone().into_value(), Value::Double(0.0));
        assert_eq!(groups[2].1, 1.0);
        match groups[3].0.clone().into_value() {
            Value::Double(v) => assert!(v.is_nan()),
            other => panic!("unexpected key {other:?}"),
        }
        assert_eq!(groups[3].1, 12.0);

        // The ColumnIs predicate selects exactly one group, NaN included.
        for (key, sum) in &groups {
            let filtered = Dataset::from_table(&t)
                .filter(Predicate::column_is_key("k", key.clone()))
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            assert_eq!(filtered.to_bits(), sum.to_bits());
        }
    }

    #[test]
    fn radix_flush_thresholds_preserve_equivalence() {
        // Two shapes that cross the staging thresholds mid-scan (the other
        // grouped tests stay below them and only flush at end of segment):
        // - 20 000 rows cycling 2 048 keys in 1 024-row chunks: every chunk
        //   is high-cardinality, each bucket gains 16 rows per chunk and
        //   crosses RADIX_FLUSH_ROWS after 16 chunks.
        // - 34 000 rows with 34 000 distinct keys: no bucket ever reaches
        //   the per-bucket threshold, so total staging crosses
        //   RADIX_MAX_STAGED_ROWS and the fullest-bucket drain kicks in.
        for (rows, groups) in [(20_000usize, 2_048usize), (34_000, 34_000)] {
            let schema = Schema::new(vec![
                Column::new("grp", ColumnType::Int),
                Column::new("y", ColumnType::Double),
            ]);
            let mut t = Table::new(schema, 1).unwrap();
            for i in 0..rows {
                t.insert(row![(i % groups) as i64, (i % 97) as f64 - 48.0])
                    .unwrap();
            }
            let grouped = Dataset::from_table(&t).group_by(["grp"]);
            let chunked = grouped
                .aggregate_per_group(&SumAggregate::new("y"))
                .unwrap();
            let by_rows =
                reference::aggregate_per_group(&grouped, &SumAggregate::new("y")).unwrap();
            assert_eq!(chunked.len(), groups);
            assert_eq!(chunked.len(), by_rows.len());
            for ((ka, va), (kb, vb)) in chunked.iter().zip(&by_rows) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits(), "key {ka:?}");
            }
        }
    }

    #[test]
    fn map_and_collect_respect_filters() {
        let t = make_table(3, 12);
        let ds = Dataset::from_table(&t).filter(Predicate::column_gt("y", 5.5));
        let rows = ds.collect_rows().unwrap();
        assert_eq!(rows.len(), 6);
        let ys: Vec<f64> = ds
            .map_rows(|row, schema| row.get_named(schema, "y")?.as_double())
            .unwrap();
        assert!(ys.iter().all(|&y| y > 5.5));
        let by_chunks: Vec<f64> = ds
            .map_chunks(|chunk, schema| {
                let idx = schema.index_of("y")?;
                Ok(chunk.doubles(idx)?.values.to_vec())
            })
            .unwrap();
        assert_eq!(ys, by_chunks);

        let first = ds.first_row().unwrap().unwrap();
        assert_eq!(first.get(1).as_double().unwrap(), ys[0]);
        let none = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 1e9))
            .first_row()
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn gather_groups_preserves_segment_placement() {
        let base = make_table(1, 141);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        t.insert_all(base.iter()).unwrap();

        let gathered = Dataset::from_table(&t)
            .group_by(["grp"])
            .gather_groups()
            .unwrap();
        assert_eq!(gathered.len(), 2);
        let mut total = 0;
        for (key, group_table) in &gathered {
            assert_eq!(group_table.num_segments(), t.num_segments());
            assert_eq!(group_table.chunk_capacity(), t.chunk_capacity());
            total += group_table.row_count();
            // Per segment, the gathered rows are the source segment's rows
            // of this group, in order.
            for seg in 0..t.num_segments() {
                let expected: Vec<Row> = t
                    .segment(seg)
                    .iter()
                    .filter(|r| GroupKey::from_value(r.get(0)) == *key)
                    .collect();
                let got: Vec<Row> = group_table.segment(seg).iter().collect();
                assert_eq!(got, expected);
            }
            // Chunk for chunk the table a row-by-row split builds
            // (several chunks per segment and group here).
            let mut by_row = Table::new(t.schema().clone(), 3)
                .unwrap()
                .with_chunk_capacity(8)
                .unwrap();
            for seg in 0..t.num_segments() {
                let of_group = |r: &Row| GroupKey::from_value(r.get(0)) == *key;
                for row in t.segment(seg).iter().filter(of_group) {
                    by_row.insert_into_segment(seg, row).unwrap();
                }
            }
            assert_eq!(group_table, &by_row);
            assert!(group_table.segment(0).chunks().len() > 2);
        }
        assert_eq!(total, t.row_count());
        // A filtered gather compacts first and splits the same way.
        let filtered = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 60.5))
            .group_by(["grp"])
            .gather_groups()
            .unwrap();
        for (key, group_table) in &filtered {
            let mut by_row = Table::new(t.schema().clone(), 3)
                .unwrap()
                .with_chunk_capacity(8)
                .unwrap();
            for seg in 0..t.num_segments() {
                let kept = |r: &Row| {
                    GroupKey::from_value(r.get(0)) == *key && r.get(1).as_double().unwrap() > 60.5
                };
                for row in t.segment(seg).iter().filter(kept) {
                    by_row.insert_into_segment(seg, row).unwrap();
                }
            }
            assert_eq!(group_table, &by_row);
        }
    }

    #[test]
    fn a_dataset_owns_its_snapshot_of_any_table() {
        // Built outside the catalog: 2 segments of 5 rows at capacity 2 →
        // chunks of 2, 2 and a 1-row tail in each.
        let mut t = make_table(2, 0).with_chunk_capacity(2).unwrap();
        for i in 0..10 {
            t.insert(row!["even", i as f64, vec![i as f64, 1.0]])
                .unwrap();
        }
        let ds = Dataset::from_table(&t);
        for s in 0..t.num_segments() {
            let (ours, theirs) = (ds.table().segment(s).chunks(), t.segment(s).chunks());
            assert_eq!(ours.len(), 3);
            assert_eq!(ours.last().unwrap().len(), 1);
            for (a, b) in ours.iter().zip(theirs) {
                assert!(Arc::ptr_eq(a, b), "the snapshot must copy no buffer");
            }
        }
        let rows = ds.collect_rows().unwrap();
        let first_chunk = RowChunk::clone(&ds.table().segment(0).chunks()[0]);
        let unchanged = |ds: &Dataset| {
            assert_eq!(ds.aggregate(&CountAggregate).unwrap(), 10);
            assert_eq!(ds.collect_rows().unwrap(), rows);
            assert_eq!(*ds.table().segment(0).chunks()[0], first_chunk);
        };
        t.insert(row!["odd", 99.0, vec![99.0, 1.0]]).unwrap();
        assert_eq!(t.row_count(), 11);
        unchanged(&ds);
        t.truncate();
        assert_eq!(t.row_count(), 0);
        unchanged(&ds);
        drop(t);
        unchanged(&ds);
    }

    #[test]
    fn database_dataset_snapshots_the_catalog_table() {
        let db = Database::new(2).unwrap();
        let schema = Schema::new(vec![Column::new("v", ColumnType::Double)]);
        db.create_table("data", schema).unwrap();
        db.with_table_mut("data", |t| {
            for i in 0..6 {
                t.insert(row![i as f64])?;
            }
            Ok(())
        })
        .unwrap();
        let ds = db.dataset("data").unwrap();
        assert_eq!(ds.aggregate(&CountAggregate).unwrap(), 6);
        assert!(db.dataset("missing").is_err());
    }
}
