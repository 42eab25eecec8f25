//! Scan configuration: parallelism, the one setting.
//!
//! The engine runs user-defined aggregates over a partitioned [`Table`] the
//! way Greenplum runs one query process per segment — the execution model
//! the paper's Figure 4/5 evaluation sweeps over.  The transition function
//! streams over each segment locally, the per-segment states are merged on
//! the coordinating thread, and the final function produces the output; only
//! the (small) transition states ever cross segment boundaries — the
//! property the paper credits for its near-linear parallel speedup.
//!
//! An [`Executor`] does not implement any of that itself; it is the one
//! setting every scan terminal reads: parallelism — work-stealing workers
//! ([`crate::scan`]: at most [`crate::scan::worker_count`] of them claim scan
//! units from a shared cursor, and worker panics become
//! [`EngineError::WorkerPanicked`]) or the calling thread.  How a scan is
//! cut into units is the terminal's business, not the executor's:
//! aggregates steal whole segments, order-preserving terminals chunk ranges.
//!
//! Every terminal scans chunk at a time (chunks stream through
//! [`crate::scan::scan_segment_chunks`] with predicates hoisted to one
//! [`crate::chunk::SelectionMask`] per chunk); the per-row meaning of an
//! aggregate is kept as [`crate::reference`], which no terminal calls.
//!
//! Scans are described with [`crate::dataset::Dataset`]
//! (`db.dataset("t")?.filter(...).group_by([...])`).  Its aggregate
//! terminals and [`crate::materialize::MaterializedAggregate`] share one
//! implementation of the per-segment transition runners and of the merge
//! (the crate-private `fold` module), so a batch aggregate, a
//! grouped aggregate and a refreshed view cannot disagree.
//! [`Executor::aggregate`], [`Executor::aggregate_with_stats`],
//! [`Executor::parallel_map`] and [`Executor::parallel_map_chunks`] are
//! shorthands for the corresponding `Dataset` terminals over a whole table.

use crate::aggregate::Aggregate;
use crate::dataset::Dataset;
use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;

/// Statistics describing one aggregate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Rows scanned across all segments.
    pub rows_scanned: u64,
    /// Rows that passed the filter (equals `rows_scanned` when no filter).
    pub rows_aggregated: u64,
    /// Number of segments of the scanned table (each one unit of work and
    /// one partial state).
    pub segments: usize,
}

/// Executes aggregates over partitioned tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor {
    /// When true (default), segments are processed by parallel worker
    /// threads; when false everything runs on the calling thread, which is
    /// occasionally useful for debugging and for measuring parallel speedup.
    parallel: bool,
}

impl Executor {
    /// Creates a parallel executor.
    pub fn new() -> Self {
        Self { parallel: true }
    }

    /// Creates an executor that processes segments serially on the calling
    /// thread.  The per-segment transition/merge structure is identical, so
    /// results match the parallel path exactly.
    pub fn serial() -> Self {
        Self { parallel: false }
    }

    /// Whether this executor runs segments in parallel.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Runs `aggregate` over every row of `table`, returning the finalized
    /// output.  Shorthand for [`Dataset::aggregate`].
    ///
    /// # Errors
    /// Propagates transition/final errors from the aggregate.
    pub fn aggregate<A: Aggregate>(&self, table: &Table, aggregate: &A) -> Result<A::Output> {
        Ok(self.aggregate_with_stats(table, aggregate, None)?.0)
    }

    /// Runs `aggregate` over the rows of `table` accepted by `filter`,
    /// returning the finalized output together with execution statistics.
    /// Shorthand for [`Dataset::aggregate_with_stats`].
    ///
    /// # Errors
    /// Propagates transition/final errors from the aggregate and predicate
    /// evaluation errors from the filter.
    pub fn aggregate_with_stats<A: Aggregate>(
        &self,
        table: &Table,
        aggregate: &A,
        filter: Option<&Predicate>,
    ) -> Result<(A::Output, ExecutionStats)> {
        let dataset = Dataset::from_table(table).with_executor(*self);
        match filter {
            Some(predicate) => dataset.filter(predicate.clone()),
            None => dataset,
        }
        .aggregate_with_stats(aggregate)
    }

    /// Applies `map` to every row in parallel per segment and collects the
    /// outputs (segment order preserved).  This is the engine's equivalent of
    /// a parallel projection / per-row UDF scan — the unfiltered shorthand
    /// for [`Dataset::map_rows`], which supplies the shared fan-out, panic
    /// handling and row-materialization adapter.
    ///
    /// # Errors
    /// Propagates errors returned by `map`.
    pub fn parallel_map<T, F>(&self, table: &Table, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Row, &Schema) -> Result<T> + Sync,
    {
        Dataset::from_table(table)
            .with_executor(*self)
            .map_rows(map)
    }

    /// Chunk-level parallel projection: applies `map` once per column-major
    /// chunk (per segment, in parallel) and concatenates the outputs in
    /// segment-then-row order.  Chunk-aware consumers use this to read whole
    /// column slices (via [`crate::chunk::RowChunk::doubles`] /
    /// [`crate::chunk::RowChunk::double_arrays`]) instead of materialized
    /// rows.  The unfiltered shorthand for [`Dataset::map_chunks`];
    /// [`Executor::parallel_map`] is the row-level adapter on top.
    ///
    /// # Errors
    /// Propagates errors returned by `map`.
    pub fn parallel_map_chunks<T, F>(&self, table: &Table, map: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&crate::chunk::RowChunk, &Schema) -> Result<Vec<T>> + Sync,
    {
        Dataset::from_table(table)
            .with_executor(*self)
            .map_chunks(map)
    }

    /// Validates that the executor can run against the table (non-empty when
    /// `require_rows` is set).  Utility used by method drivers to produce a
    /// friendlier error than an empty-aggregate failure.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] for an empty table when rows
    /// are required.
    pub fn validate_input(&self, table: &Table, require_rows: bool) -> Result<()> {
        if require_rows && table.is_empty() {
            return Err(EngineError::invalid("input table has no rows"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{ArraySumAggregate, AvgAggregate, CountAggregate, SumAggregate};
    use crate::expr::Predicate;
    use crate::reference;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

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
    fn parallel_and_serial_agree() {
        let t = make_table(4, 100);
        let parallel = Executor::new();
        let serial = Executor::serial();
        assert!(parallel.is_parallel());
        assert!(!serial.is_parallel());
        let sum_par = parallel.aggregate(&t, &SumAggregate::new("y")).unwrap();
        let sum_ser = serial.aggregate(&t, &SumAggregate::new("y")).unwrap();
        assert_eq!(sum_par, sum_ser);
        assert_eq!(sum_par, (0..100).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn chunked_and_row_modes_agree() {
        // Use a tiny chunk capacity so the scan crosses several chunk
        // boundaries per segment.
        let base = make_table(1, 157);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        t.insert_all(base.iter()).unwrap();
        let exec = Executor::new();
        let dataset = Dataset::from_table(&t);

        let a = exec.aggregate(&t, &SumAggregate::new("y")).unwrap();
        let b = reference::aggregate(&dataset, &SumAggregate::new("y")).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());

        let a = exec.aggregate(&t, &ArraySumAggregate::new("x")).unwrap();
        let b = reference::aggregate(&dataset, &ArraySumAggregate::new("x")).unwrap();
        assert_eq!(a, b);

        let pred = Predicate::column_gt("y", 31.5).and(Predicate::column_lt("y", 141.0));
        let (count, stats) = exec
            .aggregate_with_stats(&t, &CountAggregate, Some(&pred))
            .unwrap();
        let by_rows = reference::aggregate(&dataset.filter(pred), &CountAggregate).unwrap();
        assert_eq!(count, by_rows);
        assert_eq!(stats.rows_scanned, 157);
        assert_eq!(stats.rows_aggregated, by_rows);
    }

    #[test]
    fn results_invariant_to_partitioning() {
        let base = make_table(1, 60);
        let expected = Executor::new()
            .aggregate(&base, &ArraySumAggregate::new("x"))
            .unwrap();
        for segs in [2, 3, 5, 8] {
            let t = base.repartition(segs).unwrap();
            let got = Executor::new()
                .aggregate(&t, &ArraySumAggregate::new("x"))
                .unwrap();
            assert_eq!(got, expected, "mismatch at {segs} segments");
        }
    }

    #[test]
    fn filtered_aggregation_and_stats() {
        let t = make_table(3, 10);
        let exec = Executor::new();
        let pred = Predicate::column_gt("y", 4.5);
        let (count, stats) = exec
            .aggregate_with_stats(&t, &CountAggregate, Some(&pred))
            .unwrap();
        assert_eq!(count, 5); // y in {5..9}
        assert_eq!(stats.rows_scanned, 10);
        assert_eq!(stats.rows_aggregated, 5);
        assert_eq!(stats.segments, 3);
    }

    #[test]
    fn empty_table_aggregates() {
        let t = make_table(2, 0);
        let exec = Executor::new();
        assert_eq!(exec.aggregate(&t, &CountAggregate).unwrap(), 0);
        assert_eq!(exec.aggregate(&t, &AvgAggregate::new("y")).unwrap(), None);
        assert!(exec.aggregate(&t, &ArraySumAggregate::new("x")).is_err());
        assert!(exec.validate_input(&t, true).is_err());
        assert!(exec.validate_input(&t, false).is_ok());
    }

    #[test]
    fn worker_panics_surface_as_errors_not_aborts() {
        struct PanickyAggregate;
        impl Aggregate for PanickyAggregate {
            type State = u64;
            type Output = u64;
            fn initial_state(&self) -> u64 {
                0
            }
            fn transition(&self, _: &mut u64, row: &Row, _: &Schema) -> Result<()> {
                if row.get(1).as_double()? >= 8.0 {
                    panic!("transition exploded");
                }
                Ok(())
            }
            fn merge(&self, left: u64, right: u64) -> u64 {
                left + right
            }
            fn finalize(&self, state: u64) -> Result<u64> {
                Ok(state)
            }
        }

        let t = make_table(4, 32);
        // The chunked fallback calls `transition` per row, so the panic
        // fires inside a worker (or the calling thread) either way.
        for exec in [Executor::new(), Executor::serial()] {
            let err = exec.aggregate(&t, &PanickyAggregate).unwrap_err();
            match err {
                EngineError::WorkerPanicked { message } => {
                    assert!(message.contains("transition exploded"), "got: {message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }

        // parallel_map workers propagate panics the same way.
        let err = Executor::new()
            .parallel_map(&t, |row, _| -> Result<f64> {
                if row.get(1).as_double()? >= 8.0 {
                    panic!("map exploded");
                }
                Ok(0.0)
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }));
    }

    #[test]
    fn parallel_map_preserves_all_rows() {
        let t = make_table(4, 20);
        let exec = Executor::new();
        let doubled: Vec<f64> = exec
            .parallel_map(&t, |row, schema| {
                Ok(row.get_named(schema, "y")?.as_double()? * 2.0)
            })
            .unwrap();
        assert_eq!(doubled.len(), 20);
        let sum: f64 = doubled.iter().sum();
        assert_eq!(sum, 2.0 * (0..20).map(|i| i as f64).sum::<f64>());
        // Errors propagate.
        let err = exec.parallel_map(&t, |row, schema| {
            row.get_named(schema, "grp")?.as_double().map(|_| ())
        });
        assert!(err.is_err());
    }

    #[test]
    fn parallel_map_chunks_matches_row_level_map() {
        let base = make_table(1, 53);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        t.insert_all(base.iter()).unwrap();
        let exec = Executor::new();
        let by_rows: Vec<f64> = exec
            .parallel_map(&t, |row, schema| {
                Ok(row.get_named(schema, "y")?.as_double()? + 1.0)
            })
            .unwrap();
        let by_chunks: Vec<f64> = exec
            .parallel_map_chunks(&t, |chunk, schema| {
                let idx = schema.index_of("y")?;
                let column = chunk.doubles(idx)?;
                Ok(column.values.iter().map(|v| v + 1.0).collect())
            })
            .unwrap();
        assert_eq!(by_rows, by_chunks);
    }
}
