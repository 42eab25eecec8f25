//! Scan configuration: parallelism, the one setting.
//!
//! The engine runs user-defined aggregates over a partitioned [`crate::table::Table`] the
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
//! [`crate::error::EngineError::WorkerPanicked`]) or the calling thread.  How a scan is
//! cut into units is the terminal's business, not the executor's:
//! aggregates steal whole segments, order-preserving terminals chunk ranges.
//!
//! Every terminal scans chunk at a time (chunks stream through
//! [`crate::scan::scan_segment_chunks`] with predicates hoisted to one
//! [`crate::chunk::SelectionMask`] per chunk); the per-row meaning of an
//! aggregate is kept as [`crate::reference`], which no terminal calls.
//!
//! Scans are described with [`crate::dataset::Dataset`]
//! (`db.dataset("t")?.filter(...).group_by([...])`), bound to an executor
//! with [`crate::dataset::Dataset::with_executor`].  Its aggregate
//! terminals and [`crate::materialize::MaterializedAggregate`] share one
//! implementation of the per-segment transition runners and of the merge
//! (the crate-private `fold` module), so a batch aggregate, a
//! grouped aggregate and a refreshed view cannot disagree.

use madlib_linalg::kernels::KernelPath;

/// Statistics describing one scan terminal's execution
/// ([`crate::Dataset::aggregate_with_stats`],
/// [`crate::Dataset::score_with_stats`], and the pass inside
/// [`crate::Dataset::top_k_by_score_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Rows scanned across all segments.
    pub rows_scanned: u64,
    /// Rows that passed the filter and were aggregated or scored (equals
    /// `rows_scanned` when no filter).
    pub rows_aggregated: u64,
    /// Number of segments of the scanned table (for an aggregate, each one
    /// unit of work and one partial state).
    pub segments: usize,
    /// The tier the scan's batched kernels dispatched to
    /// ([`madlib_linalg::kernels::active_path`], pinned by `MADLIB_SIMD`).
    pub kernel_path: KernelPath,
    /// Worker time inside the scan's units (an aggregate's segment folds,
    /// a scoring pass's chunk ranges), summed, in nanoseconds: compaction,
    /// grouping and transitions or predictions, not the merge, the final
    /// function or the output's concatenation.
    pub busy_ns: u64,
}

/// Executes aggregates over partitioned tables: [`Executor::new`] (parallel)
/// or [`Executor::serial`], the only two ways to make one.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    /// When true ([`Executor::new`]), segments are processed by parallel
    /// worker threads; when false everything runs on the calling thread, which is
    /// occasionally useful for debugging and for measuring parallel speedup.
    parallel: bool,
}

// No `Default`: a derived one would be serial while `new` is parallel.
#[allow(clippy::new_without_default)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{
        Aggregate, ArraySumAggregate, AvgAggregate, CountAggregate, SumAggregate,
    };
    use crate::dataset::Dataset;
    use crate::error::{EngineError, Result};
    use crate::expr::Predicate;
    use crate::reference;
    use crate::row;
    use crate::row::Row;
    use crate::schema::{Column, ColumnType, Schema};
    use crate::table::Table;
    use madlib_linalg::kernels::dispatch;

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

    /// `table`'s rows, bound to `executor`.
    fn over(executor: Executor, table: &Table) -> Dataset {
        Dataset::from_table(table).with_executor(executor)
    }

    #[test]
    fn parallel_and_serial_agree() {
        let t = make_table(4, 100);
        assert!(Executor::new().is_parallel());
        assert!(!Executor::serial().is_parallel());
        let sum_par = over(Executor::new(), &t)
            .aggregate(&SumAggregate::new("y"))
            .unwrap();
        let sum_ser = over(Executor::serial(), &t)
            .aggregate(&SumAggregate::new("y"))
            .unwrap();
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
        let dataset = Dataset::from_table(&t);

        let a = dataset.aggregate(&SumAggregate::new("y")).unwrap();
        let b = reference::aggregate(&dataset, &SumAggregate::new("y")).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());

        let a = dataset.aggregate(&ArraySumAggregate::new("x")).unwrap();
        let b = reference::aggregate(&dataset, &ArraySumAggregate::new("x")).unwrap();
        assert_eq!(a, b);

        let pred = Predicate::column_gt("y", 31.5).and(Predicate::column_lt("y", 141.0));
        let filtered = dataset.filter(pred);
        let (count, stats) = filtered.aggregate_with_stats(&CountAggregate).unwrap();
        let by_rows = reference::aggregate(&filtered, &CountAggregate).unwrap();
        assert_eq!(count, by_rows);
        assert_eq!(stats.rows_scanned, 157);
        assert_eq!(stats.rows_aggregated, by_rows);
    }

    #[test]
    fn results_invariant_to_partitioning() {
        let base = make_table(1, 60);
        let expected = Dataset::from_table(&base)
            .aggregate(&ArraySumAggregate::new("x"))
            .unwrap();
        for segs in [2, 3, 5, 8] {
            let t = base.repartition(segs).unwrap();
            let got = Dataset::from_table(&t)
                .aggregate(&ArraySumAggregate::new("x"))
                .unwrap();
            assert_eq!(got, expected, "mismatch at {segs} segments");
        }
    }

    #[test]
    fn filtered_aggregation_and_stats() {
        let t = make_table(3, 10);
        let (count, stats) = Dataset::from_table(&t)
            .filter(Predicate::column_gt("y", 4.5))
            .aggregate_with_stats(&CountAggregate)
            .unwrap();
        assert_eq!(count, 5); // y in {5..9}
        assert_eq!(stats.rows_scanned, 10);
        assert_eq!(stats.rows_aggregated, 5);
        assert_eq!(stats.segments, 3);
    }

    #[test]
    fn empty_table_aggregates() {
        let t = make_table(2, 0);
        let dataset = Dataset::from_table(&t);
        assert_eq!(dataset.aggregate(&CountAggregate).unwrap(), 0);
        assert_eq!(dataset.aggregate(&AvgAggregate::new("y")).unwrap(), None);
        assert!(dataset.aggregate(&ArraySumAggregate::new("x")).is_err());
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
            let err = over(exec, &t).aggregate(&PanickyAggregate).unwrap_err();
            match err {
                EngineError::WorkerPanicked { message } => {
                    assert!(message.contains("transition exploded"), "got: {message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }

        // Row-map workers propagate panics the same way.
        let err = Dataset::from_table(&t)
            .map_rows(|row, _| -> Result<f64> {
                if row.get(1).as_double()? >= 8.0 {
                    panic!("map exploded");
                }
                Ok(0.0)
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanicked { .. }));
    }

    #[test]
    fn map_rows_preserves_all_rows() {
        let t = make_table(4, 20);
        let dataset = Dataset::from_table(&t);
        let doubled: Vec<f64> = dataset
            .map_rows(|row, schema| Ok(row.get_named(schema, "y")?.as_double()? * 2.0))
            .unwrap();
        assert_eq!(doubled.len(), 20);
        let sum: f64 = doubled.iter().sum();
        assert_eq!(sum, 2.0 * (0..20).map(|i| i as f64).sum::<f64>());
        // Errors propagate.
        let err =
            dataset.map_rows(|row, schema| row.get_named(schema, "grp")?.as_double().map(|_| ()));
        assert!(err.is_err());
    }

    #[test]
    fn map_chunks_matches_row_level_map() {
        let base = make_table(1, 53);
        let mut t = Table::new(base.schema().clone(), 3)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        t.insert_all(base.iter()).unwrap();
        let dataset = over(Executor::new(), &t);
        let by_rows: Vec<f64> = dataset
            .map_rows(|row, schema| Ok(row.get_named(schema, "y")?.as_double()? + 1.0))
            .unwrap();
        let by_chunks: Vec<f64> = dataset
            .map_chunks(|chunk, schema| {
                let idx = schema.index_of("y")?;
                let column = chunk.doubles(idx)?;
                Ok(column.values.iter().map(|v| v + 1.0).collect())
            })
            .unwrap();
        assert_eq!(by_rows, by_chunks);
    }

    #[test]
    fn stats_report_worker_time_and_the_kernel_tier() {
        let t = make_table(4, 100);
        for exec in [Executor::new(), Executor::serial()] {
            let (_, stats) = over(exec, &t)
                .aggregate_with_stats(&ArraySumAggregate::new("x"))
                .unwrap();
            assert!(stats.busy_ns > 0, "{stats:?}");
            // The tier `MADLIB_SIMD` pins, or runtime detection when unset.
            let pin = std::env::var("MADLIB_SIMD").ok();
            let pinned = dispatch::resolve(dispatch::simd_policy_from(pin.as_deref()).0);
            assert_eq!(stats.kernel_path, pinned, "MADLIB_SIMD={pin:?}");
        }
    }
}
