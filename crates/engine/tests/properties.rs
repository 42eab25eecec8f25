//! Property-based tests for the engine substrate.
//!
//! The key invariant of the whole macro-programming layer is that results
//! must not depend on how the data is partitioned across segments — the merge
//! law of Section 3.1.1.  These tests generate random data and random segment
//! counts and check exactly that.

use madlib_engine::aggregate::{ArraySumAggregate, AvgAggregate, CountAggregate, SumAggregate};
use madlib_engine::{row, Column, ColumnType, Dataset, Executor, Schema, Table};
use proptest::prelude::*;

/// `table`'s rows, bound to `executor`.
fn over(executor: Executor, table: &Table) -> Dataset<'_> {
    Dataset::from_table(table).with_executor(executor)
}

fn build_table(values: &[(f64, [f64; 3])], segments: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut t = Table::new(schema, segments).unwrap();
    for (y, x) in values {
        t.insert(row![*y, x.to_vec()]).unwrap();
    }
    t
}

proptest! {
    #[test]
    fn aggregates_are_partition_invariant(
        values in prop::collection::vec((-100.0..100.0f64, [-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64]), 1..80),
        segments in 1usize..9,
    ) {
        let reference = build_table(&values, 1);
        let partitioned = build_table(&values, segments);
        let exec = Executor::new();

        let count_ref = over(exec, &reference).aggregate(&CountAggregate).unwrap();
        let count_par = over(exec, &partitioned).aggregate(&CountAggregate).unwrap();
        prop_assert_eq!(count_ref, count_par);

        let sum_ref = over(exec, &reference).aggregate(&SumAggregate::new("y")).unwrap();
        let sum_par = over(exec, &partitioned).aggregate(&SumAggregate::new("y")).unwrap();
        prop_assert!((sum_ref - sum_par).abs() < 1e-6);

        let avg_ref = over(exec, &reference).aggregate(&AvgAggregate::new("y")).unwrap().unwrap();
        let avg_par = over(exec, &partitioned).aggregate(&AvgAggregate::new("y")).unwrap().unwrap();
        prop_assert!((avg_ref - avg_par).abs() < 1e-9);

        let arr_ref = over(exec, &reference).aggregate(&ArraySumAggregate::new("x")).unwrap();
        let arr_par = over(exec, &partitioned).aggregate(&ArraySumAggregate::new("x")).unwrap();
        for (a, b) in arr_ref.iter().zip(&arr_par) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn serial_and_parallel_executors_agree(
        values in prop::collection::vec((-50.0..50.0f64, [0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64]), 1..50),
        segments in 1usize..6,
    ) {
        let table = build_table(&values, segments);
        let parallel = Executor::new();
        let serial = Executor::serial();
        let a = over(parallel, &table).aggregate(&SumAggregate::new("y")).unwrap();
        let b = over(serial, &table).aggregate(&SumAggregate::new("y")).unwrap();
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn repartition_preserves_content(
        values in prop::collection::vec((-10.0..10.0f64, [0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64]), 0..40),
        from in 1usize..5,
        to in 1usize..5,
    ) {
        let table = build_table(&values, from);
        let repartitioned = table.repartition(to).unwrap();
        prop_assert_eq!(repartitioned.row_count(), values.len());
        prop_assert_eq!(repartitioned.num_segments(), to);
        let exec = Executor::new();
        if !values.is_empty() {
            let a = over(exec, &table).aggregate(&SumAggregate::new("y")).unwrap();
            let b = over(exec, &repartitioned).aggregate(&SumAggregate::new("y")).unwrap();
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
