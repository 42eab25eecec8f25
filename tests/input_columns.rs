//! `Aggregate::input_columns` properties.
//!
//! An aggregate that declares its input columns is handed, wherever a scan
//! copies rows for it, a chunk of just those columns.  These tests hold
//! every declaring public aggregate to its declaration — the same outputs
//! from a copy of the data holding only the declared columns
//! (`reference::aggregate_on_input_columns`) as from the full table, under
//! a filter, grouping, both, and neither — and hold the engine to its side:
//! a probe that declares one column of five sees one column in every
//! batch the engine copied for it.

use madlib::engine::aggregate::{
    Aggregate, ArraySumAggregate, AvgAggregate, CountAggregate, SumAggregate,
};
use madlib::engine::expr::Predicate;
use madlib::engine::{
    reference, Column, ColumnType, Dataset, Executor, Row, RowChunk, Schema, Table, Value,
};
use madlib::methods::classify::NaiveBayes;
use madlib::methods::regress::LinearRegression;
use madlib::sketch::{
    CountMinAggregate, FmDistinctAggregate, MostFrequentValuesAggregate, SummaryAggregate,
};
use std::fmt::Debug;
use std::sync::Arc;

/// 600 rows over two segments in 16-row chunks: the declared inputs of the
/// aggregates under test (`y`, `x`, `label`) between distractor columns — a
/// text column with NULLs (`note`), a bigint (`n`) and an array (`tags`).
fn table() -> Table {
    let schema = Schema::new(vec![
        Column::new("note", ColumnType::Text),
        Column::new("y", ColumnType::Double),
        Column::new("n", ColumnType::Int),
        Column::new("x", ColumnType::DoubleArray),
        Column::new("label", ColumnType::Text),
        Column::new("tags", ColumnType::IntArray),
    ]);
    let mut table = Table::new(schema, 2)
        .unwrap()
        .with_chunk_capacity(16)
        .unwrap();
    for i in 0..600_i64 {
        let t = i as f64;
        let note = match i % 3 {
            0 => Value::Null,
            1 => Value::Text("a".into()),
            _ => Value::Text("b".into()),
        };
        let x = vec![1.0, (t * 0.37).sin(), (t * 0.11).cos() * 2.0];
        let y = 0.5 + 2.0 * x[1] - x[2] + 0.01 * (t * 1.7).sin();
        let row = Row::new(vec![
            note,
            Value::Double(y),
            Value::Int(i % 7),
            Value::DoubleArray(x),
            Value::Text(format!("c{}", i % 2)),
            Value::IntArray(vec![i, -i]),
        ]);
        table.insert_into_segment((i % 2) as usize, row).unwrap();
    }
    table
}

/// The shapes every aggregate runs in: neither filter nor grouping, a
/// filter, grouping on a low-cardinality key (the scan's direct gathers)
/// and on a higher-cardinality one (its radix staging), and filter plus
/// grouping on each.
fn shapes(table: &Table, executor: Executor) -> Vec<Dataset> {
    let base = || Dataset::from_table(table).with_executor(executor);
    let filter = || Predicate::column_lt("n", 4.0);
    vec![
        base(),
        base().filter(filter()),
        base().group_by(["note"]),
        base().group_by(["n", "note"]),
        base().filter(filter()).group_by(["note"]),
        base().filter(filter()).group_by(["n", "note"]),
    ]
}

/// Holds `aggregate` to its declaration: over every shape, under both
/// executors, the outputs (`Debug`, which prints every float's exact
/// value) from the declared columns alone are the full table's.
fn assert_declaration_suffices<A>(aggregate: &A)
where
    A: Aggregate,
    A::Output: Debug + Send,
{
    let table = table();
    for executor in [Executor::new(), Executor::serial()] {
        for dataset in shapes(&table, executor) {
            let full = if dataset.is_grouped() {
                dataset.aggregate_per_group(aggregate)
            } else {
                let empty = madlib::engine::GroupKey::composite(Vec::new());
                dataset.aggregate(aggregate).map(|out| vec![(empty, out)])
            };
            let narrowed = reference::aggregate_on_input_columns(&dataset, aggregate);
            assert_eq!(
                format!("{narrowed:?}"),
                format!("{full:?}"),
                "{:?}, grouped by {:?}, {executor:?}",
                dataset.filter_predicate(),
                dataset.group_columns()
            );
        }
    }
}

#[test]
fn declared_input_columns_are_enough() {
    assert_declaration_suffices(&LinearRegression::new("y", "x"));
    assert_declaration_suffices(&NaiveBayes::new("label", "x"));
    assert_declaration_suffices(&CountAggregate);
    assert_declaration_suffices(&SumAggregate::new("y"));
    assert_declaration_suffices(&AvgAggregate::new("y"));
    assert_declaration_suffices(&ArraySumAggregate::new("x"));
    assert_declaration_suffices(&SummaryAggregate::new("y"));
    assert_declaration_suffices(&FmDistinctAggregate::new("label"));
    assert_declaration_suffices(&CountMinAggregate::new("label", 3, 64));
    assert_declaration_suffices(&MostFrequentValuesAggregate::new("label", 2));
}

/// Declares one column (`v`) and records, for every chunk it is handed, the
/// chunk's arity, its schema's arity and its address.
struct ArityProbe;

/// `(chunk arity, schema arity, chunk address)` per batch.
type Seen = Vec<(usize, usize, usize)>;

impl Aggregate for ArityProbe {
    type State = Seen;
    type Output = Seen;

    fn initial_state(&self) -> Seen {
        Vec::new()
    }

    fn transition(&self, _: &mut Seen, _: &Row, _: &Schema) -> madlib::engine::Result<()> {
        unreachable!("every scan hands the probe chunks")
    }

    fn transition_chunk(
        &self,
        state: &mut Seen,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib::engine::Result<()> {
        schema.index_of("v")?;
        let address = chunk as *const RowChunk as usize;
        state.push((chunk.arity(), schema.arity(), address));
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec!["v"])
    }

    fn merge(&self, mut left: Seen, right: Seen) -> Seen {
        left.extend(right);
        left
    }

    fn finalize(&self, state: Seen) -> madlib::engine::Result<Seen> {
        Ok(state)
    }
}

/// Row `i` of the probe table: five columns, `v` in the middle; `low` has
/// two values, clustered in runs of 40 rows, `high` 200 values that repeat
/// every 200 rows, and `id` counts rows.
fn probe_row(i: i64) -> Row {
    Row::new(vec![
        Value::Int(i / 40 % 2),
        Value::Int(i % 200),
        Value::Double(i as f64),
        Value::Int(i),
        Value::Text(format!("t{}", i % 3)),
    ])
}

/// 1 280 probe rows in 64-row chunks over two segments, even ids to
/// segment 0.
fn probe_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("low", ColumnType::Int),
        Column::new("high", ColumnType::Int),
        Column::new("v", ColumnType::Double),
        Column::new("id", ColumnType::Int),
        Column::new("tag", ColumnType::Text),
    ]);
    let mut table = Table::new(schema, 2)
        .unwrap()
        .with_chunk_capacity(64)
        .unwrap();
    for i in 0..1_280 {
        table
            .insert_into_segment((i % 2) as usize, probe_row(i))
            .unwrap();
    }
    table
}

/// `id < 1000`: the first chunks of each segment whole, one in part, none
/// after.
fn probe_filter() -> Predicate {
    Predicate::column_lt("id", 1_000.0)
}

/// Every batch the probe saw has one column and a one-column schema, except
/// the table's own chunks passed through whole — and there were copies.
fn assert_copies_narrowed(table: &Table, seen: &[(usize, usize, usize)]) {
    let own: Vec<usize> = (0..table.num_segments())
        .flat_map(|s| table.segment(s).chunks().iter())
        .map(|chunk| Arc::as_ptr(chunk) as usize)
        .collect();
    let mut copies = 0;
    for &(arity, schema_arity, address) in seen {
        assert_eq!(arity, schema_arity, "a batch's schema is its own");
        if arity == 1 {
            copies += 1;
        } else {
            assert_eq!(arity, 5, "a batch is one column or the whole chunk");
            assert!(own.contains(&address), "a whole batch is a table chunk");
        }
    }
    assert!(copies > 0, "the scan copied no rows");
}

#[test]
fn copies_for_a_declaring_aggregate_hold_only_their_columns() {
    let table = probe_table();
    for executor in [Executor::new(), Executor::serial()] {
        let base = || Dataset::from_table(&table).with_executor(executor);
        let filtered = base()
            .filter(probe_filter())
            .aggregate(&ArityProbe)
            .unwrap();
        assert_copies_narrowed(&table, &filtered);
        // `high` splinters every chunk into one-row groups (radix staging);
        // `low` keeps two groups of about 32 rows in each (direct gathers).
        for (keys, staged) in [(["high"], true), (["low"], false)] {
            for dataset in [
                base().group_by(keys),
                base().filter(probe_filter()).group_by(keys),
            ] {
                let (groups, stats) = dataset.aggregate_per_group_with_stats(&ArityProbe).unwrap();
                let paths = stats.grouping;
                assert_eq!(paths.staged_chunks > 0, staged, "{keys:?}: {paths:?}");
                assert_eq!(paths.gathered_chunks > 0, !staged, "{keys:?}: {paths:?}");
                let seen: Seen = groups.into_iter().flat_map(|(_, seen)| seen).collect();
                assert_copies_narrowed(&table, &seen);
            }
        }
    }
}
