//! Sketches as user-defined aggregates on the engine's chunked scan
//! pipeline.
//!
//! The sketches themselves ([`FlajoletMartin`], [`CountMinSketch`], the
//! frequency table behind most-common-values) are mergeable, which is the
//! whole reason they fit the paper's UDA pattern — but until now the only
//! consumer (`profile`) drove them with its own private row loop.  These
//! adapters wrap each sketch in an [`Aggregate`] so any sketch pass runs on
//! the shared executor pipeline: segment-parallel, filterable, and
//! chunk-at-a-time, with `transition_chunk` overrides that stream the
//! contiguous `text` column buffer instead of materializing one
//! [`madlib_engine::Value`] per row.  Results are identical to the per-row path by the
//! `transition_chunk` contract (sketch updates are order-insensitive, and
//! the overrides preserve row order anyway).

use crate::countmin::CountMinSketch;
use crate::fm::FlajoletMartin;
use madlib_engine::aggregate::transition_chunk_by_rows;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::{Aggregate, Result, Row, RowChunk, Schema};
use madlib_stats::descriptive::FrequencyTable;
use madlib_stats::Summary;

/// Resolves a column and, when it is a `text` column, hands its contiguous
/// values + null bitmap to `on_text`; otherwise falls back to per-row
/// transitions (which surface exactly the errors the row path would).
fn for_each_text_value<A, F>(
    aggregate: &A,
    state: &mut A::State,
    chunk: &RowChunk,
    schema: &Schema,
    column: &str,
    mut on_text: F,
) -> Result<()>
where
    A: Aggregate,
    F: FnMut(&mut A::State, &str),
{
    let idx = schema.index_of(column)?;
    match chunk.column(idx) {
        ColumnChunk::Text { values, nulls } => {
            if nulls.any_null() {
                for (i, value) in values.iter().enumerate() {
                    if !nulls.is_null(i) {
                        on_text(state, value);
                    }
                }
            } else {
                for value in values {
                    on_text(state, value);
                }
            }
            Ok(())
        }
        _ => transition_chunk_by_rows(aggregate, state, chunk, schema),
    }
}

/// `summary(column)`: streaming count / mean / variance / min / max of a
/// numeric column as a UDA (NULLs tallied separately, NaNs counted as
/// nulls — the `madlib_stats` [`Summary`] semantics).
#[derive(Debug, Clone)]
pub struct SummaryAggregate {
    column: String,
}

impl SummaryAggregate {
    /// Summarizes the named numeric column.
    pub fn new(column: impl Into<String>) -> Self {
        Self {
            column: column.into(),
        }
    }
}

impl Aggregate for SummaryAggregate {
    type State = Summary;
    type Output = Summary;

    fn initial_state(&self) -> Summary {
        Summary::new()
    }

    fn transition(&self, state: &mut Summary, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if value.is_null() {
            state.update_null();
        } else {
            state.update(value.as_double()?);
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut Summary,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        let idx = schema.index_of(&self.column)?;
        match chunk.column(idx) {
            ColumnChunk::Double { values, nulls } => {
                if nulls.any_null() {
                    for (i, v) in values.iter().enumerate() {
                        if nulls.is_null(i) {
                            state.update_null();
                        } else {
                            state.update(*v);
                        }
                    }
                } else {
                    state.update_slice(values);
                }
                Ok(())
            }
            ColumnChunk::Int { values, nulls } => {
                for (i, v) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        state.update_null();
                    } else {
                        state.update(*v as f64);
                    }
                }
                Ok(())
            }
            ColumnChunk::Bool { values, nulls } => {
                for (i, v) in values.iter().enumerate() {
                    if nulls.is_null(i) {
                        state.update_null();
                    } else {
                        state.update(if *v { 1.0 } else { 0.0 });
                    }
                }
                Ok(())
            }
            _ => transition_chunk_by_rows(self, state, chunk, schema),
        }
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.column])
    }

    fn merge(&self, mut left: Summary, right: Summary) -> Summary {
        left.merge(&right);
        left
    }

    fn finalize(&self, state: Summary) -> Result<Summary> {
        Ok(state)
    }
}

/// Approximate `count(distinct column)` over a `text` column via the
/// Flajolet–Martin sketch.  NULLs are skipped, as in SQL.
#[derive(Debug, Clone)]
pub struct FmDistinctAggregate {
    column: String,
    num_bitmaps: usize,
}

impl FmDistinctAggregate {
    /// Sketches the named text column with the MADlib-default 64 bitmaps.
    pub fn new(column: impl Into<String>) -> Self {
        Self::with_bitmaps(column, 64)
    }

    /// Sketches with an explicit bitmap count (more bitmaps → lower
    /// variance).
    ///
    /// # Panics
    /// Panics if `num_bitmaps` is zero (via [`FlajoletMartin::new`]).
    pub fn with_bitmaps(column: impl Into<String>, num_bitmaps: usize) -> Self {
        assert!(num_bitmaps > 0, "need at least one bitmap");
        Self {
            column: column.into(),
            num_bitmaps,
        }
    }
}

impl Aggregate for FmDistinctAggregate {
    type State = FlajoletMartin;
    type Output = f64;

    fn initial_state(&self) -> FlajoletMartin {
        FlajoletMartin::new(self.num_bitmaps)
    }

    fn transition(&self, state: &mut FlajoletMartin, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if !value.is_null() {
            state.update(value.as_text()?);
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut FlajoletMartin,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        for_each_text_value(self, state, chunk, schema, &self.column, |fm, text| {
            fm.update(text);
        })
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.column])
    }

    fn merge(&self, mut left: FlajoletMartin, right: FlajoletMartin) -> FlajoletMartin {
        left.merge(&right);
        left
    }

    fn finalize(&self, state: FlajoletMartin) -> Result<f64> {
        Ok(state.estimate())
    }
}

/// Count–Min frequency sketch of a `text` column as a UDA; the output is the
/// merged sketch itself so callers can issue arbitrary point queries.
/// NULLs are skipped.
#[derive(Debug, Clone)]
pub struct CountMinAggregate {
    column: String,
    depth: usize,
    width: usize,
}

impl CountMinAggregate {
    /// Sketches the named text column with an explicit `depth × width`
    /// counter matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero (via [`CountMinSketch::new`]).
    pub fn new(column: impl Into<String>, depth: usize, width: usize) -> Self {
        assert!(depth > 0 && width > 0, "sketch dimensions must be positive");
        Self {
            column: column.into(),
            depth,
            width,
        }
    }
}

impl Aggregate for CountMinAggregate {
    type State = CountMinSketch;
    type Output = CountMinSketch;

    fn initial_state(&self) -> CountMinSketch {
        CountMinSketch::new(self.depth, self.width)
    }

    fn transition(&self, state: &mut CountMinSketch, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if !value.is_null() {
            state.update(value.as_text()?, 1);
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut CountMinSketch,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        for_each_text_value(self, state, chunk, schema, &self.column, |cm, text| {
            cm.update(text, 1);
        })
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.column])
    }

    fn merge(&self, mut left: CountMinSketch, right: CountMinSketch) -> CountMinSketch {
        left.merge(&right);
        left
    }

    fn finalize(&self, state: CountMinSketch) -> Result<CountMinSketch> {
        Ok(state)
    }
}

/// Exact most-frequent-values (MFV) of a `text` column: the `k` most common
/// values with their counts, ties broken lexicographically.  NULLs are
/// skipped.
#[derive(Debug, Clone)]
pub struct MostFrequentValuesAggregate {
    column: String,
    k: usize,
}

impl MostFrequentValuesAggregate {
    /// Reports the `k` most common values of the named text column.
    pub fn new(column: impl Into<String>, k: usize) -> Self {
        Self {
            column: column.into(),
            k,
        }
    }
}

impl Aggregate for MostFrequentValuesAggregate {
    type State = FrequencyTable;
    type Output = Vec<(String, u64)>;

    fn initial_state(&self) -> FrequencyTable {
        FrequencyTable::new()
    }

    fn transition(&self, state: &mut FrequencyTable, row: &Row, schema: &Schema) -> Result<()> {
        let value = row.get_named(schema, &self.column)?;
        if !value.is_null() {
            state.update(value.as_text()?);
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut FrequencyTable,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> Result<()> {
        for_each_text_value(self, state, chunk, schema, &self.column, |freq, text| {
            freq.update(text);
        })
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![&self.column])
    }

    fn merge(&self, mut left: FrequencyTable, right: FrequencyTable) -> FrequencyTable {
        left.merge(&right);
        left
    }

    fn finalize(&self, state: FrequencyTable) -> Result<Vec<(String, u64)>> {
        Ok(state.top_k(self.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::expr::Predicate;
    use madlib_engine::{reference, row, Column, ColumnType, Dataset, Table, Value};

    fn words_table(segments: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("word", ColumnType::Text),
            Column::new("score", ColumnType::Double),
        ]);
        let mut t = Table::new(schema, segments).unwrap();
        for i in 0..300usize {
            let word = format!("w{}", i % 23);
            t.insert(row![word, i as f64]).unwrap();
        }
        t.insert(Row::new(vec![Value::Null, Value::Null])).unwrap();
        t
    }

    #[test]
    fn summary_aggregate_matches_streaming() {
        let t = words_table(4);
        let summary = Dataset::from_table(&t)
            .aggregate(&SummaryAggregate::new("score"))
            .unwrap();
        assert_eq!(summary.count(), 300);
        assert_eq!(summary.null_count(), 1);
        assert_eq!(summary.min(), Some(0.0));
        assert_eq!(summary.max(), Some(299.0));
        assert!((summary.mean().unwrap() - 149.5).abs() < 1e-9);
    }

    #[test]
    fn sketch_aggregates_agree_across_modes_and_filters() {
        let t = words_table(3);
        let dataset = Dataset::from_table(&t);

        let fm = FmDistinctAggregate::new("word");
        let a = dataset.aggregate(&fm).unwrap();
        let b = reference::aggregate(&dataset, &fm).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // PCSA is biased upward well below ~2·bitmaps distinct items; order
        // of magnitude is all the adapters promise at this cardinality.
        assert!(a > 0.0 && a < 300.0, "estimate {a} for 23 distinct");

        let cm = CountMinAggregate::new("word", 5, 256);
        let a = dataset.aggregate(&cm).unwrap();
        let b = reference::aggregate(&dataset, &cm).unwrap();
        assert_eq!(a, b);
        assert!(a.estimate("w0") >= 14);

        let mfv = MostFrequentValuesAggregate::new("word", 3);
        let a = dataset.aggregate(&mfv).unwrap();
        let b = reference::aggregate(&dataset, &mfv).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // 300 rows over 23 words: w0 appears 14 times, the rest 13.
        assert_eq!(a[0], ("w0".to_owned(), 14));

        // Filtered sketch pass via the same pipeline.
        let (filtered, stats) = dataset
            .filter(Predicate::column_lt("score", 150.0))
            .aggregate_with_stats(&MostFrequentValuesAggregate::new("word", 30))
            .unwrap();
        assert_eq!(stats.rows_aggregated, 150);
        let total: u64 = filtered.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn grouped_sketching_composes_with_the_grouped_pipeline() {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Text),
            Column::new("word", ColumnType::Text),
        ]);
        let mut t = Table::new(schema, 2).unwrap();
        for i in 0..60usize {
            let grp = if i % 2 == 0 { "a" } else { "b" };
            t.insert(row![grp, format!("w{}", i % 5)]).unwrap();
        }
        let groups = madlib_engine::Dataset::from_table(&t)
            .group_by(["grp"])
            .aggregate_per_group(&MostFrequentValuesAggregate::new("word", 10))
            .unwrap();
        assert_eq!(groups.len(), 2);
        let total: u64 = groups
            .iter()
            .flat_map(|(_, mfv)| mfv.iter().map(|(_, c)| c))
            .sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn non_text_columns_error_like_the_row_path() {
        let t = words_table(2);
        let dataset = Dataset::from_table(&t);
        let err_chunk = dataset
            .aggregate(&FmDistinctAggregate::new("score"))
            .unwrap_err();
        let err_rows =
            reference::aggregate(&dataset, &FmDistinctAggregate::new("score")).unwrap_err();
        assert_eq!(err_chunk, err_rows);
    }
}
