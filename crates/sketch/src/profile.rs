//! The `profile` module: templated per-column summaries of an arbitrary
//! table.
//!
//! Section 3.1.3 of the paper uses `profile` as its example of a templated
//! query: the input schema is arbitrary and the output schema is a function
//! of it (one set of summary columns per input column).  The implementation
//! here mirrors that shape — it introspects the schema through the engine's
//! template API, picks a summary plan per column role, and runs **one pass**
//! over the table computing numeric summaries, approximate distinct counts
//! (Flajolet–Martin), approximate quantiles and most-common values.
//!
//! The pass itself is [`ProfileAggregate`], a user-defined aggregate whose
//! state is one accumulator per column.  It runs on the executor's shared
//! scan pipeline like every other aggregate — segment-parallel, with a
//! `transition_chunk` override that streams each column's contiguous chunk
//! buffer — rather than the private serial row loop earlier versions used.
//! All the per-column accumulators are mergeable (Chan/Welford summaries,
//! Greenwald–Khanna quantile merge, bitwise-OR FM union, counter-wise CM
//! union, exact frequency tables), which is what makes the whole profile a
//! valid UDA in the paper's sense.

use crate::countmin::CountMinSketch;
use crate::fm::FlajoletMartin;
use crate::quantile::QuantileSummary;
use madlib_core::train::SinglePass;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use madlib_engine::template::{describe_schema, ColumnInfo, ColumnRole};
use madlib_engine::{Aggregate, EngineError, Result, Row, RowChunk, Schema, Value};
use madlib_stats::descriptive::FrequencyTable;
use madlib_stats::Summary;

/// Profile of one column.
#[derive(Debug, Clone)]
pub enum ColumnProfile {
    /// Numeric column: streaming summary plus approximate quantiles.
    Numeric {
        /// Column name.
        name: String,
        /// Count / mean / variance / min / max summary.
        summary: Summary,
        /// Approximate median.
        median: Option<f64>,
        /// Approximate 5th and 95th percentiles.
        percentile_05_95: (Option<f64>, Option<f64>),
    },
    /// Categorical column: distinct counts and most common values.
    Categorical {
        /// Column name.
        name: String,
        /// Non-null observations.
        non_null: u64,
        /// NULL observations.
        nulls: u64,
        /// Exact distinct count (tracked alongside the sketch for modest
        /// cardinalities).
        distinct_exact: usize,
        /// Flajolet–Martin approximate distinct count.
        distinct_estimate: f64,
        /// Most common values with exact counts.
        most_common: Vec<(String, u64)>,
        /// Count–Min estimate for the most common value (sanity cross-check).
        most_common_cm_estimate: u64,
    },
    /// Array column: only element-count statistics are profiled.
    Array {
        /// Column name.
        name: String,
        /// Summary of the array lengths.
        length_summary: Summary,
    },
}

impl ColumnProfile {
    /// The profiled column's name.
    pub fn name(&self) -> &str {
        match self {
            ColumnProfile::Numeric { name, .. }
            | ColumnProfile::Categorical { name, .. }
            | ColumnProfile::Array { name, .. } => name,
        }
    }
}

/// Profile of a whole table.
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Number of rows profiled.
    pub row_count: usize,
    /// One profile per column, in schema order.
    pub columns: Vec<ColumnProfile>,
}

/// Per-column accumulator of the profile pass, selected by
/// [`ColumnRole`].
#[derive(Debug, Clone)]
enum ColumnAccumulator {
    Numeric {
        summary: Summary,
        quantiles: QuantileSummary,
    },
    Categorical {
        frequencies: FrequencyTable,
        fm: FlajoletMartin,
        cm: CountMinSketch,
        nulls: u64,
    },
    Array {
        length_summary: Summary,
    },
}

impl ColumnAccumulator {
    fn for_role(role: ColumnRole) -> Self {
        match role {
            ColumnRole::Numeric => ColumnAccumulator::Numeric {
                summary: Summary::new(),
                quantiles: QuantileSummary::new(0.01),
            },
            ColumnRole::Categorical => ColumnAccumulator::Categorical {
                frequencies: FrequencyTable::new(),
                fm: FlajoletMartin::new(64),
                cm: CountMinSketch::new(5, 512),
                nulls: 0,
            },
            ColumnRole::FeatureVector | ColumnRole::OtherArray => ColumnAccumulator::Array {
                length_summary: Summary::new(),
            },
        }
    }

    /// Per-row update — the transition the chunked fast paths must match.
    fn update_from_value(&mut self, value: &Value) -> Result<()> {
        match self {
            ColumnAccumulator::Numeric { summary, quantiles } => match value {
                Value::Null => summary.update_null(),
                v => {
                    let x = v.as_double()?;
                    summary.update(x);
                    quantiles.insert(x);
                }
            },
            ColumnAccumulator::Categorical {
                frequencies,
                fm,
                cm,
                nulls,
            } => match value {
                Value::Null => *nulls += 1,
                v => {
                    let text = v.as_text()?;
                    frequencies.update(text);
                    fm.update(text);
                    cm.update(text, 1);
                }
            },
            ColumnAccumulator::Array { length_summary } => {
                let len = match value {
                    Value::Null => {
                        length_summary.update_null();
                        return Ok(());
                    }
                    Value::DoubleArray(a) => a.len(),
                    Value::TextArray(a) => a.len(),
                    Value::IntArray(a) => a.len(),
                    other => {
                        return Err(EngineError::TypeMismatch {
                            expected: "array",
                            found: other.type_name().to_owned(),
                        })
                    }
                };
                length_summary.update(len as f64);
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: &ColumnAccumulator) {
        match (self, other) {
            (
                ColumnAccumulator::Numeric { summary, quantiles },
                ColumnAccumulator::Numeric {
                    summary: other_summary,
                    quantiles: other_quantiles,
                },
            ) => {
                summary.merge(other_summary);
                quantiles.merge(other_quantiles);
            }
            (
                ColumnAccumulator::Categorical {
                    frequencies,
                    fm,
                    cm,
                    nulls,
                },
                ColumnAccumulator::Categorical {
                    frequencies: other_frequencies,
                    fm: other_fm,
                    cm: other_cm,
                    nulls: other_nulls,
                },
            ) => {
                frequencies.merge(other_frequencies);
                fm.merge(other_fm);
                cm.merge(other_cm);
                *nulls += other_nulls;
            }
            (
                ColumnAccumulator::Array { length_summary },
                ColumnAccumulator::Array {
                    length_summary: other_length_summary,
                },
            ) => length_summary.merge(other_length_summary),
            // States built from the same schema always pair up.
            _ => unreachable!("mismatched profile accumulators"),
        }
    }

    fn into_profile(self, name: String) -> ColumnProfile {
        match self {
            ColumnAccumulator::Numeric { summary, quantiles } => ColumnProfile::Numeric {
                name,
                median: quantiles.median(),
                percentile_05_95: (quantiles.quantile(0.05), quantiles.quantile(0.95)),
                summary,
            },
            ColumnAccumulator::Categorical {
                frequencies,
                fm,
                cm,
                nulls,
            } => {
                let most_common = frequencies.top_k(5);
                let most_common_cm_estimate = most_common
                    .first()
                    .map(|(value, _)| cm.estimate(value))
                    .unwrap_or(0);
                ColumnProfile::Categorical {
                    name,
                    non_null: frequencies.total(),
                    nulls,
                    distinct_exact: frequencies.distinct_count(),
                    distinct_estimate: fm.estimate(),
                    most_common,
                    most_common_cm_estimate,
                }
            }
            ColumnAccumulator::Array { length_summary } => ColumnProfile::Array {
                name,
                length_summary,
            },
        }
    }
}

/// Transition state of [`ProfileAggregate`]: row count plus one accumulator
/// per column.
#[derive(Debug, Clone)]
pub struct ProfileState {
    row_count: u64,
    columns: Vec<ColumnAccumulator>,
}

/// The whole-table profile as a single user-defined aggregate.
///
/// Build one with [`ProfileAggregate::new`] from the table's schema (the
/// templated step: the aggregate's state shape is a function of the input
/// schema) and run it through any [`Dataset`] — it behaves like every other
/// aggregate, including under filters and grouping.  A profile reads every
/// column, so it keeps the default [`Aggregate::input_columns`] of `None`:
/// the filtered and grouped scans copy whole rows for it.
#[derive(Debug, Clone)]
pub struct ProfileAggregate {
    infos: Vec<ColumnInfo>,
}

impl ProfileAggregate {
    /// Plans a profile pass for `schema` (one accumulator per column, chosen
    /// by the column's [`ColumnRole`]).
    pub fn new(schema: &Schema) -> Self {
        Self {
            infos: describe_schema(schema),
        }
    }
}

impl Aggregate for ProfileAggregate {
    type State = ProfileState;
    type Output = TableProfile;

    fn initial_state(&self) -> ProfileState {
        ProfileState {
            row_count: 0,
            columns: self
                .infos
                .iter()
                .map(|info| ColumnAccumulator::for_role(info.role))
                .collect(),
        }
    }

    fn transition(&self, state: &mut ProfileState, row: &Row, _schema: &Schema) -> Result<()> {
        state.row_count += 1;
        for (idx, acc) in state.columns.iter_mut().enumerate() {
            acc.update_from_value(row.get(idx))?;
        }
        Ok(())
    }

    fn transition_chunk(
        &self,
        state: &mut ProfileState,
        chunk: &RowChunk,
        _schema: &Schema,
    ) -> Result<()> {
        state.row_count += chunk.len() as u64;
        for (idx, acc) in state.columns.iter_mut().enumerate() {
            let column = chunk.column(idx);
            match (acc, column) {
                (
                    ColumnAccumulator::Numeric { summary, quantiles },
                    ColumnChunk::Double { values, nulls },
                ) => {
                    for (i, v) in values.iter().enumerate() {
                        if nulls.is_null(i) {
                            summary.update_null();
                        } else {
                            summary.update(*v);
                            quantiles.insert(*v);
                        }
                    }
                }
                (
                    ColumnAccumulator::Numeric { summary, quantiles },
                    ColumnChunk::Int { values, nulls },
                ) => {
                    for (i, v) in values.iter().enumerate() {
                        if nulls.is_null(i) {
                            summary.update_null();
                        } else {
                            summary.update(*v as f64);
                            quantiles.insert(*v as f64);
                        }
                    }
                }
                (
                    ColumnAccumulator::Numeric { summary, quantiles },
                    ColumnChunk::Bool { values, nulls },
                ) => {
                    for (i, v) in values.iter().enumerate() {
                        if nulls.is_null(i) {
                            summary.update_null();
                        } else {
                            let x = if *v { 1.0 } else { 0.0 };
                            summary.update(x);
                            quantiles.insert(x);
                        }
                    }
                }
                (
                    ColumnAccumulator::Categorical {
                        frequencies,
                        fm,
                        cm,
                        nulls: null_count,
                    },
                    ColumnChunk::Text { values, nulls },
                ) => {
                    for (i, text) in values.iter().enumerate() {
                        if nulls.is_null(i) {
                            *null_count += 1;
                        } else {
                            frequencies.update(text);
                            fm.update(text);
                            cm.update(text, 1);
                        }
                    }
                }
                (
                    ColumnAccumulator::Array { length_summary },
                    ColumnChunk::DoubleArray { offsets, nulls, .. }
                    | ColumnChunk::IntArray { offsets, nulls, .. }
                    | ColumnChunk::TextArray { offsets, nulls, .. },
                ) => {
                    for i in 0..nulls.len() {
                        if nulls.is_null(i) {
                            length_summary.update_null();
                        } else {
                            length_summary.update((offsets[i + 1] - offsets[i]) as f64);
                        }
                    }
                }
                // Role/storage mismatch (only possible for exotic schemas):
                // materialize values and use the per-row update, which
                // raises the same errors the row path would.
                (acc, column) => {
                    for i in 0..chunk.len() {
                        acc.update_from_value(&column.value(i))?;
                    }
                }
            }
        }
        Ok(())
    }

    fn merge(&self, mut left: ProfileState, right: ProfileState) -> ProfileState {
        left.row_count += right.row_count;
        for (a, b) in left.columns.iter_mut().zip(&right.columns) {
            a.merge(b);
        }
        left
    }

    fn finalize(&self, state: ProfileState) -> Result<TableProfile> {
        Ok(TableProfile {
            row_count: state.row_count as usize,
            columns: state
                .columns
                .into_iter()
                .zip(&self.infos)
                .map(|(acc, info)| acc.into_profile(info.name.clone()))
                .collect(),
        })
    }
}

/// Adds the `profile()` terminal operation to [`Dataset`].
pub trait DatasetProfileExt {
    /// Profiles every column of the dataset's (filtered) rows in one pass
    /// over the shared scan pipeline (segment-parallel, chunk-at-a-time under
    /// the dataset's executor).
    ///
    /// # Errors
    /// Propagates engine access and predicate errors; errors on a grouped
    /// dataset (run [`Profiler`] through `Session::train_grouped` for
    /// per-group profiles).
    fn profile(&self) -> Result<TableProfile>;
}

impl DatasetProfileExt for Dataset<'_> {
    fn profile(&self) -> Result<TableProfile> {
        self.aggregate(&ProfileAggregate::new(self.schema()))
    }
}

/// The profile pass packaged as a [`SinglePass`] estimator, so profiling
/// composes with the uniform training convention — in particular
/// `Session::train_grouped(&Profiler, &ds.group_by([...]))` produces one
/// [`TableProfile`] per group in a single grouped scan (the paper's
/// templated `profile` module meeting its `grouping_cols`), including one
/// profile per composite key for multi-column `group_by`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiler;

/// The templated step: the aggregate's state shape is a function of the
/// schema.  The accumulators have no state codec, so the incremental view is
/// not persisted: after a restart it rebuilds from the recovered table.
impl SinglePass for Profiler {
    type Aggregate = ProfileAggregate;

    fn aggregate(&self, schema: &Schema) -> ProfileAggregate {
        ProfileAggregate::new(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::Table;
    use madlib_engine::{reference, row, Column, ColumnType, Row, Schema};

    fn mixed_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("amount", ColumnType::Double),
            Column::new("category", ColumnType::Text),
            Column::new("features", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, 3).unwrap();
        for i in 0..200 {
            let category = match i % 4 {
                0 | 1 => "retail",
                2 => "wholesale",
                _ => "online",
            };
            t.insert(row![i as f64, category, vec![1.0; (i % 5) + 1]])
                .unwrap();
        }
        // A NULL row for null accounting.
        t.insert(Row::new(vec![Value::Null, Value::Null, Value::Null]))
            .unwrap();
        t
    }

    #[test]
    fn profiles_every_column_with_the_right_role() {
        let t = mixed_table();
        let profile = Dataset::from_table(&t).profile().unwrap();
        assert_eq!(profile.row_count, 201);
        assert_eq!(profile.columns.len(), 3);
        assert_eq!(profile.columns[0].name(), "amount");
        assert_eq!(profile.columns[1].name(), "category");
        assert_eq!(profile.columns[2].name(), "features");

        match &profile.columns[0] {
            ColumnProfile::Numeric {
                summary,
                median,
                percentile_05_95,
                ..
            } => {
                assert_eq!(summary.count(), 200);
                assert_eq!(summary.null_count(), 1);
                assert_eq!(summary.min(), Some(0.0));
                assert_eq!(summary.max(), Some(199.0));
                assert!((summary.mean().unwrap() - 99.5).abs() < 1e-9);
                let median = median.unwrap();
                assert!((80.0..=120.0).contains(&median));
                assert!(percentile_05_95.0.unwrap() < percentile_05_95.1.unwrap());
            }
            other => panic!("expected numeric profile, got {other:?}"),
        }

        match &profile.columns[1] {
            ColumnProfile::Categorical {
                non_null,
                nulls,
                distinct_exact,
                distinct_estimate,
                most_common,
                most_common_cm_estimate,
                ..
            } => {
                assert_eq!(*non_null, 200);
                assert_eq!(*nulls, 1);
                assert_eq!(*distinct_exact, 3);
                assert!(*distinct_estimate > 0.0);
                assert_eq!(most_common[0].0, "retail");
                assert_eq!(most_common[0].1, 100);
                assert!(*most_common_cm_estimate >= 100);
            }
            other => panic!("expected categorical profile, got {other:?}"),
        }

        match &profile.columns[2] {
            ColumnProfile::Array { length_summary, .. } => {
                assert_eq!(length_summary.count(), 200);
                assert_eq!(length_summary.min(), Some(1.0));
                assert_eq!(length_summary.max(), Some(5.0));
            }
            other => panic!("expected array profile, got {other:?}"),
        }
    }

    #[test]
    fn chunked_and_row_profiles_agree_on_exact_fields() {
        let t = mixed_table();
        let chunked = Dataset::from_table(&t).profile().unwrap();
        let by_rows =
            reference::aggregate(&Dataset::from_table(&t), &ProfileAggregate::new(t.schema()))
                .unwrap();
        assert_eq!(chunked.row_count, by_rows.row_count);
        for (a, b) in chunked.columns.iter().zip(&by_rows.columns) {
            match (a, b) {
                (
                    ColumnProfile::Numeric {
                        summary: sa,
                        median: ma,
                        ..
                    },
                    ColumnProfile::Numeric {
                        summary: sb,
                        median: mb,
                        ..
                    },
                ) => {
                    // Identical per-segment streams → identical states.
                    assert_eq!(sa, sb);
                    assert_eq!(
                        ma.map(f64::to_bits),
                        mb.map(f64::to_bits),
                        "quantile summaries saw identical insert sequences"
                    );
                }
                (
                    ColumnProfile::Categorical {
                        non_null: na,
                        nulls: la,
                        distinct_exact: da,
                        distinct_estimate: ea,
                        most_common: ca,
                        ..
                    },
                    ColumnProfile::Categorical {
                        non_null: nb,
                        nulls: lb,
                        distinct_exact: db,
                        distinct_estimate: eb,
                        most_common: cb,
                        ..
                    },
                ) => {
                    assert_eq!((na, la, da, ca), (nb, lb, db, cb));
                    assert_eq!(ea.to_bits(), eb.to_bits());
                }
                (
                    ColumnProfile::Array {
                        length_summary: a, ..
                    },
                    ColumnProfile::Array {
                        length_summary: b, ..
                    },
                ) => assert_eq!(a, b),
                other => panic!("profile shapes diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_table_profile() {
        let schema = Schema::new(vec![Column::new("x", ColumnType::Double)]);
        let t = Table::new(schema, 2).unwrap();
        let profile = Dataset::from_table(&t).profile().unwrap();
        assert_eq!(profile.row_count, 0);
        match &profile.columns[0] {
            ColumnProfile::Numeric {
                summary, median, ..
            } => {
                assert_eq!(summary.count(), 0);
                assert_eq!(*median, None);
            }
            other => panic!("unexpected profile {other:?}"),
        }
    }
}
