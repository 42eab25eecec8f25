//! Simple row predicates.
//!
//! The engine does not ship a SQL parser — MADlib's macro-programming layer
//! only needs scans, filters, aggregates and temp tables; the first three
//! have programmatic equivalents here, and the last is not needed (a
//! driver's state is its next pass's argument, `madlib_core::train::Iterative`).
//! [`Predicate`] covers the `WHERE` clauses the method drivers actually
//! issue (equality / comparison on a column, conjunction, negation).

use crate::chunk::{ColumnChunk, RowChunk, SelectionMask};
use crate::error::{EngineError, Result};
use crate::group::{GroupKey, KeyPart};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// A boolean-valued expression over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    /// Named column equals the given value (SQL `=`; NULL never matches).
    ColumnEquals {
        /// Column name.
        column: String,
        /// Comparison value.
        value: Value,
    },
    /// Named numeric column is strictly greater than the threshold.
    ColumnGreaterThan {
        /// Column name.
        column: String,
        /// Threshold.
        threshold: f64,
    },
    /// Named numeric column is strictly less than the threshold.
    ColumnLessThan {
        /// Column name.
        column: String,
        /// Threshold.
        threshold: f64,
    },
    /// Named column is NULL.
    ColumnIsNull {
        /// Column name.
        column: String,
    },
    /// The named columns' *group key* equals the given (possibly composite)
    /// key — a per-column conjunction of SQL's `IS NOT DISTINCT FROM` with
    /// the grouping semantics of [`crate::group::GroupKey`]: NULL matches
    /// NULL, NaN matches NaN, and `-0.0` / `0.0` are distinct, column by
    /// column.  This is the predicate that selects exactly the rows of one
    /// group produced by a grouped scan (one column per key part), which
    /// plain [`Predicate::ColumnEquals`] cannot do for NULL or NaN keys.
    ColumnIs {
        /// Column names, one per key part.
        columns: Vec<String>,
        /// The group key to match (arity must equal the column count).
        key: GroupKey,
    },
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for [`Predicate::ColumnEquals`].
    pub fn column_eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::ColumnEquals {
            column: column.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for [`Predicate::ColumnGreaterThan`].
    pub fn column_gt(column: impl Into<String>, threshold: f64) -> Self {
        Predicate::ColumnGreaterThan {
            column: column.into(),
            threshold,
        }
    }

    /// Convenience constructor for [`Predicate::ColumnLessThan`].
    pub fn column_lt(column: impl Into<String>, threshold: f64) -> Self {
        Predicate::ColumnLessThan {
            column: column.into(),
            threshold,
        }
    }

    /// Convenience constructor for [`Predicate::ColumnIs`]: matches rows
    /// whose group key equals the key of `value` (NULL matches NULL, NaN
    /// matches NaN, `-0.0` and `0.0` are distinct).
    pub fn column_is(column: impl Into<String>, value: &Value) -> Self {
        Predicate::ColumnIs {
            columns: vec![column.into()],
            key: GroupKey::from_value(value),
        }
    }

    /// Convenience constructor for [`Predicate::ColumnIs`] from an already-
    /// derived single-column [`GroupKey`] (e.g. one returned by a grouped
    /// scan over one grouping column).  For composite keys use
    /// [`Predicate::columns_are_key`].
    pub fn column_is_key(column: impl Into<String>, key: GroupKey) -> Self {
        Predicate::ColumnIs {
            columns: vec![column.into()],
            key,
        }
    }

    /// Convenience constructor for [`Predicate::ColumnIs`] matching a
    /// (possibly composite) group key against one column per key part — the
    /// predicate that filters a source dataset down to exactly one group of
    /// `group_by(columns)`.
    pub fn columns_are_key<I, S>(columns: I, key: GroupKey) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Predicate::ColumnIs {
            columns: columns.into_iter().map(Into::into).collect(),
            key,
        }
    }

    /// Conjunction.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate against a row.
    ///
    /// # Errors
    /// Propagates column-lookup and numeric-coercion errors.
    pub fn evaluate(&self, row: &Row, schema: &Schema) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::ColumnEquals { column, value } => {
                let v = row.get_named(schema, column)?;
                if v.is_null() || value.is_null() {
                    return Ok(false);
                }
                Ok(v == value)
            }
            Predicate::ColumnGreaterThan { column, threshold } => {
                let v = row.get_named(schema, column)?;
                if v.is_null() {
                    return Ok(false);
                }
                Ok(v.as_double()? > *threshold)
            }
            Predicate::ColumnLessThan { column, threshold } => {
                let v = row.get_named(schema, column)?;
                if v.is_null() {
                    return Ok(false);
                }
                Ok(v.as_double()? < *threshold)
            }
            Predicate::ColumnIsNull { column } => Ok(row.get_named(schema, column)?.is_null()),
            Predicate::ColumnIs { columns, key } => {
                let parts = check_key_arity(columns, key)?;
                for (column, part) in columns.iter().zip(parts) {
                    if KeyPart::from_value(row.get_named(schema, column)?) != *part {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::And(a, b) => Ok(a.evaluate(row, schema)? && b.evaluate(row, schema)?),
            Predicate::Or(a, b) => Ok(a.evaluate(row, schema)? || b.evaluate(row, schema)?),
            Predicate::Not(p) => Ok(!p.evaluate(row, schema)?),
        }
    }

    /// Evaluates the predicate over a whole column-major chunk at once,
    /// returning one selection bit per row.
    ///
    /// This is the filter hoisted out of the per-row transition loop: scalar
    /// comparisons run over contiguous column slices and boolean combinators
    /// become bitmask operations.  Results match [`Predicate::evaluate`] row
    /// for row, with one deliberate difference: `And`/`Or` evaluate both
    /// sides over the full chunk (no per-row short-circuiting), so a
    /// type-error in the right-hand side surfaces even for rows where the
    /// left-hand side already decided the outcome.
    ///
    /// # Errors
    /// Propagates column-lookup and numeric-coercion errors.
    pub fn evaluate_chunk(&self, chunk: &RowChunk, schema: &Schema) -> Result<SelectionMask> {
        let rows = chunk.len();
        match self {
            Predicate::True => Ok(SelectionMask::all(rows)),
            Predicate::ColumnEquals { column, value } => {
                let idx = schema.index_of(column)?;
                if value.is_null() {
                    return Ok(SelectionMask::none(rows));
                }
                let mut mask = SelectionMask::none(rows);
                match (chunk.column(idx), value) {
                    (ColumnChunk::Double { values, nulls }, Value::Double(t)) => {
                        for (i, v) in values.iter().enumerate() {
                            if !nulls.is_null(i) && v == t {
                                mask.set(i, true);
                            }
                        }
                    }
                    (ColumnChunk::Int { values, nulls }, Value::Int(t)) => {
                        for (i, v) in values.iter().enumerate() {
                            if !nulls.is_null(i) && v == t {
                                mask.set(i, true);
                            }
                        }
                    }
                    (ColumnChunk::Bool { values, nulls }, Value::Bool(t)) => {
                        for (i, v) in values.iter().enumerate() {
                            if !nulls.is_null(i) && v == t {
                                mask.set(i, true);
                            }
                        }
                    }
                    (ColumnChunk::Text { values, nulls }, Value::Text(t)) => {
                        for (i, v) in values.iter().enumerate() {
                            if !nulls.is_null(i) && v == t {
                                mask.set(i, true);
                            }
                        }
                    }
                    (other, _) => {
                        // Cross-type comparison or array column: materialize
                        // per row (rare in practice).
                        let nulls = other.nulls();
                        for i in 0..rows {
                            if !nulls.is_null(i) && &other.value(i) == value {
                                mask.set(i, true);
                            }
                        }
                    }
                }
                Ok(mask)
            }
            Predicate::ColumnGreaterThan { column, threshold } => {
                numeric_comparison_mask(chunk, schema, column, |v| v > *threshold)
            }
            Predicate::ColumnLessThan { column, threshold } => {
                numeric_comparison_mask(chunk, schema, column, |v| v < *threshold)
            }
            Predicate::ColumnIsNull { column } => {
                let idx = schema.index_of(column)?;
                let nulls = chunk.column(idx).nulls();
                let mut mask = SelectionMask::none(rows);
                for i in 0..rows {
                    if nulls.is_null(i) {
                        mask.set(i, true);
                    }
                }
                Ok(mask)
            }
            Predicate::ColumnIs { columns, key } => {
                let parts = check_key_arity(columns, key)?;
                // Per-column conjunction: start from all rows and knock out
                // rows whose part does not match, one key column at a time.
                let mut mask = SelectionMask::all(rows);
                for (column, part) in columns.iter().zip(parts) {
                    let idx = schema.index_of(column)?;
                    let column = chunk.column(idx);
                    for i in 0..rows {
                        if mask.is_selected(i) && !part.matches_column(column, i) {
                            mask.set(i, false);
                        }
                    }
                }
                Ok(mask)
            }
            Predicate::And(a, b) => {
                let mut mask = a.evaluate_chunk(chunk, schema)?;
                mask.and_with(&b.evaluate_chunk(chunk, schema)?);
                Ok(mask)
            }
            Predicate::Or(a, b) => {
                let mut mask = a.evaluate_chunk(chunk, schema)?;
                mask.or_with(&b.evaluate_chunk(chunk, schema)?);
                Ok(mask)
            }
            Predicate::Not(p) => {
                let mut mask = p.evaluate_chunk(chunk, schema)?;
                mask.negate();
                Ok(mask)
            }
        }
    }
}

/// Validates that a [`Predicate::ColumnIs`] key names at least one column
/// and has exactly one part per named column, returning the parts on
/// success.  The empty predicate is rejected rather than vacuously matching
/// every row — mirroring `Dataset::group_by([])`, which is an error too.
fn check_key_arity<'k>(columns: &[String], key: &'k GroupKey) -> Result<&'k [KeyPart]> {
    if columns.is_empty() {
        return Err(EngineError::invalid(
            "ColumnIs needs at least one column; an empty column list would match every row",
        ));
    }
    let parts = key.parts();
    if parts.len() != columns.len() {
        return Err(EngineError::invalid(format!(
            "ColumnIs key arity mismatch: {} column(s) but a {}-part key",
            columns.len(),
            parts.len()
        )));
    }
    Ok(parts)
}

/// Vectorized `column <op> threshold` over a numeric column.  NULL rows never
/// match; non-numeric columns raise the same type error the per-row path
/// raises when it reads a non-null value (and stay silent when the column is
/// entirely NULL, again matching the per-row path).
fn numeric_comparison_mask(
    chunk: &RowChunk,
    schema: &Schema,
    column: &str,
    accept: impl Fn(f64) -> bool,
) -> Result<SelectionMask> {
    let idx = schema.index_of(column)?;
    let rows = chunk.len();
    let mut mask = SelectionMask::none(rows);
    match chunk.column(idx) {
        ColumnChunk::Double { values, nulls } => {
            for (i, v) in values.iter().enumerate() {
                if !nulls.is_null(i) && accept(*v) {
                    mask.set(i, true);
                }
            }
        }
        ColumnChunk::Int { values, nulls } => {
            for (i, v) in values.iter().enumerate() {
                if !nulls.is_null(i) && accept(*v as f64) {
                    mask.set(i, true);
                }
            }
        }
        ColumnChunk::Bool { values, nulls } => {
            for (i, v) in values.iter().enumerate() {
                if !nulls.is_null(i) && accept(if *v { 1.0 } else { 0.0 }) {
                    mask.set(i, true);
                }
            }
        }
        other => {
            if other.nulls().null_count() < rows {
                return Err(EngineError::TypeMismatch {
                    expected: "double precision",
                    found: other.type_name().to_owned(),
                });
            }
        }
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType};
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("label", ColumnType::Text),
            Column::new("score", ColumnType::Double),
        ])
    }

    #[test]
    fn comparison_predicates() {
        let s = schema();
        let r = row!["spam", 0.8];
        assert!(Predicate::column_eq("label", "spam")
            .evaluate(&r, &s)
            .unwrap());
        assert!(!Predicate::column_eq("label", "ham")
            .evaluate(&r, &s)
            .unwrap());
        assert!(Predicate::column_gt("score", 0.5).evaluate(&r, &s).unwrap());
        assert!(Predicate::column_lt("score", 0.9).evaluate(&r, &s).unwrap());
        assert!(!Predicate::column_lt("score", 0.8).evaluate(&r, &s).unwrap());
        assert!(Predicate::True.evaluate(&r, &s).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row!["spam", 0.8];
        let p = Predicate::column_eq("label", "spam").and(Predicate::column_gt("score", 0.5));
        assert!(p.evaluate(&r, &s).unwrap());
        let q = Predicate::column_eq("label", "ham").or(Predicate::column_gt("score", 0.5));
        assert!(q.evaluate(&r, &s).unwrap());
        assert!(!q.not().evaluate(&r, &s).unwrap());
    }

    #[test]
    fn null_handling() {
        let s = schema();
        let r = Row::new(vec![Value::Null, Value::Null]);
        assert!(!Predicate::column_eq("label", "spam")
            .evaluate(&r, &s)
            .unwrap());
        assert!(!Predicate::column_gt("score", 0.0).evaluate(&r, &s).unwrap());
        assert!(!Predicate::column_lt("score", 0.0).evaluate(&r, &s).unwrap());
        assert!(Predicate::ColumnIsNull {
            column: "score".into()
        }
        .evaluate(&r, &s)
        .unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        let r = row!["x", 1.0];
        assert!(Predicate::column_eq("nope", 1.0).evaluate(&r, &s).is_err());
    }

    #[test]
    fn composite_column_is_conjoins_per_column() {
        use crate::chunk::RowChunk;
        use crate::group::GroupKey;

        let s = schema();
        let mut chunk = RowChunk::new(&s);
        chunk.push_values(row!["spam", 0.0].values()).unwrap();
        chunk.push_values(row!["spam", -0.0].values()).unwrap();
        chunk.push_values(row!["ham", 0.0].values()).unwrap();
        chunk
            .push_values(&[Value::Null, Value::Double(f64::NAN)])
            .unwrap();

        let key = |label: &Value, score: &Value| GroupKey::from_values([label, score]);
        let spam_zero = Predicate::columns_are_key(
            ["label", "score"],
            key(&Value::Text("spam".into()), &Value::Double(0.0)),
        );
        let null_nan = Predicate::columns_are_key(
            ["label", "score"],
            key(&Value::Null, &Value::Double(f64::NAN)),
        );
        // Row and chunk evaluation agree: only the exact tuple matches,
        // with -0.0 distinct from 0.0 and NULL/NaN matching themselves.
        for (pred, expected) in [
            (&spam_zero, [true, false, false, false]),
            (&null_nan, [false, false, false, true]),
        ] {
            let mask = pred.evaluate_chunk(&chunk, &s).unwrap();
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(mask.is_selected(i), *want, "chunk eval, row {i}");
                assert_eq!(pred.evaluate(&chunk.row(i), &s).unwrap(), *want, "row {i}");
            }
        }

        // Arity mismatches are typed errors on both paths, and the empty
        // predicate is rejected instead of matching every row.
        let wrong = Predicate::columns_are_key(["label"], key(&Value::Null, &Value::Null));
        assert!(wrong.evaluate(&chunk.row(0), &s).is_err());
        assert!(wrong.evaluate_chunk(&chunk, &s).is_err());
        let empty = Predicate::columns_are_key(
            Vec::<String>::new(),
            GroupKey::from_values(std::iter::empty()),
        );
        assert!(empty.evaluate(&chunk.row(0), &s).is_err());
        assert!(empty.evaluate_chunk(&chunk, &s).is_err());
    }

    /// One column per fast-path type of `ColumnEquals`, plus an array column
    /// for its per-row arm.
    const COLUMNS: [&str; 5] = ["b", "i", "d", "t", "a"];

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Column::new("b", ColumnType::Bool),
            Column::new("i", ColumnType::Int),
            Column::new("d", ColumnType::Double),
            Column::new("t", ColumnType::Text),
            Column::new("a", ColumnType::DoubleArray),
        ])
    }

    /// Value `code` of column `column`: code 0 is NULL, the rest a small
    /// domain (so equalities hit) that holds NaN, ±0.0 and -∞ for doubles.
    fn cell(column: usize, code: usize) -> Value {
        const DOUBLES: [f64; 6] = [0.0, -0.0, 1.5, f64::NAN, f64::NEG_INFINITY, 2.0];
        match (column, code) {
            (_, 0) => Value::Null,
            (0, c) => Value::Bool(c % 2 == 0),
            (1, c) => Value::Int(c as i64 - 3),
            (2, c) => Value::Double(DOUBLES[c % DOUBLES.len()]),
            (3, c) => Value::Text(["x", "y", "z"][c % 3].to_owned()),
            (_, c) => Value::DoubleArray(vec![DOUBLES[c % DOUBLES.len()]; c % 3]),
        }
    }

    /// A predicate tree read off `codes` (operator, column, value code),
    /// depth-first; its leaves cannot fail over [`wide_schema`].
    fn tree(codes: &mut std::slice::Iter<'_, (usize, usize, usize)>, depth: usize) -> Predicate {
        const THRESHOLDS: [f64; 5] = [f64::NAN, 0.0, -0.0, 1.0, -3.0];
        let Some(&(op, column, code)) = codes.next() else {
            return Predicate::True;
        };
        let name = COLUMNS[column];
        match op {
            0 if depth < 4 => tree(codes, depth + 1).and(tree(codes, depth + 1)),
            1 if depth < 4 => tree(codes, depth + 1).or(tree(codes, depth + 1)),
            2 if depth < 4 => tree(codes, depth + 1).not(),
            3 => Predicate::column_eq(name, cell(column, code)),
            // A value of the next column's type: a cross-type comparison.
            4 => Predicate::column_eq(name, cell((column + 1) % 5, code.max(1))),
            5 => Predicate::column_gt(COLUMNS[column % 3], THRESHOLDS[code % 5]),
            6 => Predicate::column_lt(COLUMNS[column % 3], THRESHOLDS[code % 5]),
            7 => Predicate::ColumnIsNull {
                column: name.into(),
            },
            8 => Predicate::column_is(name, &cell(column, code)),
            _ => Predicate::columns_are_key(
                ["d", "t"],
                GroupKey::from_values([&cell(2, code), &cell(3, column)]),
            ),
        }
    }

    proptest! {
        /// `evaluate_chunk` selects exactly the rows `evaluate` accepts, for
        /// random predicate trees over random NULL-bearing chunks.  Failing
        /// leaves are checked alone (`And` / `Or` do not short-circuit over a
        /// chunk): the chunk fails iff a row does, with the first row's error.
        #[test]
        fn evaluate_chunk_is_evaluate_row_by_row(
            rows in prop::collection::vec([0usize..7, 0usize..7, 0usize..7, 0usize..7, 0usize..7], 0..40),
            codes in prop::collection::vec((0usize..10, 0usize..5, 0usize..7), 1..16),
        ) {
            let schema = wide_schema();
            let mut chunk = RowChunk::new(&schema);
            for row in &rows {
                let values: Vec<Value> =
                    row.iter().enumerate().map(|(c, &code)| cell(c, code)).collect();
                chunk.push_values(&values).unwrap();
            }
            let by_rows = |predicate: &Predicate| -> Result<Vec<bool>> {
                (0..chunk.len()).map(|i| predicate.evaluate(&chunk.row(i), &schema)).collect()
            };
            let selected = |mask: &SelectionMask| {
                (0..chunk.len()).map(|i| mask.is_selected(i)).collect::<Vec<_>>()
            };

            let predicate = tree(&mut codes.iter(), 0);
            let mask = predicate.evaluate_chunk(&chunk, &schema).unwrap();
            prop_assert_eq!(selected(&mask), by_rows(&predicate).unwrap(), "{:?}", predicate);

            for failing in [
                Predicate::column_eq("nope", 1.0),
                Predicate::column_gt("nope", 0.0),
                Predicate::ColumnIsNull { column: "nope".into() },
                Predicate::column_is("nope", &Value::Null),
                Predicate::column_lt("t", 0.0),
                Predicate::column_gt("a", 0.0),
            ] {
                match (failing.evaluate_chunk(&chunk, &schema), by_rows(&failing)) {
                    (Ok(mask), Ok(rows)) => prop_assert_eq!(selected(&mask), rows),
                    (Err(chunked), Err(first)) => prop_assert_eq!(chunked, first),
                    // An unknown column is an error even over no rows.
                    (Err(_), Ok(rows)) => prop_assert!(rows.is_empty(), "{:?}", failing),
                    (Ok(_), Err(e)) => prop_assert!(false, "{:?}: rows fail with {:?}", failing, e),
                }
            }
        }
    }
}
