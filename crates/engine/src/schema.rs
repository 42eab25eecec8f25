//! Table schemas.

use crate::error::{EngineError, Result};
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Column data types understood by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// `boolean`
    Bool,
    /// `bigint`
    Int,
    /// `double precision`
    Double,
    /// `text`
    Text,
    /// `double precision[]`
    DoubleArray,
    /// `text[]`
    TextArray,
    /// `bigint[]`
    IntArray,
}

impl ColumnType {
    /// Whether `value` is acceptable for a column of this type (NULL is
    /// always acceptable).
    pub fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Bool, Value::Bool(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Double, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::DoubleArray, Value::DoubleArray(_))
                | (ColumnType::TextArray, Value::TextArray(_))
                | (ColumnType::IntArray, Value::IntArray(_))
        )
    }

    /// SQL-ish name of the type.
    pub fn sql_name(&self) -> &'static str {
        match self {
            ColumnType::Bool => "boolean",
            ColumnType::Int => "bigint",
            ColumnType::Double => "double precision",
            ColumnType::Text => "text",
            ColumnType::DoubleArray => "double precision[]",
            ColumnType::TextArray => "text[]",
            ColumnType::IntArray => "bigint[]",
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub column_type: ColumnType,
}

impl Column {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, column_type: ColumnType) -> Self {
        Self {
            name: name.into(),
            column_type,
        }
    }

    /// Checks that `value` is acceptable for this column (NULL always is).
    ///
    /// # Errors
    /// Returns [`EngineError::TypeMismatch`] naming the column.
    pub(crate) fn check(&self, value: &Value) -> Result<()> {
        match self.column_type.accepts(value) {
            true => Ok(()),
            false => Err(self.type_mismatch(value.type_name())),
        }
    }

    /// The error for a value (or stored column) of type `found` offered to
    /// this column.
    pub(crate) fn type_mismatch(&self, found: &str) -> EngineError {
        EngineError::TypeMismatch {
            expected: self.column_type.sql_name(),
            found: format!("{found} (column {})", self.name),
        }
    }
}

/// An ordered collection of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from column definitions.
    pub fn new(columns: Vec<Column>) -> Self {
        Self { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column definitions, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of the column with the given name.
    ///
    /// # Errors
    /// Returns [`EngineError::ColumnNotFound`] if no column matches.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| EngineError::ColumnNotFound {
                name: name.to_owned(),
            })
    }

    /// The column with the given name.
    ///
    /// # Errors
    /// Returns [`EngineError::ColumnNotFound`] if no column matches.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Validates that a row of values matches this schema (arity and types).
    ///
    /// # Errors
    /// Returns [`EngineError::ArityMismatch`] or [`EngineError::TypeMismatch`].
    pub fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        let mut pairs = self.columns.iter().zip(values);
        pairs.try_for_each(|(column, value)| column.check(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("x", ColumnType::DoubleArray),
            Column::new("y", ColumnType::Double),
            Column::new("label", ColumnType::Text),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("y").unwrap(), 2);
        assert_eq!(s.column("x").unwrap().column_type, ColumnType::DoubleArray);
        assert!(s.index_of("nope").is_err());
    }

    #[test]
    fn validation_catches_bad_rows() {
        let s = schema();
        let good = vec![
            Value::Int(1),
            Value::DoubleArray(vec![1.0]),
            Value::Double(0.5),
            Value::Text("a".into()),
        ];
        assert!(s.validate(&good).is_ok());

        let short = vec![Value::Int(1)];
        assert!(matches!(
            s.validate(&short),
            Err(EngineError::ArityMismatch { .. })
        ));

        let bad_type = vec![
            Value::Text("oops".into()),
            Value::DoubleArray(vec![]),
            Value::Double(0.0),
            Value::Text("a".into()),
        ];
        assert!(matches!(
            s.validate(&bad_type),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_and_int_to_double_accepted() {
        let s = schema();
        let row = vec![
            Value::Null,
            Value::Null,
            Value::Int(3), // int accepted in a double column
            Value::Null,
        ];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn column_type_helpers() {
        assert_eq!(ColumnType::DoubleArray.sql_name(), "double precision[]");
        assert!(ColumnType::TextArray.accepts(&Value::TextArray(vec![])));
        assert!(!ColumnType::Int.accepts(&Value::Double(1.0)));
    }
}
