//! Templated-query support: schema introspection.
//!
//! The paper (Section 3.1.3) describes "templated queries" that must work
//! over arbitrary input schemas — the `profile` module takes any table and
//! produces per-column summary statistics, so its output schema is a function
//! of its input schema.  MADlib implements this by interrogating the database
//! catalog from Python and synthesizing SQL.  The equivalent here is a small
//! introspection API: given a schema, enumerate its columns with their types
//! and classify them, so library code can generate the per-column plan
//! programmatically.

use crate::schema::{ColumnType, Schema};

/// How a templated module should treat a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRole {
    /// Numeric scalar: gets mean / variance / min / max style summaries.
    Numeric,
    /// Categorical (text): gets distinct counts and most-common values.
    Categorical,
    /// Array-valued: treated as a feature vector.
    FeatureVector,
    /// Other array types (text[]/bigint[]).
    OtherArray,
}

/// A column description produced by introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub column_type: ColumnType,
    /// Role assigned by [`classify_column`].
    pub role: ColumnRole,
}

/// Classifies a column type into the role a templated module should use.
pub fn classify_column(column_type: ColumnType) -> ColumnRole {
    match column_type {
        ColumnType::Int | ColumnType::Double | ColumnType::Bool => ColumnRole::Numeric,
        ColumnType::Text => ColumnRole::Categorical,
        ColumnType::DoubleArray => ColumnRole::FeatureVector,
        ColumnType::TextArray | ColumnType::IntArray => ColumnRole::OtherArray,
    }
}

/// Introspects a schema, returning one [`ColumnInfo`] per column in schema
/// order.
pub fn describe_schema(schema: &Schema) -> Vec<ColumnInfo> {
    schema
        .columns()
        .iter()
        .map(|c| ColumnInfo {
            name: c.name.clone(),
            column_type: c.column_type,
            role: classify_column(c.column_type),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Text),
            Column::new("features", ColumnType::DoubleArray),
            Column::new("tokens", ColumnType::TextArray),
            Column::new("score", ColumnType::Double),
        ])
    }

    #[test]
    fn classification_covers_all_types() {
        assert_eq!(classify_column(ColumnType::Int), ColumnRole::Numeric);
        assert_eq!(classify_column(ColumnType::Double), ColumnRole::Numeric);
        assert_eq!(classify_column(ColumnType::Bool), ColumnRole::Numeric);
        assert_eq!(classify_column(ColumnType::Text), ColumnRole::Categorical);
        assert_eq!(
            classify_column(ColumnType::DoubleArray),
            ColumnRole::FeatureVector
        );
        assert_eq!(
            classify_column(ColumnType::TextArray),
            ColumnRole::OtherArray
        );
        assert_eq!(
            classify_column(ColumnType::IntArray),
            ColumnRole::OtherArray
        );
    }

    #[test]
    fn describe_preserves_order_and_roles() {
        let infos = describe_schema(&schema());
        assert_eq!(infos.len(), 5);
        assert_eq!(infos[0].name, "id");
        assert_eq!(infos[0].role, ColumnRole::Numeric);
        assert_eq!(infos[1].role, ColumnRole::Categorical);
        assert_eq!(infos[2].role, ColumnRole::FeatureVector);
        assert_eq!(infos[3].role, ColumnRole::OtherArray);
    }
}
