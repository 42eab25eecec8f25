//! Typed group-by keys and per-chunk group partitioning.
//!
//! Grouping used to key states by `Value::to_string()`, which is both slow
//! (one heap allocation and one formatting pass per row) and wrong at the
//! edges: `-0.0` and `0.0` render identically but are distinct IEEE-754
//! values, `NaN` formats as a non-comparable string, and numerically ordered
//! keys sort lexicographically (`"10" < "9"`).  [`KeyPart`] replaces the
//! string with a typed key part: `Eq`/`Hash` compare floating-point values by
//! bit pattern and ordering uses [`f64::total_cmp`], so every [`Value`] —
//! including NaN and signed zero — lands in exactly one group and groups
//! have a deterministic total order.  Parts of different runtime types order
//! by type first (NULL < boolean < bigint < double < text < arrays), so
//! mixed-type grouping is deterministic too.
//!
//! A [`GroupKey`] is a *composite* of one part per grouping column — the
//! paper's `grouping_cols` is an arbitrary column list, so
//! `group_by(["a", "b"])` keys each group by the tuple of its columns'
//! values.  Keys compare and hash part-wise (lexicographic over the parts,
//! exactly SQL's multi-column `GROUP BY` ordering) and the single-column case
//! stays allocation-free: a one-part key stores its part inline.

use crate::chunk::{ColumnChunk, RowChunk, SelectionMask};
use crate::error::{EngineError, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// An `f64` with total equality, ordering and hashing: bit-pattern equality
/// (distinguishing `-0.0` from `0.0`, and treating identical NaNs as equal)
/// and the IEEE-754 `totalOrder` predicate via [`f64::total_cmp`].
#[derive(Debug, Clone, Copy)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for TotalF64 {}

impl Hash for TotalF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One column's contribution to a grouping key, derived from a [`Value`].
///
/// Unlike [`Value`] this is `Eq + Hash + Ord`, so it can key a hash map and
/// the resulting groups can be emitted in a deterministic total order.  The
/// variant order defines the cross-type ordering (`NULL` groups sort first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyPart {
    /// SQL NULL (all NULLs form one group, as in `GROUP BY`).
    Null,
    /// `boolean` key.
    Bool(bool),
    /// `bigint` key.
    Int(i64),
    /// `double precision` key (bit-pattern identity, total order).
    Double(TotalF64),
    /// `text` key.
    Text(String),
    /// `double precision[]` key.
    DoubleArray(Vec<TotalF64>),
    /// `bigint[]` key.
    IntArray(Vec<i64>),
    /// `text[]` key.
    TextArray(Vec<String>),
}

impl KeyPart {
    /// Derives the key part for a value.
    pub fn from_value(value: &Value) -> Self {
        match value {
            Value::Null => KeyPart::Null,
            Value::Bool(b) => KeyPart::Bool(*b),
            Value::Int(v) => KeyPart::Int(*v),
            Value::Double(v) => KeyPart::Double(TotalF64(*v)),
            Value::Text(s) => KeyPart::Text(s.clone()),
            Value::DoubleArray(a) => KeyPart::DoubleArray(a.iter().map(|&v| TotalF64(v)).collect()),
            Value::IntArray(a) => KeyPart::IntArray(a.clone()),
            Value::TextArray(a) => KeyPart::TextArray(a.clone()),
        }
    }

    /// Reconstructs the representative [`Value`] of this key part.  The
    /// round trip through [`KeyPart::from_value`] is exact, including NaN
    /// payloads and signed zeros.
    pub fn into_value(self) -> Value {
        match self {
            KeyPart::Null => Value::Null,
            KeyPart::Bool(b) => Value::Bool(b),
            KeyPart::Int(v) => Value::Int(v),
            KeyPart::Double(v) => Value::Double(v.0),
            KeyPart::Text(s) => Value::Text(s),
            KeyPart::DoubleArray(a) => Value::DoubleArray(a.into_iter().map(|v| v.0).collect()),
            KeyPart::IntArray(a) => Value::IntArray(a),
            KeyPart::TextArray(a) => Value::TextArray(a),
        }
    }

    /// Whether this part equals the key part of row `i` of a column chunk,
    /// checked in place — no allocation, unlike building the row's part with
    /// [`KeyPart::from_column`] first.  The grouped scan uses this to probe
    /// the previous row's key, since group values cluster in practice (and
    /// always do under hash distribution on the group column).
    pub fn matches_column(&self, column: &ColumnChunk, i: usize) -> bool {
        if column.nulls().is_null(i) {
            return matches!(self, KeyPart::Null);
        }
        match (self, column) {
            (KeyPart::Double(key), ColumnChunk::Double { values, .. }) => {
                key.0.to_bits() == values[i].to_bits()
            }
            (KeyPart::Int(key), ColumnChunk::Int { values, .. }) => *key == values[i],
            (KeyPart::Bool(key), ColumnChunk::Bool { values, .. }) => *key == values[i],
            (KeyPart::Text(key), ColumnChunk::Text { values, .. }) => *key == values[i],
            (
                KeyPart::DoubleArray(key),
                ColumnChunk::DoubleArray {
                    values, offsets, ..
                },
            ) => {
                let row = &values[offsets[i]..offsets[i + 1]];
                key.len() == row.len()
                    && key
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.0.to_bits() == b.to_bits())
            }
            (
                KeyPart::IntArray(key),
                ColumnChunk::IntArray {
                    values, offsets, ..
                },
            ) => key.as_slice() == &values[offsets[i]..offsets[i + 1]],
            (
                KeyPart::TextArray(key),
                ColumnChunk::TextArray {
                    values, offsets, ..
                },
            ) => key.as_slice() == &values[offsets[i]..offsets[i + 1]],
            _ => false,
        }
    }

    /// The key part of row `i` of a column chunk, read straight from the
    /// column buffer (no [`Value`] materialization for scalar columns).
    pub fn from_column(column: &ColumnChunk, i: usize) -> Self {
        if column.nulls().is_null(i) {
            return KeyPart::Null;
        }
        match column {
            ColumnChunk::Double { values, .. } => KeyPart::Double(TotalF64(values[i])),
            ColumnChunk::Int { values, .. } => KeyPart::Int(values[i]),
            ColumnChunk::Bool { values, .. } => KeyPart::Bool(values[i]),
            ColumnChunk::Text { values, .. } => KeyPart::Text(values[i].clone()),
            ColumnChunk::DoubleArray {
                values, offsets, ..
            } => KeyPart::DoubleArray(
                values[offsets[i]..offsets[i + 1]]
                    .iter()
                    .map(|&v| TotalF64(v))
                    .collect(),
            ),
            ColumnChunk::IntArray {
                values, offsets, ..
            } => KeyPart::IntArray(values[offsets[i]..offsets[i + 1]].to_vec()),
            ColumnChunk::TextArray {
                values, offsets, ..
            } => KeyPart::TextArray(values[offsets[i]..offsets[i + 1]].to_vec()),
        }
    }
}

/// The composite parts, stored small-vec style: the single-column common case
/// holds its part inline (no heap indirection beyond what the part itself
/// owns), composite keys box their part slice.
#[derive(Debug, Clone)]
enum KeyParts {
    One(KeyPart),
    Many(Box<[KeyPart]>),
}

/// A grouping key: one [`KeyPart`] per grouping column.
///
/// Keys compare, hash and order part-wise — lexicographic over the parts
/// with [`KeyPart`]'s per-part semantics (bit-pattern float equality, total
/// order, NULL-first) — so a composite key behaves exactly like SQL's
/// multi-column `GROUP BY` tuple.  Keys of different arity never compare
/// equal (shorter tuples order first on a shared prefix), though in practice
/// every key produced by one grouped scan has the same arity.
#[derive(Debug, Clone)]
pub struct GroupKey(KeyParts);

impl GroupKey {
    /// A single-column key from one part.
    pub fn single(part: KeyPart) -> Self {
        GroupKey(KeyParts::One(part))
    }

    /// A key from one part per grouping column.  One-part keys are stored
    /// inline ([`GroupKey::single`]); anything else is boxed.
    pub fn composite(parts: Vec<KeyPart>) -> Self {
        let mut parts = parts;
        if parts.len() == 1 {
            GroupKey(KeyParts::One(parts.pop().expect("length checked")))
        } else {
            GroupKey(KeyParts::Many(parts.into_boxed_slice()))
        }
    }

    /// Derives a single-column key for a value.
    pub fn from_value(value: &Value) -> Self {
        GroupKey::single(KeyPart::from_value(value))
    }

    /// Derives a composite key from one value per grouping column.  A
    /// single-value iterator produces an inline one-part key without heap
    /// allocation, matching [`GroupKey::from_value`].
    pub fn from_values<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut iter = values.into_iter().map(KeyPart::from_value);
        match (iter.next(), iter.next()) {
            (Some(only), None) => GroupKey::single(only),
            (first, second) => {
                let mut parts: Vec<KeyPart> = first.into_iter().chain(second).collect();
                parts.extend(iter);
                GroupKey::composite(parts)
            }
        }
    }

    /// The key's parts, one per grouping column.
    pub fn parts(&self) -> &[KeyPart] {
        match &self.0 {
            KeyParts::One(part) => std::slice::from_ref(part),
            KeyParts::Many(parts) => parts,
        }
    }

    /// Number of grouping columns the key spans.
    pub fn arity(&self) -> usize {
        self.parts().len()
    }

    /// Whether the key spans more than one grouping column.
    pub fn is_composite(&self) -> bool {
        self.arity() > 1
    }

    /// Reconstructs the representative [`Value`] of a *single-column* key's
    /// group.  The round trip through [`GroupKey::from_value`] is exact,
    /// including NaN payloads and signed zeros.
    ///
    /// # Panics
    /// Panics on a composite key — use [`GroupKey::into_values`] when the
    /// grouping may span several columns.
    #[track_caller]
    pub fn into_value(self) -> Value {
        match self.0 {
            KeyParts::One(part) => part.into_value(),
            KeyParts::Many(parts) => panic!(
                "into_value on a composite key of {} parts; use into_values",
                parts.len()
            ),
        }
    }

    /// Reconstructs the representative [`Value`]s of this key's group, one
    /// per grouping column.  Exact, like [`GroupKey::into_value`].
    pub fn into_values(self) -> Vec<Value> {
        match self.0 {
            KeyParts::One(part) => vec![part.into_value()],
            KeyParts::Many(parts) => parts
                .into_vec()
                .into_iter()
                .map(KeyPart::into_value)
                .collect(),
        }
    }

    /// Whether this key equals the key of row `i` over the given key
    /// columns, checked in place (see [`KeyPart::matches_column`]).  Returns
    /// `false` when the arity differs from the column count.
    pub fn matches_columns(&self, columns: &[&ColumnChunk], i: usize) -> bool {
        let parts = self.parts();
        parts.len() == columns.len()
            && parts
                .iter()
                .zip(columns)
                .all(|(part, column)| part.matches_column(column, i))
    }

    /// The key of row `i` over the given key columns, read straight from the
    /// column buffers.
    pub fn from_columns(columns: &[&ColumnChunk], i: usize) -> Self {
        if let [column] = columns {
            return GroupKey::single(KeyPart::from_column(column, i));
        }
        GroupKey::composite(
            columns
                .iter()
                .map(|column| KeyPart::from_column(column, i))
                .collect(),
        )
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the part sequence itself (not the slice, whose `Hash` prefixes
        // the length) so a one-part key hashes identically whether it is
        // stored inline or boxed.
        for part in self.parts() {
            part.hash(state);
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(other.parts())
    }
}

impl From<KeyPart> for GroupKey {
    fn from(part: KeyPart) -> Self {
        GroupKey::single(part)
    }
}

/// One group discovered inside a chunk: its key, the selection mask of its
/// rows, and how many rows it has.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkGroup {
    /// The group's key.
    pub key: GroupKey,
    /// Mask over the chunk's rows selecting exactly this group's rows.
    pub mask: SelectionMask,
    /// Number of selected rows (cached `mask.count_selected()`).
    pub rows: usize,
}

/// Partitions a chunk's rows by the (possibly composite) key over
/// `column_indices`, returning one [`ChunkGroup`] per distinct key in
/// first-appearance order.  The masks are disjoint and together cover every
/// row of the chunk.
pub fn partition_by_group(chunk: &RowChunk, column_indices: &[usize]) -> Vec<ChunkGroup> {
    let columns: Vec<&ColumnChunk> = column_indices.iter().map(|&c| chunk.column(c)).collect();
    let rows = chunk.len();
    let mut slots: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<ChunkGroup> = Vec::new();
    for i in 0..rows {
        let key = GroupKey::from_columns(&columns, i);
        let slot = *slots.entry(key.clone()).or_insert_with(|| {
            groups.push(ChunkGroup {
                key,
                mask: SelectionMask::none(rows),
                rows: 0,
            });
            groups.len() - 1
        });
        groups[slot].mask.set(i, true);
        groups[slot].rows += 1;
    }
    groups
}

/// Resolves grouping `columns` to schema indices, validating the list: it
/// must be non-empty, every name must exist in the schema
/// ([`EngineError::ColumnNotFound`] otherwise) and no column may appear
/// twice — grouping by a repeated column would silently produce the same
/// groups under a wider-looking key, so duplicates are rejected as
/// [`EngineError::InvalidArgument`] instead.  The one validator behind every
/// grouped scan terminal and grouped materialized view.
pub(crate) fn group_column_indices(schema: &Schema, columns: &[String]) -> Result<Vec<usize>> {
    if columns.is_empty() {
        return Err(EngineError::invalid(
            "dataset has no grouping columns; call group_by([...]) first",
        ));
    }
    let mut indices = Vec::with_capacity(columns.len());
    for column in columns {
        let idx = schema.index_of(column)?;
        if indices.contains(&idx) {
            return Err(EngineError::invalid(format!(
                "duplicate grouping column {column:?}; grouping columns must be distinct"
            )));
        }
        indices.push(idx);
    }
    Ok(indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

    #[test]
    fn signed_zero_and_nan_form_distinct_stable_groups() {
        let pos = GroupKey::from_value(&Value::Double(0.0));
        let neg = GroupKey::from_value(&Value::Double(-0.0));
        let nan = GroupKey::from_value(&Value::Double(f64::NAN));
        assert_ne!(pos, neg, "-0.0 and 0.0 must be distinct groups");
        assert_eq!(nan, GroupKey::from_value(&Value::Double(f64::NAN)));
        assert!(neg < pos, "total order puts -0.0 before 0.0");
        assert!(nan > pos, "positive NaN sorts after all finite values");
        // The round trip preserves the exact bit pattern.
        match GroupKey::from_value(&Value::Double(-0.0)).into_value() {
            Value::Double(v) => assert_eq!(v.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_type_keys_have_a_deterministic_total_order() {
        let mut keys = vec![
            GroupKey::from_value(&Value::Text("a".into())),
            GroupKey::from_value(&Value::Double(1.5)),
            GroupKey::from_value(&Value::Int(10)),
            GroupKey::from_value(&Value::Int(9)),
            GroupKey::from_value(&Value::Null),
            GroupKey::from_value(&Value::Bool(true)),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                GroupKey::single(KeyPart::Null),
                GroupKey::single(KeyPart::Bool(true)),
                GroupKey::single(KeyPart::Int(9)),
                GroupKey::single(KeyPart::Int(10)), // numeric, not lexicographic, order
                GroupKey::single(KeyPart::Double(TotalF64(1.5))),
                GroupKey::single(KeyPart::Text("a".into())),
            ]
        );
    }

    #[test]
    fn composite_keys_compare_hash_and_order_part_wise() {
        use std::collections::hash_map::DefaultHasher;

        let ab = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(1)]);
        let ab2 = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(1)]);
        let ac = GroupKey::from_values([&Value::Text("a".into()), &Value::Int(2)]);
        let bb = GroupKey::from_values([&Value::Text("b".into()), &Value::Int(1)]);
        assert_eq!(ab, ab2);
        assert_ne!(ab, ac);
        assert!(ab < ac, "second part breaks the tie");
        assert!(ac < bb, "first part dominates");
        assert_eq!(ab.arity(), 2);
        assert!(ab.is_composite());
        assert_eq!(
            ab.clone().into_values(),
            vec![Value::Text("a".into()), Value::Int(1)]
        );

        // A one-part composite normalizes to the inline representation and
        // hashes/compares identically to the single-part constructor.
        let single = GroupKey::composite(vec![KeyPart::Int(7)]);
        assert_eq!(single, GroupKey::from_value(&Value::Int(7)));
        let hash_of = |key: &GroupKey| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        assert_eq!(
            hash_of(&single),
            hash_of(&GroupKey::from_value(&Value::Int(7)))
        );

        // NULL and NaN parts keep their group-key semantics inside a tuple.
        let null_nan = GroupKey::from_values([&Value::Null, &Value::Double(f64::NAN)]);
        assert_eq!(
            null_nan,
            GroupKey::from_values([&Value::Null, &Value::Double(f64::NAN)])
        );
        let null_zero = GroupKey::from_values([&Value::Null, &Value::Double(0.0)]);
        let null_negzero = GroupKey::from_values([&Value::Null, &Value::Double(-0.0)]);
        assert_ne!(null_zero, null_negzero);
        assert!(null_negzero < null_zero);

        // Different arity never compares equal; shorter prefixes sort first.
        let a = GroupKey::from_values([&Value::Text("a".into())]);
        assert_ne!(a, ab);
        assert!(a < ab);
    }

    #[test]
    fn matches_columns_agrees_with_from_columns() {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Text),
            Column::new("d", ColumnType::Double),
            Column::new("a", ColumnType::DoubleArray),
        ]);
        let mut chunk = RowChunk::new(&schema);
        chunk
            .push_values(row!["x", 0.0, vec![1.0, 2.0]].values())
            .unwrap();
        chunk
            .push_values(row!["y", -0.0, vec![1.0]].values())
            .unwrap();
        chunk
            .push_values(&[Value::Null, Value::Null, Value::Null])
            .unwrap();
        // Every single column and every column pair behave consistently.
        let column_sets: &[&[usize]] = &[&[0], &[1], &[2], &[0, 1], &[1, 2], &[2, 0], &[0, 1, 2]];
        for set in column_sets {
            let columns: Vec<&ColumnChunk> = set.iter().map(|&c| chunk.column(c)).collect();
            for i in 0..chunk.len() {
                let key = GroupKey::from_columns(&columns, i);
                assert_eq!(key.arity(), set.len());
                for j in 0..chunk.len() {
                    assert_eq!(
                        key.matches_columns(&columns, j),
                        key == GroupKey::from_columns(&columns, j),
                        "columns {set:?}, key of row {i} probed against row {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_covers_all_rows_in_first_seen_order() {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Text),
            Column::new("v", ColumnType::Double),
        ]);
        let mut chunk = RowChunk::new(&schema);
        for (grp, v) in [("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", 4.0), ("c", 5.0)] {
            chunk.push_values(row![grp, v].values()).unwrap();
        }
        chunk
            .push_values(&[Value::Null, Value::Double(6.0)])
            .unwrap();

        let groups = partition_by_group(&chunk, &[0]);
        assert_eq!(groups.len(), 4);
        assert_eq!(
            groups[0].key,
            GroupKey::from_value(&Value::Text("b".into()))
        );
        assert_eq!(groups[0].rows, 2);
        assert_eq!(
            groups[1].key,
            GroupKey::from_value(&Value::Text("a".into()))
        );
        assert_eq!(
            groups[2].key,
            GroupKey::from_value(&Value::Text("c".into()))
        );
        assert_eq!(groups[3].key, GroupKey::single(KeyPart::Null));
        let total: usize = groups.iter().map(|g| g.rows).sum();
        assert_eq!(total, chunk.len());
        // Masks are disjoint.
        for i in 0..chunk.len() {
            let owners = groups.iter().filter(|g| g.mask.is_selected(i)).count();
            assert_eq!(owners, 1, "row {i} must belong to exactly one group");
        }
        // Gathering group "a" keeps its rows in order.
        let a = &groups[1];
        let sub = chunk.gather(&a.mask);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.value(0, 1), Value::Double(2.0));
        assert_eq!(sub.value(1, 1), Value::Double(4.0));
    }

    #[test]
    fn composite_partition_distinguishes_tuples() {
        let schema = Schema::new(vec![
            Column::new("a", ColumnType::Text),
            Column::new("b", ColumnType::Int),
        ]);
        let mut chunk = RowChunk::new(&schema);
        for (a, b) in [("x", 1), ("x", 2), ("y", 1), ("x", 1)] {
            chunk.push_values(row![a, b].values()).unwrap();
        }
        // Single-column partition: 2 groups on "a", 2 on "b".
        assert_eq!(partition_by_group(&chunk, &[0]).len(), 2);
        assert_eq!(partition_by_group(&chunk, &[1]).len(), 2);
        // Composite partition: 3 distinct (a, b) tuples, ("x", 1) twice.
        let groups = partition_by_group(&chunk, &[0, 1]);
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups[0].key,
            GroupKey::from_values([&Value::Text("x".into()), &Value::Int(1)])
        );
        assert_eq!(groups[0].rows, 2);
    }

    #[test]
    fn array_keys_group_by_content() {
        let schema = Schema::new(vec![Column::new("k", ColumnType::DoubleArray)]);
        let mut chunk = RowChunk::new(&schema);
        chunk.push_values(row![vec![1.0, 2.0]].values()).unwrap();
        chunk.push_values(row![vec![1.0, 2.0]].values()).unwrap();
        chunk.push_values(row![vec![2.0]].values()).unwrap();
        let groups = partition_by_group(&chunk, &[0]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].rows, 2);
    }
}
