//! Typed group-by keys and the one way a chunk's rows are routed to groups.
//!
//! [`KeyPart`] is one column's contribution to a grouping key: `Eq`/`Hash`
//! compare floating-point values by bit pattern and ordering uses
//! [`f64::total_cmp`], so every [`Value`] — including NaN and signed zero —
//! lands in exactly one group (`-0.0` and `0.0` are distinct, NaNs group
//! together, numeric keys sort numerically) and groups have a deterministic
//! total order.  Parts of different runtime types order by type first
//! (NULL < boolean < bigint < double < text < arrays), so mixed-type
//! grouping is deterministic too.
//!
//! A [`GroupKey`] is a *composite* of one part per grouping column — the
//! paper's `grouping_cols` is an arbitrary column list, so
//! `group_by(["a", "b"])` keys each group by the tuple of its columns'
//! values.  Keys compare and hash part-wise (lexicographic over the parts,
//! exactly SQL's multi-column `GROUP BY` ordering) and the single-column case
//! stays allocation-free: a one-part key stores its part inline.
//!
//! Every grouped consumer — grouped aggregation (the crate-private `fold`
//! module), [`crate::Dataset::score_per_group`],
//! [`crate::Dataset::gather_groups`] and [`partition_by_group`] — routes rows
//! through the same two crate-private pieces, so the engine has one GROUP BY
//! operator the way a DBMS does:
//!
//! * `SlotDirectory` maps each distinct key to a dense `u32` slot in
//!   first-appearance order, and its `key_chunk` is the one **keying pass**:
//!   it records every row's slot and the chunk's distinct slots with their
//!   row counts, and tells the caller about each new slot exactly once — the
//!   callers differ only in what they open for a new group (an aggregate
//!   state, a scorer, a row list, a mask).  It hashes the chunk a key
//!   column at a time — one typed loop per column over the column buffer —
//!   then probes row by row: the previous row's hash and key first (group
//!   values cluster in practice), then the slots the row's hash probes, each
//!   by hash before key, the key compared in place; a [`GroupKey`] is built
//!   only when a slot opens, so keying allocates per group, not per row.
//! * `IndexSort` is what the pass records into, and the one **stable
//!   counting sort of row indices by a dense `u32` key** (distinct keys in
//!   first-seen order, ascending row indices inside each run, reusable
//!   buffers): by slot for per-group gathers and scatter-back, by slot-range
//!   bucket for radix staging.
//!
//! What a grouped pass produces per key, and what grouped serving looks a
//! key up in, is one registry type, [`GroupedModels`]: a key-sorted list
//! that sorts and rejects duplicate keys once, in its constructor.

use crate::chunk::{ColumnChunk, NullBitmap, RowChunk, SelectionMask};
use crate::error::{EngineError, Result};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::convert::Infallible;
use std::hash::{BuildHasher, Hash, Hasher};

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
        KeyPart::from_ref(value.as_ref())
    }

    /// The key part of a borrowed value — of a [`Value`], or of a cell read
    /// in place from a column chunk — copying what the part owns once.
    fn from_ref(value: ValueRef<'_>) -> Self {
        match value {
            ValueRef::Null => KeyPart::Null,
            ValueRef::Bool(b) => KeyPart::Bool(b),
            ValueRef::Int(v) => KeyPart::Int(v),
            ValueRef::Double(v) => KeyPart::Double(TotalF64(v)),
            ValueRef::Text(s) => KeyPart::Text(s.to_owned()),
            ValueRef::DoubleArray(a) => {
                KeyPart::DoubleArray(a.iter().map(|&v| TotalF64(v)).collect())
            }
            ValueRef::IntArray(a) => KeyPart::IntArray(a.to_vec()),
            ValueRef::TextArray(a) => KeyPart::TextArray(a.to_vec()),
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
    /// checked in place — no allocation, unlike building the row's part
    /// first: the keying pass compares each row with the key of every slot
    /// its hash probes this way.  Forced inline: it is the probe's per-row
    /// compare.
    #[inline(always)]
    pub fn matches_column(&self, column: &ColumnChunk, i: usize) -> bool {
        match (self, column.value_ref(i)) {
            (KeyPart::Null, ValueRef::Null) => true,
            (KeyPart::Bool(key), ValueRef::Bool(v)) => *key == v,
            (KeyPart::Int(key), ValueRef::Int(v)) => *key == v,
            (KeyPart::Double(key), ValueRef::Double(v)) => key.0.to_bits() == v.to_bits(),
            (KeyPart::Text(key), ValueRef::Text(v)) => key == v,
            (KeyPart::DoubleArray(key), ValueRef::DoubleArray(row)) => {
                key.len() == row.len()
                    && key
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.0.to_bits() == b.to_bits())
            }
            (KeyPart::IntArray(key), ValueRef::IntArray(row)) => key.as_slice() == row,
            (KeyPart::TextArray(key), ValueRef::TextArray(row)) => key.as_slice() == row,
            _ => false,
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
        match <[KeyPart; 1]>::try_from(parts) {
            Ok([only]) => GroupKey::single(only),
            Err(parts) => GroupKey(KeyParts::Many(parts.into_boxed_slice())),
        }
    }

    /// Derives a single-column key for a value.
    pub fn from_value(value: &Value) -> Self {
        GroupKey::single(KeyPart::from_value(value))
    }

    /// Derives a composite key from one value per grouping column; one value
    /// gives the inline one-part key [`GroupKey::from_value`] gives.
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        GroupKey::composite(values.into_iter().map(KeyPart::from_value).collect())
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
        GroupKey::composite(
            columns
                .iter()
                .map(|column| KeyPart::from_ref(column.value_ref(i)))
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

/// One value per composite [`GroupKey`], sorted by key (NULL group first):
/// the one grouped registry.  `Session::train_grouped` returns the models in
/// it, the model catalog stores it, and [`crate::Dataset::score_per_group`]
/// routes rows through it.  [`GroupedModels::new`] is the only place keys
/// are sorted and checked for duplicates; [`GroupedModels::map`] keeps the
/// order, so a registry handed along is never re-sorted or re-checked.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedModels<M> {
    models: Vec<(GroupKey, M)>,
}

impl<M> GroupedModels<M> {
    /// Builds a registry from `(key, model)` pairs in any order.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] when two pairs share a key:
    /// routing would be ambiguous.
    pub fn new(mut models: Vec<(GroupKey, M)>) -> Result<Self> {
        models.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(pair) = models.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(EngineError::invalid(format!(
                "duplicate group key {:?} in a grouped registry",
                pair[0].0
            )));
        }
        Ok(Self { models })
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry has no group.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterates over `(key, model)` pairs in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (GroupKey, M)> {
        self.models.iter()
    }

    /// The group keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &GroupKey> {
        self.models.iter().map(|(key, _)| key)
    }

    /// The model of the group containing `value` (NULL, NaN and signed
    /// zeros resolve by group-key semantics, not `Value` equality).  For
    /// models keyed by several grouping columns use
    /// [`GroupedModels::get_values`].
    pub fn get(&self, value: &Value) -> Option<&M> {
        self.get_key(&GroupKey::from_value(value))
    }

    /// The model of the group whose composite key matches `values` — one
    /// value per grouping column, in `group_by` order, with group-key
    /// semantics per part (NULL matches NULL, NaN matches NaN, `-0.0` ≠
    /// `0.0`).
    pub fn get_values(&self, values: &[Value]) -> Option<&M> {
        self.get_key(&GroupKey::from_values(values))
    }

    /// The model of group `key` (binary search over the sorted keys).
    pub fn get_key(&self, key: &GroupKey) -> Option<&M> {
        self.models
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|idx| &self.models[idx].1)
    }

    /// [`GroupedModels::get_key`] for a registry named `name`, reporting a
    /// missing group as [`EngineError::ModelNotFound`] with the key rendered.
    pub(crate) fn require(&self, name: &str, key: &GroupKey) -> Result<&M> {
        self.get_key(key).ok_or_else(|| EngineError::ModelNotFound {
            name: name.to_owned(),
            group: Some(format!("{key:?}")),
        })
    }

    /// Applies `f` to every model, keeping the keys and their order.
    pub fn map<N>(self, mut f: impl FnMut(M) -> N) -> GroupedModels<N> {
        let models = self.models.into_iter().map(|(key, model)| (key, f(model)));
        GroupedModels {
            models: models.collect(),
        }
    }
}

impl<M> IntoIterator for GroupedModels<M> {
    type Item = (GroupKey, M);
    type IntoIter = std::vec::IntoIter<(GroupKey, M)>;

    fn into_iter(self) -> Self::IntoIter {
        self.models.into_iter()
    }
}

impl<'a, M> IntoIterator for &'a GroupedModels<M> {
    type Item = &'a (GroupKey, M);
    type IntoIter = std::slice::Iter<'a, (GroupKey, M)>;

    fn into_iter(self) -> Self::IntoIter {
        self.models.iter()
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
/// row of the chunk.  This is the grouped scan's own keying pass over a
/// fresh directory, with the slots spelled out as masks.
pub fn partition_by_group(chunk: &RowChunk, column_indices: &[usize]) -> Vec<ChunkGroup> {
    let rows = chunk.len();
    let mut groups: Vec<ChunkGroup> = Vec::new();
    let mut keyed = IndexSort::default();
    let Ok(()) = SlotDirectory::default().key_chunk(chunk, column_indices, &mut keyed, |key| {
        groups.push(ChunkGroup {
            key: key.clone(),
            mask: SelectionMask::none(rows),
            rows: 0,
        });
        Ok::<(), Infallible>(())
    });
    // A fresh directory numbers slots in first-appearance order, so a slot is
    // its group's position.
    for (i, &slot) in keyed.keys().iter().enumerate() {
        groups[slot as usize].mask.set(i, true);
    }
    for &(slot, count) in keyed.runs() {
        groups[slot as usize].rows = count as usize;
    }
    groups
}

/// `GroupKey → dense u32 slot`, slots numbered in first-appearance order —
/// the directory behind every grouped consumer.  What a slot *holds* (an
/// aggregate state, a scorer, a row list) lives with the caller in a vector
/// indexed by slot, which the `on_new` callback grows by one.
///
/// The directory is an open-addressing table of slots probed by a row's
/// hash.  The keying pass hashes a chunk a key column at a time: one typed
/// loop per column folds every row's cell into that row's running hash
/// ([`hash_column`]), starting from a seed drawn per directory from
/// [`RandomState`] — so keys crafted to collide cannot be computed ahead of
/// a scan — and an avalanche ([`avalanche`]) runs before the table masks a
/// hash.  Rows are then probed one by one: a probed slot's stored hash is
/// compared before its key is compared with the row in place
/// ([`GroupKey::matches_columns`]), and a [`GroupKey`] is built only when a
/// slot opens — never per row.
#[derive(Debug)]
pub(crate) struct SlotDirectory {
    /// Every slot's key, in slot order.
    keys: Vec<GroupKey>,
    /// Every slot's row hash, in slot order.
    hashes: Vec<u64>,
    /// Linear-probing table of slots ([`EMPTY`] when free); its length is
    /// zero or a power of two at least twice the slot count.
    table: Vec<u32>,
    /// Where every row's hash starts.
    seed: u64,
    /// The hash of every row of the chunk being keyed; reused.
    row_hashes: Vec<u64>,
}

/// A free entry of [`SlotDirectory`]'s table.
const EMPTY: u32 = u32::MAX;

/// What a NULL cell folds into its row's hash, whatever the column's type.
const NULL_TAG: u64 = 0x6A09_E667_F3BC_C908;

/// The odd multiplier of [`fold`] (the golden ratio's 64-bit fraction).
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for SlotDirectory {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            hashes: Vec::new(),
            table: Vec::new(),
            seed: RandomState::new().build_hasher().finish(),
            row_hashes: Vec::new(),
        }
    }
}

impl SlotDirectory {
    /// The keying pass: resolves every row of `chunk` to its slot over the
    /// key columns at `column_indices`, leaving in `keyed` a fresh round
    /// whose keys are the per-row slots and whose runs are the chunk's
    /// distinct slots (first-seen order, with row counts).  Every row is
    /// hashed first, a column at a time; then each row is probed.  Group
    /// values cluster in practice, so the previous row's hash and then key
    /// are compared first.  A key seen for the first time gets the next slot
    /// after `on_new(key)` succeeds — exactly once per slot.
    ///
    /// # Errors
    /// Stops at the first `on_new` error; the key it refused opens no slot.
    pub(crate) fn key_chunk<E>(
        &mut self,
        chunk: &RowChunk,
        column_indices: &[usize],
        keyed: &mut IndexSort,
        on_new: impl FnMut(&GroupKey) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let key_columns: Vec<&ColumnChunk> =
            column_indices.iter().map(|&c| chunk.column(c)).collect();
        self.hash_rows(&key_columns, chunk.len());
        self.probe_rows(&key_columns, keyed, on_new)
    }

    /// Hashes each of `rows` rows over `columns` into `row_hashes`: every
    /// column folded in by its typed loop, then the avalanche.
    fn hash_rows(&mut self, columns: &[&ColumnChunk], rows: usize) {
        let hashes = &mut self.row_hashes;
        hashes.clear();
        hashes.resize(rows, self.seed);
        for column in columns {
            hash_column(column, hashes);
        }
        hashes.iter_mut().for_each(|hash| *hash = avalanche(*hash));
    }

    /// Resolves every row hashed into `row_hashes` to its slot, recording
    /// the round in `keyed`.
    fn probe_rows<E>(
        &mut self,
        columns: &[&ColumnChunk],
        keyed: &mut IndexSort,
        mut on_new: impl FnMut(&GroupKey) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        keyed.clear();
        let mut previous: Option<(u64, u32)> = None;
        for i in 0..self.row_hashes.len() {
            let hash = self.row_hashes[i];
            let slot = match previous {
                Some((seen, slot))
                    if seen == hash && self.keys[slot as usize].matches_columns(columns, i) =>
                {
                    slot
                }
                _ => {
                    let slot = self.slot_of_row(columns, i, hash, &mut on_new)?;
                    previous = Some((hash, slot));
                    slot
                }
            };
            keyed.push(slot);
        }
        Ok(())
    }

    /// The slot of row `i` over `columns`, whose hash is `hash`, opening one
    /// (after `on_new` succeeds) when the row's key is new.
    fn slot_of_row<E>(
        &mut self,
        columns: &[&ColumnChunk],
        i: usize,
        hash: u64,
        on_new: impl FnOnce(&GroupKey) -> std::result::Result<(), E>,
    ) -> std::result::Result<u32, E> {
        if self.table.is_empty() {
            self.table = vec![EMPTY; 16];
        }
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.table[at] {
                EMPTY => break,
                slot if self.hashes[slot as usize] == hash
                    && self.keys[slot as usize].matches_columns(columns, i) =>
                {
                    return Ok(slot)
                }
                _ => at = (at + 1) & mask,
            }
        }
        let key = GroupKey::from_columns(columns, i);
        on_new(&key)?;
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        self.hashes.push(hash);
        self.table[at] = slot;
        if 2 * self.keys.len() > self.table.len() {
            self.grow();
        }
        Ok(slot)
    }

    /// Doubles the table and re-places every slot by its stored hash.
    fn grow(&mut self) {
        let mask = 2 * self.table.len() - 1;
        self.table = vec![EMPTY; mask + 1];
        for (slot, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while self.table[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.table[at] = slot as u32;
        }
    }

    /// The keys, by value, in slot order.
    pub(crate) fn into_keys(self) -> impl Iterator<Item = GroupKey> {
        self.keys.into_iter()
    }
}

/// Folds row `i`'s cell of `column` into `hashes[i]` for every row, one
/// typed loop per column type, so that rows whose key parts are equal
/// ([`KeyPart::matches_column`]) fold equally: NULL as [`NULL_TAG`], floats
/// by bit pattern, text a word at a time after its length ([`fold_text`]),
/// arrays element by element after their length ([`fold_spans`]).
fn hash_column(column: &ColumnChunk, hashes: &mut [u64]) {
    let nulls = column.nulls();
    match column {
        ColumnChunk::Double { values, .. } => {
            fold_rows(hashes, nulls, |hash, i| fold(hash, values[i].to_bits()))
        }
        ColumnChunk::Int { values, .. } => {
            fold_rows(hashes, nulls, |hash, i| fold(hash, values[i] as u64))
        }
        ColumnChunk::Bool { values, .. } => {
            fold_rows(hashes, nulls, |hash, i| fold(hash, u64::from(values[i])))
        }
        ColumnChunk::Text { values, .. } => {
            fold_rows(hashes, nulls, |hash, i| fold_text(hash, &values[i]))
        }
        ColumnChunk::DoubleArray {
            values, offsets, ..
        } => fold_spans(hashes, nulls, offsets, |h, i| fold(h, values[i].to_bits())),
        ColumnChunk::IntArray {
            values, offsets, ..
        } => fold_spans(hashes, nulls, offsets, |h, i| fold(h, values[i] as u64)),
        ColumnChunk::TextArray {
            values, offsets, ..
        } => fold_spans(hashes, nulls, offsets, |h, i| fold_text(h, &values[i])),
    }
}

/// The loop of one array column whose row `i` spans
/// `offsets[i]..offsets[i + 1]` of its buffer: each row folds its length,
/// then every element of its span through `element(hash, index)`.
#[inline(always)]
fn fold_spans(
    hashes: &mut [u64],
    nulls: &NullBitmap,
    offsets: &[usize],
    element: impl Fn(u64, usize) -> u64,
) {
    fold_rows(hashes, nulls, |hash, row| {
        let span = offsets[row]..offsets[row + 1];
        span.clone().fold(fold(hash, span.len() as u64), &element)
    })
}

/// The loop of one column: `fold_row(hash, i)` folds row `i`'s non-NULL
/// cell into its hash; a column without NULLs tests no row.
#[inline(always)]
fn fold_rows(hashes: &mut [u64], nulls: &NullBitmap, fold_row: impl Fn(u64, usize) -> u64) {
    let rows = hashes.iter_mut().enumerate();
    if nulls.any_null() {
        for (i, hash) in rows {
            *hash = if nulls.is_null(i) {
                fold(*hash, NULL_TAG)
            } else {
                fold_row(*hash, i)
            };
        }
    } else {
        rows.for_each(|(i, hash)| *hash = fold_row(*hash, i));
    }
}

/// Folds a string into a running hash: its byte length, then its bytes
/// eight at a time as little-endian words, the last word zero-padded (the
/// length keeps `"a"` and `"a\0"` apart).
#[inline(always)]
fn fold_text(hash: u64, text: &str) -> u64 {
    let (words, tail) = text.as_bytes().as_chunks::<8>();
    let hash = fold(hash, text.len() as u64);
    let hash = words
        .iter()
        .fold(hash, |hash, word| fold(hash, u64::from_le_bytes(*word)));
    let last = tail
        .iter()
        .rev()
        .fold(0, |word, &byte| word << 8 | u64::from(byte));
    fold(hash, last)
}

/// Folds one word into a running hash: the 128-bit product of the two
/// XORed with [`FOLD_MULTIPLIER`], its halves XORed back to 64 bits.
#[inline(always)]
fn fold(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * u128::from(FOLD_MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The final mix of a row's hash, so that its low bits — the ones the
/// table masks — depend on every bit folded in (MurmurHash3's `fmix64`).
fn avalanche(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    hash ^ (hash >> 33)
}

/// A stable counting sort of row indices by a dense `u32` key.  A round is
/// [`IndexSort::clear`], one [`IndexSort::push`] per row in row order (which
/// tallies the distinct keys in first-seen order as it goes), and — when the
/// rows are wanted grouped — [`IndexSort::sorted`].  Buffers are reused from
/// round to round; memory is one marker per key of the largest domain seen.
#[derive(Debug, Default)]
pub(crate) struct IndexSort {
    /// The key of every row of this round.
    keys: Vec<u32>,
    /// The distinct keys of this round in first-seen order, with counts.
    runs: Vec<(u32, u32)>,
    /// Per key, its position in `runs` (`u32::MAX` = not seen this round).
    run_of_key: Vec<u32>,
    /// Per run, the scatter cursor; the end of the run's slice afterwards.
    ends: Vec<u32>,
    indices: Vec<u32>,
}

impl IndexSort {
    /// Starts a round: forgets the previous round's rows, un-marking its keys
    /// in time proportional to how many distinct ones it had.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        for (key, _) in self.runs.drain(..) {
            self.run_of_key[key as usize] = u32::MAX;
        }
    }

    /// Appends the next row, under `key`.  Forced inline: it is the per-row
    /// body of the keying pass, and left to the `#[inline]` hint it compiled
    /// to a call per row (PR 18 measured that call at 1–4 % of a serial
    /// grouped count).
    #[inline(always)]
    pub(crate) fn push(&mut self, key: u32) {
        self.keys.push(key);
        if self.run_of_key.len() <= key as usize {
            self.run_of_key.resize(key as usize + 1, u32::MAX);
        }
        let run = &mut self.run_of_key[key as usize];
        if *run == u32::MAX {
            *run = self.runs.len() as u32;
            self.runs.push((key, 0));
        }
        self.runs[*run as usize].1 += 1;
    }

    /// One whole round: `keys` in row order.
    pub(crate) fn fill(&mut self, keys: impl Iterator<Item = u32>) {
        self.clear();
        keys.for_each(|key| self.push(key));
    }

    /// The key of every row of this round, in row order.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The distinct keys of this round in first-seen order, with counts.
    pub(crate) fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Sorts the round — one offset per run, then one stable scatter pass
    /// over the rows — and yields each distinct key (first-seen order) with
    /// the ascending indices of its rows.
    pub(crate) fn sorted(&mut self) -> impl Iterator<Item = (u32, &[u32])> {
        self.ends.clear();
        let mut running = 0u32;
        for &(_, count) in &self.runs {
            self.ends.push(running);
            running += count;
        }
        self.indices.resize(self.keys.len(), 0);
        for (i, &key) in self.keys.iter().enumerate() {
            let end = &mut self.ends[self.run_of_key[key as usize] as usize];
            self.indices[*end as usize] = i as u32;
            *end += 1;
        }
        self.runs
            .iter()
            .zip(&self.ends)
            .map(|(&(key, count), &end)| (key, &self.indices[(end - count) as usize..end as usize]))
    }
}

/// Resolves grouping `columns` to schema indices, validating the list: it
/// must be non-empty, every name must exist in the schema
/// ([`EngineError::ColumnNotFound`] otherwise) and no column may appear
/// twice — grouping by a repeated column would silently produce the same
/// groups under a wider-looking key, so duplicates are rejected as
/// [`EngineError::InvalidArgument`] instead.  The one validator behind every
/// grouped scan terminal.
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
    use std::collections::HashMap;

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

    /// Keys `chunks` through a fresh directory and checks every output of
    /// the keying pass and the index sort against a per-row `HashMap` walk.
    /// `colliding`: every row's hash is overwritten with one value between
    /// the pass's two halves, so the in-place compare alone tells slots
    /// apart.
    fn check_keying_against_oracle(colliding: bool, chunks: &[RowChunk], column_indices: &[usize]) {
        let mut directory = SlotDirectory::default();
        let mut keyed = IndexSort::default();
        let mut opened: Vec<GroupKey> = Vec::new();
        // The oracle: key → slot in first-appearance order across all chunks.
        let mut oracle: HashMap<GroupKey, u32> = HashMap::new();
        for chunk in chunks {
            let columns: Vec<&ColumnChunk> =
                column_indices.iter().map(|&c| chunk.column(c)).collect();
            let mut expected_slots = Vec::new();
            let mut expected_groups: Vec<(u32, u32)> = Vec::new();
            for i in 0..chunk.len() {
                let next = oracle.len() as u32;
                let slot = *oracle
                    .entry(GroupKey::from_columns(&columns, i))
                    .or_insert(next);
                expected_slots.push(slot);
                match expected_groups.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, count)) => *count += 1,
                    None => expected_groups.push((slot, 1)),
                }
            }

            let on_new = |key: &GroupKey| {
                opened.push(key.clone());
                Ok::<(), Infallible>(())
            };
            if colliding {
                directory.hash_rows(&columns, chunk.len());
                directory.row_hashes.fill(7);
                directory.probe_rows(&columns, &mut keyed, on_new)
            } else {
                directory.key_chunk(chunk, column_indices, &mut keyed, on_new)
            }
            .unwrap();
            assert_eq!(keyed.keys(), expected_slots);
            assert_eq!(keyed.runs(), expected_groups);
            let sorted: Vec<(u32, Vec<u32>)> = keyed
                .sorted()
                .map(|(slot, indices)| (slot, indices.to_vec()))
                .collect();
            let expected_sorted: Vec<(u32, Vec<u32>)> = expected_groups
                .iter()
                .map(|&(slot, _)| {
                    let rows =
                        (0..chunk.len() as u32).filter(|&i| expected_slots[i as usize] == slot);
                    (slot, rows.collect())
                })
                .collect();
            assert_eq!(sorted, expected_sorted);
        }
        // `on_new` ran exactly once per distinct key, in slot order.
        assert_eq!(opened.len(), oracle.len());
        for (slot, key) in opened.iter().enumerate() {
            assert_eq!(oracle[key], slot as u32);
        }
        let in_slot_order: Vec<GroupKey> = directory.into_keys().collect();
        assert_eq!(in_slot_order, opened);
    }

    /// Chunks of 216 rows over 54 distinct keys — every pair of nine text
    /// parts (NULL; `""`, `"a"` and `"a\0"`, which differ only in length
    /// or padding; strings of 7, 8, 9 and 16 bytes, which end inside, at and
    /// past an 8-byte word, two of the 9-byte ones an 8-byte string plus a
    /// NUL or a letter) and six double parts (both zeros, three NaN bit
    /// patterns, NULL), with a bigint part — clustered, alternating and
    /// shuffled, three chunks per order so slots carry over between chunks,
    /// with the label of the order.
    fn keying_fixture() -> Vec<(&'static str, Vec<RowChunk>)> {
        let schema = Schema::new(vec![
            Column::new("t", ColumnType::Text),
            Column::new("d", ColumnType::Double),
            Column::new("n", ColumnType::Int),
        ]);
        let texts = [
            Value::Null,
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text("a\0".into()),
            Value::Text("abcdefg".into()),
            Value::Text("abcdefgh".into()),
            Value::Text("abcdefgh\0".into()),
            Value::Text("abcdefghi".into()),
            Value::Text("abcdefghijklmnop".into()),
        ];
        let doubles = [
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(f64::from_bits(f64::NAN.to_bits() | 1)),
            Value::Double(-f64::NAN),
            Value::Null,
        ];
        let distinct: Vec<Vec<Value>> = (0..54)
            .map(|k| {
                vec![
                    texts[k % 9].clone(),
                    doubles[k / 9].clone(),
                    Value::Int((k % 2) as i64),
                ]
            })
            .collect();
        let orders: [(&str, Vec<usize>); 3] = [
            ("clustered", (0..216).map(|i| i / 4).collect()),
            (
                "alternating",
                (0..216).map(|i| i % 2 * 27 + i / 108).collect(),
            ),
            (
                "shuffled",
                (0..216).map(|i| (i * 29 + i / 54) % 54).collect(),
            ),
        ];
        orders
            .into_iter()
            .map(|(label, order)| {
                let chunks = order
                    .chunks(72)
                    .map(|piece| {
                        let mut chunk = RowChunk::new(&schema);
                        for &k in piece {
                            chunk.push_values(&distinct[k]).unwrap();
                        }
                        chunk
                    })
                    .collect();
                (label, chunks)
            })
            .collect()
    }

    const KEY_COLUMN_SETS: [&[usize]; 4] = [&[0], &[1], &[0, 1], &[1, 2, 0]];

    #[test]
    fn keying_pass_matches_a_per_row_hash_walk() {
        for (label, chunks) in keying_fixture() {
            for columns in KEY_COLUMN_SETS {
                eprintln!("{label} order, key columns {columns:?}");
                check_keying_against_oracle(false, &chunks, columns);
            }
        }
    }

    #[test]
    fn keying_pass_with_every_hash_colliding_matches_the_walk() {
        for (label, chunks) in keying_fixture() {
            for columns in KEY_COLUMN_SETS {
                eprintln!("{label} order, key columns {columns:?}");
                check_keying_against_oracle(true, &chunks, columns);
            }
        }
    }

    #[test]
    fn a_failed_on_new_opens_no_slot() {
        let schema = Schema::new(vec![Column::new("k", ColumnType::Int)]);
        let chunk_of = |keys: &[i64]| {
            let mut chunk = RowChunk::new(&schema);
            for &k in keys {
                chunk.push_values(&[Value::Int(k)]).unwrap();
            }
            chunk
        };
        let mut directory = SlotDirectory::default();
        let mut keyed = IndexSort::default();
        let refuse = |_: &GroupKey| Err("no model");
        let accept = |_: &GroupKey| Ok::<(), &str>(());
        assert_eq!(
            directory.key_chunk(&chunk_of(&[1]), &[0], &mut keyed, refuse),
            Err("no model")
        );
        // The failed attempt consumed no slot: the next new key gets slot 0.
        directory
            .key_chunk(&chunk_of(&[2, 1]), &[0], &mut keyed, accept)
            .unwrap();
        assert_eq!(keyed.keys(), [0, 1]);
        // Known keys never reach `on_new` again.
        directory
            .key_chunk(&chunk_of(&[1, 2, 1]), &[0], &mut keyed, |_| {
                Err("known key reopened")
            })
            .unwrap();
        assert_eq!(keyed.keys(), [1, 0, 1]);
        let keys: Vec<GroupKey> = directory.into_keys().collect();
        assert_eq!(
            keys,
            [
                GroupKey::from_value(&Value::Int(2)),
                GroupKey::from_value(&Value::Int(1))
            ]
        );
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
