//! Chunked, column-major row storage — the vectorized execution layout.
//!
//! The paper's Figure 4 lesson is that the inner loop of a transition
//! function dominates end-to-end method runtime: MADlib's linear regression
//! got ~100× faster across three releases purely by restructuring how the
//! per-row update touches memory.  The same applies one level up: handing
//! aggregates one [`Row`] at a time makes every transition pay enum dispatch
//! on [`Value`], pointer-chasing into per-row `Vec`s, and per-row virtual
//! call overhead.
//!
//! A [`RowChunk`] stores a fixed-size batch of rows column-major: each column
//! is one contiguous buffer ([`ColumnChunk`]) plus a [`NullBitmap`].  Scalar
//! `double precision` columns become plain `&[f64]` slices; array columns
//! (feature vectors) become one flattened `f64` buffer with an offset table,
//! so a chunk of 1 024 training points is a single contiguous block the
//! batched kernels in `madlib-linalg` can stream.  Aggregates opt in through
//! [`crate::Aggregate::transition_chunk`]; everything else falls back to
//! per-row iteration over materialized rows with identical results.

use crate::error::{EngineError, Result};
use crate::row::Row;
use crate::schema::{Column, ColumnType, Schema};
use crate::value::{Value, ValueRef};
use std::ops::Range;
use std::sync::Arc;

/// Number of rows a chunk holds before the table seals it and starts the
/// next one.  1 024 rows × 8 bytes keeps a scalar column inside L1 and a
/// ~100-wide feature-vector column inside L2 on common hardware.
pub const CHUNK_CAPACITY: usize = 1024;

/// Array elements a transposition stages at a time at most
/// ([`RowChunk::transpose`]): 64 KiB of `f64`s.  Staging buffers live for one
/// slab, so they are kept far below the size (128 KiB by default) from which
/// the allocator serves a request with a mapping of its own: small, they are
/// the same warm heap blocks slab after slab; large, every slab would fault
/// its pages in anew, and the first one freed would raise that size for the
/// rest of the process — after which the table's own chunk buffers grow
/// inside the heap, by copying.
const SLAB_ELEMENTS: usize = 8 << 10;

/// Elements a value adds to an array column's buffer.
fn array_len(value: &Value) -> usize {
    match value {
        Value::DoubleArray(a) => a.len(),
        Value::IntArray(a) => a.len(),
        Value::TextArray(a) => a.len(),
        _ => 0,
    }
}

/// Which rows of a source chunk a copy takes: ascending indices, or — what
/// ascending indices without a gap are — one contiguous run, which is copied
/// slice by slice instead of row by row.
#[derive(Debug, Clone)]
enum Rows<'a> {
    At(&'a [u32]),
    Run(Range<usize>),
}

impl<'a> Rows<'a> {
    fn of(indices: &'a [u32]) -> Self {
        match (indices.first(), indices.last()) {
            (Some(&lo), Some(&hi)) if hi.checked_sub(lo) == Some(indices.len() as u32 - 1) => {
                Rows::Run(lo as usize..hi as usize + 1)
            }
            _ => Rows::At(indices),
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::At(indices) => indices.len(),
            Rows::Run(run) => run.len(),
        }
    }
}

/// A packed validity bitmap: bit `i` is set when row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row's validity flag.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Whether any row is NULL.  The fast paths check this once per chunk and
    /// skip all per-row validity tests when it is false — the common case for
    /// machine-generated training data.
    pub fn any_null(&self) -> bool {
        self.nulls > 0
    }

    /// The packed bitmap words (persistence reads them directly; bit `i` of
    /// the concatenated words is row `i`'s NULL flag).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from persisted words, recomputing the null count.
    ///
    /// # Errors
    /// Returns [`EngineError::Storage`] when the word count does not match
    /// `len` or bits past `len` are set (corrupt persisted data).
    pub(crate) fn from_raw(words: Vec<u64>, len: usize) -> Result<Self> {
        if words.len() != len.div_ceil(64) {
            return Err(EngineError::storage(
                "null bitmap",
                format!("{} words cannot cover {len} rows", words.len()),
            ));
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return Err(EngineError::storage("null bitmap", "bits set past length"));
                }
            }
        }
        let nulls = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(Self { words, len, nulls })
    }

    /// Appends the flags of `rows` of `src`.  A source without NULLs — the
    /// common case — only grows the word list.
    fn extend(&mut self, src: &NullBitmap, rows: &Rows<'_>) {
        if !src.any_null() {
            self.len += rows.len();
            self.words.resize(self.len.div_ceil(64), 0);
            return;
        }
        match rows {
            Rows::At(indices) => indices
                .iter()
                .for_each(|&i| self.push(src.is_null(i as usize))),
            Rows::Run(run) => run.clone().for_each(|i| self.push(src.is_null(i))),
        }
    }

    fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
        self.nulls = 0;
    }
}

/// Rows of a chunk selected by a predicate, one bit per row.
///
/// Produced by [`crate::expr::Predicate::evaluate_chunk`]; the executor uses
/// it to either skip a chunk entirely, pass it through untouched, or gather
/// the selected rows into a compacted chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// A mask selecting every one of `len` rows.
    pub fn all(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Self { words, len }
    }

    /// A mask selecting none of `len` rows.
    pub fn none(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Selects or deselects row `i`.
    pub fn set(&mut self, i: usize, selected: bool) {
        debug_assert!(i < self.len);
        let bit = 1u64 << (i % 64);
        if selected {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Whether row `i` is selected.
    pub fn is_selected(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of selected rows.
    pub fn count_selected(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the selected row indices in ascending order, skipping
    /// whole 64-row words that select nothing.  This keeps gathers of sparse
    /// masks (e.g. one group out of hundreds in a chunk) proportional to the
    /// number of *selected* rows rather than the chunk length.
    pub fn selected_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut remaining = word;
            std::iter::from_fn(move || {
                if remaining == 0 {
                    None
                } else {
                    let bit = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    Some(w * 64 + bit)
                }
            })
        })
    }

    /// Whether every row is selected.
    pub fn is_all_selected(&self) -> bool {
        self.count_selected() == self.len
    }

    /// In-place conjunction with another mask of the same length.
    pub fn and_with(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place disjunction with another mask of the same length.
    pub fn or_with(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn negate(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        // Clear the bits past `len` so counts stay correct.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// One column of a chunk: a contiguous, type-specific buffer plus nulls.
///
/// Array-typed columns are flattened into a single values buffer with an
/// `offsets` table of length `rows + 1` (row `i` spans
/// `values[offsets[i]..offsets[i + 1]]`), so uniform-width feature vectors
/// occupy one dense block.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnChunk {
    /// `double precision` (also stores `bigint` values inserted into double
    /// columns, coerced once at insert instead of per scan).
    Double {
        /// One value per row; NULL rows hold `0.0`.
        values: Vec<f64>,
        /// Validity bitmap.
        nulls: NullBitmap,
    },
    /// `bigint`.
    Int {
        /// One value per row; NULL rows hold `0`.
        values: Vec<i64>,
        /// Validity bitmap.
        nulls: NullBitmap,
    },
    /// `boolean`.
    Bool {
        /// One value per row; NULL rows hold `false`.
        values: Vec<bool>,
        /// Validity bitmap.
        nulls: NullBitmap,
    },
    /// `text`.
    Text {
        /// One value per row; NULL rows hold an empty string.
        values: Vec<String>,
        /// Validity bitmap.
        nulls: NullBitmap,
    },
    /// `double precision[]`, flattened.
    DoubleArray {
        /// Concatenated element values of all rows.
        values: Vec<f64>,
        /// Row `i` spans `values[offsets[i]..offsets[i + 1]]`.
        offsets: Vec<usize>,
        /// Validity bitmap (a NULL row has an empty span).
        nulls: NullBitmap,
    },
    /// `bigint[]`, flattened.
    IntArray {
        /// Concatenated element values of all rows.
        values: Vec<i64>,
        /// Row `i` spans `values[offsets[i]..offsets[i + 1]]`.
        offsets: Vec<usize>,
        /// Validity bitmap (a NULL row has an empty span).
        nulls: NullBitmap,
    },
    /// `text[]`, flattened.
    TextArray {
        /// Concatenated element values of all rows.
        values: Vec<String>,
        /// Row `i` spans `values[offsets[i]..offsets[i + 1]]`.
        offsets: Vec<usize>,
        /// Validity bitmap (a NULL row has an empty span).
        nulls: NullBitmap,
    },
}

impl ColumnChunk {
    /// An empty column with room for `rows` rows — of `elements` array
    /// elements in all, for an array column (a gather knows its row count and
    /// sizes the rest as it copies; a transposition knows both).
    pub(crate) fn new(column_type: ColumnType, rows: usize, elements: usize) -> Self {
        fn scalars<T>(rows: usize) -> (Vec<T>, NullBitmap) {
            (Vec::with_capacity(rows), NullBitmap::new())
        }
        fn arrays<T>(rows: usize, elements: usize) -> (Vec<T>, Vec<usize>, NullBitmap) {
            let mut offsets = Vec::with_capacity(rows + 1);
            offsets.push(0);
            (Vec::with_capacity(elements), offsets, NullBitmap::new())
        }
        match column_type {
            ColumnType::Double => {
                let (values, nulls) = scalars(rows);
                ColumnChunk::Double { values, nulls }
            }
            ColumnType::Int => {
                let (values, nulls) = scalars(rows);
                ColumnChunk::Int { values, nulls }
            }
            ColumnType::Bool => {
                let (values, nulls) = scalars(rows);
                ColumnChunk::Bool { values, nulls }
            }
            ColumnType::Text => {
                let (values, nulls) = scalars(rows);
                ColumnChunk::Text { values, nulls }
            }
            ColumnType::DoubleArray => {
                let (values, offsets, nulls) = arrays(rows, elements);
                ColumnChunk::DoubleArray {
                    values,
                    offsets,
                    nulls,
                }
            }
            ColumnType::IntArray => {
                let (values, offsets, nulls) = arrays(rows, elements);
                ColumnChunk::IntArray {
                    values,
                    offsets,
                    nulls,
                }
            }
            ColumnType::TextArray => {
                let (values, offsets, nulls) = arrays(rows, elements);
                ColumnChunk::TextArray {
                    values,
                    offsets,
                    nulls,
                }
            }
        }
    }

    /// Appends one value, **moved** in — the one place a [`Value`] becomes a
    /// stored value: a `String` is never cloned, an array's `Vec` is freed as
    /// soon as it has been copied, and a `bigint` is coerced to `f64` once,
    /// here, by a `double precision` column.  What the column's type does not
    /// accept ([`ColumnType::accepts`]) comes back, the column unchanged.
    pub(crate) fn push(&mut self, value: Value) -> std::result::Result<(), Value> {
        fn scalar<T: Default>(values: &mut Vec<T>, nulls: &mut NullBitmap, value: Option<T>) {
            nulls.push(value.is_none());
            values.push(value.unwrap_or_default());
        }
        fn array<T>(
            values: &mut Vec<T>,
            offsets: &mut Vec<usize>,
            nulls: &mut NullBitmap,
            value: Option<Vec<T>>,
        ) {
            nulls.push(value.is_none());
            values.extend(value.unwrap_or_default());
            offsets.push(values.len());
        }
        /// What `value` stores as: nothing for NULL, the payload of a variant
        /// the column accepts — anything else goes back to the caller.
        macro_rules! stored {
            ($($variant:pat => $payload:expr),+) => {
                match value {
                    Value::Null => None,
                    $($variant => Some($payload),)+
                    other => return Err(other),
                }
            };
        }
        match self {
            ColumnChunk::Double { values, nulls } => scalar(
                values,
                nulls,
                stored!(Value::Double(v) => v, Value::Int(v) => v as f64),
            ),
            ColumnChunk::Int { values, nulls } => {
                scalar(values, nulls, stored!(Value::Int(v) => v))
            }
            ColumnChunk::Bool { values, nulls } => {
                scalar(values, nulls, stored!(Value::Bool(v) => v))
            }
            ColumnChunk::Text { values, nulls } => {
                scalar(values, nulls, stored!(Value::Text(v) => v))
            }
            ColumnChunk::DoubleArray {
                values,
                offsets,
                nulls,
            } => array(values, offsets, nulls, stored!(Value::DoubleArray(v) => v)),
            ColumnChunk::IntArray {
                values,
                offsets,
                nulls,
            } => array(values, offsets, nulls, stored!(Value::IntArray(v) => v)),
            ColumnChunk::TextArray {
                values,
                offsets,
                nulls,
            } => array(values, offsets, nulls, stored!(Value::TextArray(v) => v)),
        }
        Ok(())
    }

    /// Validity bitmap of this column.
    pub fn nulls(&self) -> &NullBitmap {
        match self {
            ColumnChunk::Double { nulls, .. }
            | ColumnChunk::Int { nulls, .. }
            | ColumnChunk::Bool { nulls, .. }
            | ColumnChunk::Text { nulls, .. }
            | ColumnChunk::DoubleArray { nulls, .. }
            | ColumnChunk::IntArray { nulls, .. }
            | ColumnChunk::TextArray { nulls, .. } => nulls,
        }
    }

    /// The column type this buffer stores.
    pub(crate) fn column_type(&self) -> ColumnType {
        match self {
            ColumnChunk::Double { .. } => ColumnType::Double,
            ColumnChunk::Int { .. } => ColumnType::Int,
            ColumnChunk::Bool { .. } => ColumnType::Bool,
            ColumnChunk::Text { .. } => ColumnType::Text,
            ColumnChunk::DoubleArray { .. } => ColumnType::DoubleArray,
            ColumnChunk::IntArray { .. } => ColumnType::IntArray,
            ColumnChunk::TextArray { .. } => ColumnType::TextArray,
        }
    }

    /// The SQL-ish name of the stored type, for error messages.
    pub fn type_name(&self) -> &'static str {
        self.column_type().sql_name()
    }

    /// Row `i` of this column, borrowed from its buffer.
    pub(crate) fn value_ref(&self, i: usize) -> ValueRef<'_> {
        if self.nulls().is_null(i) {
            return ValueRef::Null;
        }
        match self {
            ColumnChunk::Double { values, .. } => ValueRef::Double(values[i]),
            ColumnChunk::Int { values, .. } => ValueRef::Int(values[i]),
            ColumnChunk::Bool { values, .. } => ValueRef::Bool(values[i]),
            ColumnChunk::Text { values, .. } => ValueRef::Text(&values[i]),
            ColumnChunk::DoubleArray {
                values, offsets, ..
            } => ValueRef::DoubleArray(&values[offsets[i]..offsets[i + 1]]),
            ColumnChunk::IntArray {
                values, offsets, ..
            } => ValueRef::IntArray(&values[offsets[i]..offsets[i + 1]]),
            ColumnChunk::TextArray {
                values, offsets, ..
            } => ValueRef::TextArray(&values[offsets[i]..offsets[i + 1]]),
        }
    }

    /// Materializes row `i` of this column as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        self.value_ref(i).to_value()
    }

    /// Appends `rows` of `src` to this column — the one body that copies rows
    /// between columns; gathers, filter compaction, radix staging and every
    /// table append arrive here through [`RowChunk::append_rows`] /
    /// [`RowChunk::gather_rows`] / [`RowChunk::slice`].  Both columns must
    /// store the same [`ColumnType`], which those callers establish before
    /// the first copy.
    fn append_rows(&mut self, src: &ColumnChunk, rows: Rows<'_>) {
        fn scalars<T: Clone>(
            out_values: &mut Vec<T>,
            out_nulls: &mut NullBitmap,
            values: &[T],
            nulls: &NullBitmap,
            rows: Rows<'_>,
        ) {
            out_nulls.extend(nulls, &rows);
            match rows {
                Rows::At(indices) => {
                    out_values.extend(indices.iter().map(|&i| values[i as usize].clone()))
                }
                Rows::Run(run) => out_values.extend_from_slice(&values[run]),
            }
        }

        fn arrays<T: Clone>(
            out_values: &mut Vec<T>,
            out_offsets: &mut Vec<usize>,
            out_nulls: &mut NullBitmap,
            values: &[T],
            offsets: &[usize],
            nulls: &NullBitmap,
            rows: Rows<'_>,
        ) {
            out_nulls.extend(nulls, &rows);
            out_offsets.reserve(rows.len());
            match rows {
                Rows::At(indices) => {
                    let span = |i: u32| offsets[i as usize]..offsets[i as usize + 1];
                    out_values.reserve(indices.iter().map(|&i| span(i).len()).sum());
                    for &i in indices {
                        out_values.extend_from_slice(&values[span(i)]);
                        out_offsets.push(out_values.len());
                    }
                }
                Rows::Run(run) => {
                    let (from, base) = (offsets[run.start], out_values.len());
                    out_values.extend_from_slice(&values[from..offsets[run.end]]);
                    let ends = &offsets[run.start + 1..=run.end];
                    out_offsets.extend(ends.iter().map(|end| base + end - from));
                }
            }
        }

        match (self, src) {
            (
                ColumnChunk::Double {
                    values: ov,
                    nulls: on,
                },
                ColumnChunk::Double { values, nulls },
            ) => scalars(ov, on, values, nulls, rows),
            (
                ColumnChunk::Int {
                    values: ov,
                    nulls: on,
                },
                ColumnChunk::Int { values, nulls },
            ) => scalars(ov, on, values, nulls, rows),
            (
                ColumnChunk::Bool {
                    values: ov,
                    nulls: on,
                },
                ColumnChunk::Bool { values, nulls },
            ) => scalars(ov, on, values, nulls, rows),
            (
                ColumnChunk::Text {
                    values: ov,
                    nulls: on,
                },
                ColumnChunk::Text { values, nulls },
            ) => scalars(ov, on, values, nulls, rows),
            (
                ColumnChunk::DoubleArray {
                    values: ov,
                    offsets: oo,
                    nulls: on,
                },
                ColumnChunk::DoubleArray {
                    values,
                    offsets,
                    nulls,
                },
            ) => arrays(ov, oo, on, values, offsets, nulls, rows),
            (
                ColumnChunk::IntArray {
                    values: ov,
                    offsets: oo,
                    nulls: on,
                },
                ColumnChunk::IntArray {
                    values,
                    offsets,
                    nulls,
                },
            ) => arrays(ov, oo, on, values, offsets, nulls, rows),
            (
                ColumnChunk::TextArray {
                    values: ov,
                    offsets: oo,
                    nulls: on,
                },
                ColumnChunk::TextArray {
                    values,
                    offsets,
                    nulls,
                },
            ) => arrays(ov, oo, on, values, offsets, nulls, rows),
            (target, src) => debug_assert!(
                false,
                "append_rows from a {} column into a {} column",
                src.type_name(),
                target.type_name()
            ),
        }
    }

    /// Gives back the capacity the buffers grew past their contents.
    fn shrink_to_fit(&mut self) {
        match self {
            ColumnChunk::Double { values, .. } => values.shrink_to_fit(),
            ColumnChunk::Int { values, .. } => values.shrink_to_fit(),
            ColumnChunk::Bool { values, .. } => values.shrink_to_fit(),
            ColumnChunk::Text { values, .. } => values.shrink_to_fit(),
            ColumnChunk::DoubleArray {
                values, offsets, ..
            } => {
                values.shrink_to_fit();
                offsets.shrink_to_fit();
            }
            ColumnChunk::IntArray {
                values, offsets, ..
            } => {
                values.shrink_to_fit();
                offsets.shrink_to_fit();
            }
            ColumnChunk::TextArray {
                values, offsets, ..
            } => {
                values.shrink_to_fit();
                offsets.shrink_to_fit();
            }
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnChunk::Double { values, nulls } => {
                values.clear();
                nulls.clear();
            }
            ColumnChunk::Int { values, nulls } => {
                values.clear();
                nulls.clear();
            }
            ColumnChunk::Bool { values, nulls } => {
                values.clear();
                nulls.clear();
            }
            ColumnChunk::Text { values, nulls } => {
                values.clear();
                nulls.clear();
            }
            ColumnChunk::DoubleArray {
                values,
                offsets,
                nulls,
            } => {
                values.clear();
                offsets.clear();
                offsets.push(0);
                nulls.clear();
            }
            ColumnChunk::IntArray {
                values,
                offsets,
                nulls,
            } => {
                values.clear();
                offsets.clear();
                offsets.push(0);
                nulls.clear();
            }
            ColumnChunk::TextArray {
                values,
                offsets,
                nulls,
            } => {
                values.clear();
                offsets.clear();
                offsets.push(0);
                nulls.clear();
            }
        }
    }
}

/// Borrowed view of a `double precision` scalar column.
#[derive(Debug, Clone, Copy)]
pub struct DoubleColumn<'a> {
    /// One value per row (NULL rows hold `0.0` — consult `nulls`).
    pub values: &'a [f64],
    /// Validity bitmap.
    pub nulls: &'a NullBitmap,
}

/// Borrowed view of a flattened `double precision[]` column.
#[derive(Debug, Clone, Copy)]
pub struct DoubleArrayColumn<'a> {
    values: &'a [f64],
    offsets: &'a [usize],
    nulls: &'a NullBitmap,
}

impl<'a> DoubleArrayColumn<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The array of row `i` (empty for NULL rows).
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Validity bitmap.
    pub fn nulls(&self) -> &'a NullBitmap {
        self.nulls
    }

    /// The entire flattened buffer, in row order.
    pub fn flat_values(&self) -> &'a [f64] {
        self.values
    }

    /// When every row is non-NULL and has the same width, returns that width
    /// — the precondition for handing [`DoubleArrayColumn::flat_values`] to a
    /// batched kernel as a dense row-major matrix.  A chunk of zero rows has
    /// no width; NULL or ragged rows return `None`.
    pub fn uniform_width(&self) -> Option<usize> {
        if self.is_empty() || self.nulls.any_null() {
            return None;
        }
        let width = self.offsets[1] - self.offsets[0];
        for w in self.offsets.windows(2).skip(1) {
            if w[1] - w[0] != width {
                return None;
            }
        }
        Some(width)
    }
}

/// A fixed-capacity batch of rows stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChunk {
    len: usize,
    columns: Vec<ColumnChunk>,
}

impl RowChunk {
    /// Creates an empty chunk shaped for `schema`.
    pub fn new(schema: &Schema) -> Self {
        Self {
            len: 0,
            columns: schema
                .columns()
                .iter()
                .map(|c| ColumnChunk::new(c.column_type, 0, 0))
                .collect(),
        }
    }

    /// Number of rows currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column buffers.
    pub fn columns(&self) -> &[ColumnChunk] {
        &self.columns
    }

    /// Column `idx`.
    pub fn column(&self, idx: usize) -> &ColumnChunk {
        &self.columns[idx]
    }

    /// Transposes `rows` into chunks of at most `capacity` rows each — **the
    /// one place rows become columns**, behind [`crate::Table::insert`] and
    /// [`crate::Database::append_rows`] alike.  Rows are taken a slab at a
    /// time — `capacity` rows, or fewer once they hold [`SLAB_ELEMENTS`]: each
    /// column is sized exactly, then every row is taken apart — its `Vec`
    /// freed, each value checked against its column's type and moved, never
    /// cloned, into the column's buffer ([`ColumnChunk::push`]) — before the
    /// next slab is looked at.
    ///
    /// # Errors
    /// Returns [`EngineError::ArityMismatch`] / [`EngineError::TypeMismatch`]
    /// for the first row or value that does not fit `schema`.
    pub(crate) fn transpose(
        schema: &Schema,
        rows: impl IntoIterator<Item = Row>,
        capacity: usize,
    ) -> Result<Vec<RowChunk>> {
        let mut rows = rows.into_iter();
        let mut slab: Vec<Row> = Vec::new();
        let mut chunks = Vec::new();
        loop {
            let mut elements = 0;
            while slab.len() < capacity && elements < SLAB_ELEMENTS {
                let Some(row) = rows.next() else { break };
                elements += row.values().iter().map(array_len).sum::<usize>();
                slab.push(row);
            }
            if slab.is_empty() {
                return Ok(chunks);
            }
            chunks.push(RowChunk::from_rows(schema, &mut slab)?);
        }
    }

    /// One chunk out of all of `rows`, which are left empty.
    fn from_rows(schema: &Schema, rows: &mut Vec<Row>) -> Result<RowChunk> {
        let arity = schema.arity();
        if let Some(row) = rows.iter().find(|row| row.arity() != arity) {
            return Err(EngineError::ArityMismatch {
                expected: arity,
                found: row.arity(),
            });
        }
        // Sized exactly: a column's buffers are allocated once.
        let sized = |(c, column): (usize, &Column)| {
            let elements = rows.iter().map(|row| array_len(row.get(c))).sum();
            ColumnChunk::new(column.column_type, rows.len(), elements)
        };
        let mut chunk = RowChunk {
            len: rows.len(),
            columns: schema.columns().iter().enumerate().map(sized).collect(),
        };
        for row in rows.drain(..) {
            let stored = chunk.columns.iter_mut().zip(schema.columns());
            for ((stored, column), value) in stored.zip(row.into_values()) {
                let pushed = stored.push(value);
                pushed.map_err(|value| column.type_mismatch(value.type_name()))?;
            }
        }
        Ok(chunk)
    }

    /// Appends one row of values: the one-row case of the transposition
    /// behind [`crate::Table::insert_all`], for tests and small hand-built
    /// chunks.  On failure the chunk is unchanged.
    ///
    /// # Errors
    /// Returns [`EngineError::ArityMismatch`] for a wrong-arity row and
    /// [`EngineError::TypeMismatch`] for a value its column does not accept.
    pub fn push_values(&mut self, values: &[Value]) -> Result<()> {
        let columns = self.columns.iter().enumerate();
        let columns = columns.map(|(i, c)| Column::new(format!("#{i}"), c.column_type()));
        let row = Row::new(values.to_vec());
        for chunk in RowChunk::transpose(&Schema::new(columns.collect()), [row], 1)? {
            self.copy_rows(&chunk, None, Rows::Run(0..1));
        }
        Ok(())
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Materializes row `i` into an existing value buffer, reusing its
    /// allocation (the per-row fallback path calls this once per row).
    pub fn read_row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Iterates over materialized rows.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Materializes the value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Borrows column `idx` as a contiguous `f64` slice plus validity bitmap.
    ///
    /// # Errors
    /// Returns [`EngineError::TypeMismatch`] unless the column stores
    /// `double precision` scalars.
    pub fn doubles(&self, idx: usize) -> Result<DoubleColumn<'_>> {
        match &self.columns[idx] {
            ColumnChunk::Double { values, nulls } => Ok(DoubleColumn { values, nulls }),
            other => Err(EngineError::TypeMismatch {
                expected: "double precision",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Borrows column `idx` as a flattened `double precision[]` view.
    ///
    /// # Errors
    /// Returns [`EngineError::TypeMismatch`] unless the column stores
    /// `double precision[]` arrays.
    pub fn double_arrays(&self, idx: usize) -> Result<DoubleArrayColumn<'_>> {
        match &self.columns[idx] {
            ColumnChunk::DoubleArray {
                values,
                offsets,
                nulls,
            } => Ok(DoubleArrayColumn {
                values,
                offsets,
                nulls,
            }),
            other => Err(EngineError::TypeMismatch {
                expected: "double precision[]",
                found: other.type_name().to_owned(),
            }),
        }
    }

    /// Copies the rows selected by `mask` into a new compacted chunk,
    /// preserving row order: the mask's indices are collected once and
    /// handed to [`RowChunk::gather_rows`].
    pub fn gather(&self, mask: &SelectionMask) -> RowChunk {
        self.gather_columns(mask, None)
    }

    /// [`RowChunk::gather`] of the columns at `columns` only (`None`: every
    /// column) — the compaction of a scan whose consumer reads no more.
    pub(crate) fn gather_columns(
        &self,
        mask: &SelectionMask,
        columns: Option<&[usize]>,
    ) -> RowChunk {
        debug_assert_eq!(mask.len(), self.len);
        let mut indices = Vec::with_capacity(mask.count_selected());
        indices.extend(mask.selected_indices().map(|i| i as u32));
        let mut out = self.empty_like(columns, indices.len());
        out.copy_rows(self, columns, Rows::of(&indices));
        out
    }

    /// An empty chunk of the column types at `columns` (`None`: every
    /// column), with room for `rows` rows (an array column's elements are
    /// reserved as they are copied).
    fn empty_like(&self, columns: Option<&[usize]>, rows: usize) -> RowChunk {
        let new = |c: &ColumnChunk| ColumnChunk::new(c.column_type(), rows, 0);
        RowChunk {
            len: 0,
            columns: match columns {
                None => self.columns.iter().map(new).collect(),
                Some(columns) => columns.iter().map(|&c| new(&self.columns[c])).collect(),
            },
        }
    }

    /// Copies the rows at `indices` into a new compacted chunk — an empty
    /// chunk of this chunk's column types, filled by the same copy as
    /// [`RowChunk::append_rows`].  Cost is proportional to `indices.len()`
    /// alone, which is what the grouped scan relies on when a chunk
    /// splinters into many small groups.  Indices must be in-bounds and
    /// ascending (row order is preserved, as the equivalence contract
    /// requires).
    pub fn gather_rows(&self, indices: &[u32]) -> RowChunk {
        let mut out = self.empty_like(None, indices.len());
        out.copy_rows(self, None, Rows::of(indices));
        out
    }

    /// Copies the contiguous rows `range` (in-bounds) into a new chunk:
    /// [`RowChunk::gather_rows`] without the index list, every buffer copied
    /// as the one slice it is.
    pub fn slice(&self, range: Range<usize>) -> RowChunk {
        let mut out = self.empty_like(None, range.len());
        out.copy_rows(self, None, Rows::Run(range));
        out
    }

    /// Appends the rows of `src` at `indices` (in-bounds, ascending) to this
    /// chunk, preserving row order — how a caller accumulates rows of many
    /// source chunks into one batch (the grouped scan's radix staging does
    /// the same through the crate's column-subset form).  Cost is
    /// proportional to `indices.len()` alone.
    /// Shapes are checked before the first copy, so on error this chunk is
    /// unchanged.
    ///
    /// # Errors
    /// Returns [`EngineError::ArityMismatch`] / [`EngineError::TypeMismatch`]
    /// when the chunks' shapes differ (never for chunks of one schema).
    pub fn append_rows(&mut self, src: &RowChunk, indices: &[u32]) -> Result<()> {
        if self.columns.len() != src.columns.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.columns.len(),
                found: src.columns.len(),
            });
        }
        let mut pairs = self.columns.iter().zip(&src.columns);
        if let Some((target, source)) = pairs.find(|(t, s)| t.column_type() != s.column_type()) {
            return Err(EngineError::TypeMismatch {
                expected: target.type_name(),
                found: source.type_name().to_owned(),
            });
        }
        self.copy_rows(src, None, Rows::of(indices));
        Ok(())
    }

    /// [`RowChunk::append_rows`] of the columns of `src` at `columns` only
    /// (`None`: every column): this chunk's column `j` takes `src`'s column
    /// `columns[j]`.  The grouped scan's radix staging and per-group gathers
    /// fill chunks built from an aggregate's projected schema this way, so
    /// the shapes pair up by construction and are not checked again.
    pub(crate) fn append_columns(
        &mut self,
        src: &RowChunk,
        columns: Option<&[usize]>,
        indices: &[u32],
    ) {
        self.copy_rows(src, columns, Rows::of(indices));
    }

    /// Checks that this chunk's columns are `schema`'s, type for type — what
    /// a table asks of a chunk before it copies a row of it.
    ///
    /// # Errors
    /// Returns [`EngineError::ArityMismatch`] / [`EngineError::TypeMismatch`].
    pub(crate) fn check_schema(&self, schema: &Schema) -> Result<()> {
        if self.columns.len() != schema.arity() {
            return Err(EngineError::ArityMismatch {
                expected: schema.arity(),
                found: self.columns.len(),
            });
        }
        let mut pairs = schema.columns().iter().zip(&self.columns);
        match pairs.find(|(column, stored)| column.column_type != stored.column_type()) {
            None => Ok(()),
            Some((column, stored)) => Err(column.type_mismatch(stored.type_name())),
        }
    }

    /// The copy behind [`RowChunk::gather_rows`], [`RowChunk::slice`],
    /// [`RowChunk::append_rows`], [`Segment::append_rows`] and their
    /// column-subset forms: this chunk's column `j` takes `src`'s column
    /// `columns[j]`, or its column `j` when `columns` is `None`.  The callers
    /// guarantee that the columns pair up type for type.
    fn copy_rows(&mut self, src: &RowChunk, columns: Option<&[usize]>, rows: Rows<'_>) {
        debug_assert!(match &rows {
            Rows::At(indices) =>
                indices.windows(2).all(|w| w[0] < w[1])
                    && indices.iter().all(|&i| (i as usize) < src.len),
            Rows::Run(run) => run.end <= src.len,
        });
        match columns {
            None => {
                debug_assert_eq!(self.columns.len(), src.columns.len());
                for (target, source) in self.columns.iter_mut().zip(&src.columns) {
                    target.append_rows(source, rows.clone());
                }
            }
            Some(columns) => {
                debug_assert_eq!(self.columns.len(), columns.len());
                for (target, &c) in self.columns.iter_mut().zip(columns) {
                    target.append_rows(&src.columns[c], rows.clone());
                }
            }
        }
        self.len += rows.len();
    }

    /// Reassembles a chunk from persisted column buffers.  Callers (the
    /// recovery path) must supply columns that all cover exactly `len` rows;
    /// the decoder validates this before calling.
    pub(crate) fn from_parts(len: usize, columns: Vec<ColumnChunk>) -> Self {
        debug_assert!(columns.iter().all(|c| c.nulls().len() == len));
        Self { len, columns }
    }

    /// Removes all rows, keeping each column's grown buffers for reuse (the
    /// grouped scan's staging buckets clear and refill across flushes).
    pub(crate) fn clear(&mut self) {
        for c in self.columns.iter_mut() {
            c.clear();
        }
        self.len = 0;
    }
}

/// One table partition: a sequence of column-major chunks.
///
/// All chunks except possibly the last hold exactly the table's chunk
/// capacity; appends fill the last chunk and open the next when it is full.
///
/// Chunks live behind [`Arc`], and so does the list of them, so cloning a
/// segment — the heart of a
/// [`Database::table`](crate::database::Database::table) snapshot read — is
/// **one pointer**, whatever the segment holds: it shares the list and,
/// through it, every chunk's buffers.  Sealed (full) chunks are immutable by
/// the invariant above, so sharing is always safe.  An append goes through
/// [`Arc::make_mut`] twice: on the list, which copies the pointers (not the
/// chunks) exactly when a snapshot taken since the last append is still
/// alive, and on the open tail chunk, which copies at most one chunk's worth
/// of rows exactly when a snapshot still holds the same allocation.  A
/// snapshot therefore keeps seeing its own list — its rows, its sealed
/// chunks by pointer — and an append with no snapshot alive copies nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Segment {
    chunks: Arc<Vec<Arc<RowChunk>>>,
    rows: usize,
}

impl Segment {
    /// Assembles a segment from whole chunks — recovered ones (persisted
    /// sealed chunks followed by the manifest's tail chunk), or ones built at
    /// the chunk capacity to begin with — recomputing the row count.
    pub(crate) fn from_chunks(chunks: Vec<Arc<RowChunk>>) -> Self {
        let rows = chunks.iter().map(|c| c.len()).sum();
        Self {
            chunks: Arc::new(chunks),
            rows,
        }
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the segment has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The chunks, in insertion order.
    pub fn chunks(&self) -> &[Arc<RowChunk>] {
        &self.chunks
    }

    /// Iterates over materialized rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.chunks.iter().flat_map(|c| c.rows())
    }

    /// Appends the rows of `src` at `indices` (in-bounds, ascending), in
    /// order — the one way rows enter a segment: fills the open tail chunk,
    /// seals it at `chunk_capacity` rows and opens the next, until the run is
    /// placed.  Chunk boundaries depend on the row count alone, never on how
    /// the rows were batched.  `src`'s columns must be the segment's, type
    /// for type ([`RowChunk::check_schema`]).
    pub(crate) fn append_rows(
        &mut self,
        src: &RowChunk,
        mut indices: &[u32],
        chunk_capacity: usize,
    ) {
        assert!(chunk_capacity > 0, "a chunk holds at least one row");
        self.rows += indices.len();
        let chunks = Arc::make_mut(&mut self.chunks);
        while let Some((&first, rest)) = indices.split_first() {
            match chunks.last_mut() {
                Some(tail) if tail.len() < chunk_capacity => {
                    let room = (chunk_capacity - tail.len()).min(indices.len());
                    let (run, rest) = indices.split_at(room);
                    // Copy-on-write: clones the open tail chunk only when a
                    // snapshot still shares it; sealed chunks are never
                    // reached here.
                    let tail = Arc::make_mut(tail);
                    tail.copy_rows(src, None, Rows::of(run));
                    if tail.len() == chunk_capacity {
                        // Sealed: a buffer that doubled past its last row
                        // would keep up to half its capacity unused for as
                        // long as the table lives.
                        tail.columns.iter_mut().for_each(ColumnChunk::shrink_to_fit);
                    }
                    indices = rest;
                }
                // A new chunk is born as its first row, so its buffers start
                // at one row's size and double from there, as they did when
                // rows arrived one at a time.  (An allocator that hands small
                // requests recently freed blocks then tends to place the
                // chunk with the rows it is filled from, not in the arena of
                // whichever thread appends; `madbench`'s in-process
                // `recover_s` is sensitive to that.)
                _ => {
                    let first = first as usize;
                    chunks.push(Arc::new(src.slice(first..first + 1)));
                    indices = rest;
                }
            }
        }
    }

    /// Removes all rows, keeping the segment itself.
    pub(crate) fn clear(&mut self) {
        self.rows = 0;
        // Keep one cleared chunk to reuse its buffers on the next append —
        // unless a snapshot still shares it or the list, in which case let go
        // of it (the snapshot keeps the rows; clearing in place would corrupt
        // it).
        match Arc::get_mut(&mut self.chunks) {
            Some(chunks) => {
                chunks.truncate(1);
                match chunks.first_mut().map(Arc::get_mut) {
                    Some(Some(first)) => first.clear(),
                    Some(None) => chunks.clear(),
                    None => {}
                }
            }
            None => self.chunks = Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
            Column::new("tag", ColumnType::Text),
        ])
    }

    fn sample_chunk() -> RowChunk {
        let s = schema();
        let mut chunk = RowChunk::new(&s);
        chunk
            .push_values(row![1.0, vec![1.0, 2.0], "a"].values())
            .unwrap();
        chunk
            .push_values(&[Value::Null, Value::Null, Value::Null])
            .unwrap();
        chunk
            .push_values(row![3.0, vec![5.0, 6.0], "c"].values())
            .unwrap();
        chunk
    }

    #[test]
    fn null_bitmap_tracks_validity() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.any_null());
        assert_eq!(b.null_count(), 44);
        assert!(b.is_null(0));
        assert!(!b.is_null(1));
        assert!(b.is_null(129));
        assert!(!NullBitmap::new().any_null());
    }

    #[test]
    fn column_major_layout_and_materialization() {
        let chunk = sample_chunk();
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.arity(), 3);

        let y = chunk.doubles(0).unwrap();
        assert_eq!(y.values, &[1.0, 0.0, 3.0]);
        assert!(y.nulls.is_null(1));

        let x = chunk.double_arrays(1).unwrap();
        assert_eq!(x.len(), 3);
        assert_eq!(x.row(0), &[1.0, 2.0]);
        assert_eq!(x.row(1), &[] as &[f64]);
        assert_eq!(x.row(2), &[5.0, 6.0]);
        assert_eq!(x.flat_values(), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(x.uniform_width(), None); // NULL row breaks uniformity

        assert_eq!(chunk.row(0), row![1.0, vec![1.0, 2.0], "a"]);
        assert_eq!(chunk.value(1, 0), Value::Null);
        assert_eq!(chunk.value(2, 2), Value::Text("c".into()));
        assert_eq!(chunk.rows().count(), 3);

        // Wrong-type accessors fail like `Value::as_*` does.
        assert!(chunk.doubles(1).is_err());
        assert!(chunk.double_arrays(0).is_err());
    }

    #[test]
    fn uniform_width_on_dense_data() {
        let s = schema();
        let mut chunk = RowChunk::new(&s);
        for i in 0..10 {
            chunk
                .push_values(row![i as f64, vec![i as f64, 1.0, 2.0], "t"].values())
                .unwrap();
        }
        let x = chunk.double_arrays(1).unwrap();
        assert_eq!(x.uniform_width(), Some(3));
        assert_eq!(x.flat_values().len(), 30);
    }

    #[test]
    fn selection_masks_combine() {
        let mut even = SelectionMask::none(100);
        for i in (0..100).step_by(2) {
            even.set(i, true);
        }
        assert_eq!(even.count_selected(), 50);
        assert!(even.is_selected(0));
        assert!(!even.is_selected(1));

        let all = SelectionMask::all(100);
        assert!(all.is_all_selected());
        assert_eq!(all.count_selected(), 100);

        let mut both = even.clone();
        both.and_with(&all);
        assert_eq!(both, even);

        let mut odd = even.clone();
        odd.negate();
        assert_eq!(odd.count_selected(), 50);
        assert!(odd.is_selected(1));

        let mut either = even.clone();
        either.or_with(&odd);
        assert!(either.is_all_selected());

        // Tail bits beyond len stay cleared after negate.
        let mut tiny = SelectionMask::none(3);
        tiny.negate();
        assert_eq!(tiny.count_selected(), 3);

        // The index iterator agrees with the bit tests, across word
        // boundaries and for empty masks.
        let indices: Vec<usize> = even.selected_indices().collect();
        assert_eq!(indices.len(), 50);
        assert!(indices.iter().all(|i| i % 2 == 0));
        assert_eq!(indices, {
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            sorted
        });
        assert_eq!(SelectionMask::none(100).selected_indices().count(), 0);
    }

    #[test]
    fn gather_compacts_selected_rows() {
        let chunk = sample_chunk();
        let mut mask = SelectionMask::none(3);
        mask.set(0, true);
        mask.set(2, true);
        let compact = chunk.gather(&mask);
        assert_eq!(compact.len(), 2);
        assert_eq!(compact.row(0), row![1.0, vec![1.0, 2.0], "a"]);
        assert_eq!(compact.row(1), row![3.0, vec![5.0, 6.0], "c"]);
        let x = compact.double_arrays(1).unwrap();
        assert_eq!(x.uniform_width(), Some(2));
        assert_eq!(x.flat_values(), &[1.0, 2.0, 5.0, 6.0]);

        // Index-based gather produces the identical chunk.
        let by_indices = chunk.gather_rows(&[0, 2]);
        assert_eq!(by_indices, compact);
        assert!(chunk.gather_rows(&[]).is_empty());
    }

    #[test]
    fn append_rows_stages_across_source_chunks() {
        let s = schema();
        let mut source_a = RowChunk::new(&s);
        source_a
            .push_values(row![1.0, vec![1.0, 2.0], "a"].values())
            .unwrap();
        source_a
            .push_values(&[Value::Null, Value::Null, Value::Null])
            .unwrap();
        source_a
            .push_values(row![3.0, vec![5.0, 6.0], "c"].values())
            .unwrap();
        let mut source_b = RowChunk::new(&s);
        source_b
            .push_values(row![4.0, vec![7.0], "d"].values())
            .unwrap();

        let mut staged = RowChunk::new(&s);
        staged.append_rows(&source_a, &[0, 2]).unwrap();
        staged.append_rows(&source_b, &[0]).unwrap();
        staged.append_rows(&source_a, &[1]).unwrap();
        assert_eq!(staged.len(), 4);
        assert_eq!(staged.row(0), row![1.0, vec![1.0, 2.0], "a"]);
        assert_eq!(staged.row(1), row![3.0, vec![5.0, 6.0], "c"]);
        assert_eq!(staged.row(2), row![4.0, vec![7.0], "d"]);
        assert_eq!(staged.value(3, 0), Value::Null);
        assert!(staged.double_arrays(1).unwrap().nulls().is_null(3));
        // Appending nothing is a no-op.
        staged.append_rows(&source_b, &[]).unwrap();
        assert_eq!(staged.len(), 4);
        // Shape mismatches are rejected.
        let narrow = Schema::new(vec![Column::new("y", ColumnType::Double)]);
        let mut other = RowChunk::new(&narrow);
        assert!(other.append_rows(&source_a, &[0]).is_err());
        // Equal arity, type mismatch in the *second* column: the first column
        // must not have grown when the error returns.
        let double_int = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("n", ColumnType::Int),
        ]);
        let double_text = Schema::new(vec![
            Column::new("y", ColumnType::Double),
            Column::new("tag", ColumnType::Text),
        ]);
        let mut target = RowChunk::new(&double_int);
        target.push_values(row![1.0, 7i64].values()).unwrap();
        let mut source = RowChunk::new(&double_text);
        source.push_values(row![2.0, "b"].values()).unwrap();
        let before = target.clone();
        assert!(matches!(
            target.append_rows(&source, &[0]),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert_eq!(target, before);
        // The target is still aligned: it takes and returns whole rows.
        target.append_rows(&before, &[0]).unwrap();
        assert_eq!(target.row(1), row![1.0, 7i64]);
    }

    #[test]
    fn the_one_copy_routine_agrees_with_the_row_path() {
        // All seven column types, with NULL rows, empty arrays and ragged
        // widths.
        let s = Schema::new(vec![
            Column::new("d", ColumnType::Double),
            Column::new("i", ColumnType::Int),
            Column::new("b", ColumnType::Bool),
            Column::new("t", ColumnType::Text),
            Column::new("da", ColumnType::DoubleArray),
            Column::new("ia", ColumnType::IntArray),
            Column::new("ta", ColumnType::TextArray),
        ]);
        let source = |salt: usize| {
            let mut chunk = RowChunk::new(&s);
            for r in 0..70 {
                let r = r + salt;
                let values = if r % 7 == 3 {
                    vec![Value::Null; 7]
                } else {
                    vec![
                        Value::Double(r as f64 - 0.5),
                        Value::Int(r as i64),
                        Value::Bool(r % 2 == 1),
                        Value::Text(format!("t{r}")),
                        Value::DoubleArray((0..r % 4).map(|k| (r + k) as f64).collect()),
                        // A NULL inside an otherwise non-NULL row.
                        if r % 5 == 4 {
                            Value::Null
                        } else {
                            Value::IntArray((0..r % 3).map(|k| (r * k) as i64).collect())
                        },
                        Value::TextArray((0..r % 3).map(|k| format!("w{k}")).collect()),
                    ]
                };
                chunk.push_values(&values).unwrap();
            }
            chunk
        };
        let (a, b) = (source(0), source(1000));
        let by_rows = |pieces: &[(&RowChunk, &[u32])]| {
            let mut out = RowChunk::new(&s);
            for (src, indices) in pieces {
                for &i in *indices {
                    out.push_values(src.row(i as usize).values()).unwrap();
                }
            }
            out
        };

        let all: Vec<u32> = (0..a.len() as u32).collect();
        let every_other: Vec<u32> = all.iter().copied().step_by(2).collect();
        let index_lists: [&[u32]; 5] = [&[], &[3], &[69], &every_other, &all];
        for indices in index_lists {
            let expected = by_rows(&[(&a, indices)]);
            let mut appended = RowChunk::new(&s);
            appended.append_rows(&a, indices).unwrap();
            assert_eq!(appended, expected, "append_rows {indices:?}");
            assert_eq!(a.gather_rows(indices), expected, "gather_rows {indices:?}");
            let mut mask = SelectionMask::none(a.len());
            for &i in indices {
                mask.set(i as usize, true);
            }
            assert_eq!(a.gather(&mask), expected, "gather {indices:?}");
        }
        // Staging across sources, onto rows already there.
        let mut staged = RowChunk::new(&s);
        staged.append_rows(&a, &every_other).unwrap();
        staged.append_rows(&b, &[0, 3, 68]).unwrap();
        staged.append_rows(&a, &[3, 4]).unwrap();
        let pieces: [(&RowChunk, &[u32]); 3] =
            [(&a, &every_other), (&b, &[0, 3, 68]), (&a, &[3, 4])];
        assert_eq!(staged, by_rows(&pieces));
    }

    #[test]
    fn segments_seal_chunks_at_capacity() {
        let s = schema();
        let mut seg = Segment::default();
        // Batches of three into chunks of four.
        let rows = (0..10).map(|i| row![i as f64, vec![i as f64], "t"]);
        for batch in RowChunk::transpose(&s, rows, 3).unwrap() {
            let all: Vec<u32> = (0..batch.len() as u32).collect();
            seg.append_rows(&batch, &all, 4);
        }
        assert_eq!(seg.len(), 10);
        assert_eq!(seg.chunks().len(), 3);
        assert_eq!(seg.chunks()[0].len(), 4);
        assert_eq!(seg.chunks()[2].len(), 2);
        let ys: Vec<f64> = seg.iter().map(|r| r.get(0).as_double().unwrap()).collect();
        assert_eq!(ys, (0..10).map(|i| i as f64).collect::<Vec<_>>());
        seg.clear();
        assert!(seg.is_empty());
        assert_eq!(seg.chunks().len(), 1);
        assert_eq!(seg.chunks()[0].len(), 0);
    }

    #[test]
    fn failed_push_rolls_back_the_partial_row() {
        let s = schema(); // (Double, DoubleArray, Text)
        let mut chunk = RowChunk::new(&s);
        chunk
            .push_values(row![1.0, vec![1.0, 2.0], "a"].values())
            .unwrap();
        // Column 0 and 1 accept their values; column 2 fails -> the whole
        // row must be rolled back, leaving the chunk exactly as before.
        let before = chunk.clone();
        let err = chunk.push_values(&[
            Value::Double(9.0),
            Value::DoubleArray(vec![7.0]),
            Value::Int(3),
        ]);
        assert!(err.is_err());
        assert_eq!(chunk, before);
        // Wrong arity is rejected up front.
        assert!(matches!(
            chunk.push_values(&[Value::Double(1.0)]),
            Err(EngineError::ArityMismatch { .. })
        ));
        assert_eq!(chunk, before);
        // The chunk still accepts valid rows afterwards, correctly aligned.
        chunk
            .push_values(row![2.0, vec![3.0], "b"].values())
            .unwrap();
        assert_eq!(chunk.row(1), row![2.0, vec![3.0], "b"]);
    }

    #[test]
    fn int_values_coerce_into_double_columns_once() {
        let s = Schema::new(vec![Column::new("v", ColumnType::Double)]);
        let mut chunk = RowChunk::new(&s);
        chunk.push_values(&[Value::Int(7)]).unwrap();
        let v = chunk.doubles(0).unwrap();
        assert_eq!(v.values, &[7.0]);
        assert_eq!(chunk.value(0, 0), Value::Double(7.0));
    }
}
